package service

import (
	"context"
	"math/rand"
	"time"
)

// clock is the service's one source of time. Every wall-clock read and
// every timer in the package's non-test code goes through the clock the
// Server, its Coordinator and each Client hold, and this file is the only
// one that calls package time's clock functions (a test enforces it).
// Production code always runs on wallClock; tests swap in virtual time, so
// retry backoff and liveness windows cost them no real time.
//
// Deadlines that bound an RPC (context.WithTimeout) stay on real time:
// they limit how long a peer may take to answer, and virtual time cannot
// make a peer answer sooner.
type clock interface {
	Now() time.Time
	// NewTimer fires once, d from now; stop releases it early.
	NewTimer(d time.Duration) (c <-chan time.Time, stop func() bool)
	// NewTicker fires every d until stop.
	NewTicker(d time.Duration) (c <-chan time.Time, stop func())
}

// wallClock is real time.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) NewTimer(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

func (wallClock) NewTicker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// sinceMS returns the time elapsed on clk since t0 in milliseconds, the
// unit traces and results report.
func sinceMS(clk clock, t0 time.Time) float64 {
	return float64(clk.Now().Sub(t0)) / float64(time.Millisecond)
}

// sleep waits d on clk. It returns false early when ctx ends or stop
// closes; a nil stop never closes.
func sleep(ctx context.Context, clk clock, d time.Duration, stop <-chan struct{}) bool {
	c, cancel := clk.NewTimer(d)
	defer cancel()
	select {
	case <-c:
		return true
	case <-ctx.Done():
	case <-stop:
	}
	return false
}

// retryBase is the first step of the retry schedule backoff waits out.
const retryBase = 200 * time.Millisecond

// backoff waits out step try (0-based) of the service's one retry
// schedule: retryBase doubled once per step up to limit, with full jitter
// on the upper half, so a fleet of clients or workers that lost the same
// server does not retry in lockstep. A longer floor (a server's
// Retry-After) replaces the drawn wait. It returns false when ctx ends
// first.
func backoff(ctx context.Context, clk clock, try int, limit, floor time.Duration) bool {
	d := retryBase
	for ; try > 0 && d < limit; try-- {
		d *= 2
	}
	d = min(d, limit)
	d = max(d/2+time.Duration(rand.Int63n(int64(d/2)+1)), floor)
	return sleep(ctx, clk, d, nil)
}
