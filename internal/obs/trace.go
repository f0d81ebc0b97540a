package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed (or instantaneous) step inside a trace. Events are
// closed spans with zero duration; Open marks a span still in flight at
// view time.
type Span struct {
	Name       string            `json:"name"`
	Node       string            `json:"node,omitempty"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms,omitempty"`
	Sims       int64             `json:"sims,omitempty"`
	Samples    int64             `json:"samples,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Open       bool              `json:"open,omitempty"`
}

// SpanID indexes a span within its trace. The zero-value-unfriendly -1 is
// returned by Begin on nil traces or when the span cap is hit; End on such
// an ID is a no-op.
type SpanID int

// defaultSpanLimit bounds spans per trace so a runaway generation loop
// can't grow one trace without bound; overflow is counted, not stored.
const defaultSpanLimit = 2048

// Trace is a bounded, append-only span record for one job. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Trace struct {
	id    string
	kind  string
	start time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewTrace starts an empty trace for job id of the given kind.
func NewTrace(id, kind string) *Trace {
	return &Trace{id: id, kind: kind, start: time.Now()}
}

// ID returns the trace's job id ("" on nil receiver).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Event appends an instantaneous span.
func (t *Trace) Event(name string, mut func(*Span)) {
	if t == nil {
		return
	}
	sp := Span{Name: name, Start: time.Now()}
	if mut != nil {
		mut(&sp)
	}
	t.mu.Lock()
	if len(t.spans) >= defaultSpanLimit {
		t.dropped++
	} else {
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Begin opens a span and returns its id for End. mut, if non-nil, runs on
// the new span under the trace lock (set Node/Attrs).
func (t *Trace) Begin(name string, mut func(*Span)) SpanID {
	if t == nil {
		return -1
	}
	sp := Span{Name: name, Start: time.Now(), Open: true}
	if mut != nil {
		mut(&sp)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= defaultSpanLimit {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, sp)
	return SpanID(len(t.spans) - 1)
}

// End closes the span, stamping its duration; mut, if non-nil, runs on the
// span under the trace lock (set Node/Sims/Samples discovered during the
// work).
func (t *Trace) End(id SpanID, mut func(*Span)) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return
	}
	sp := &t.spans[id]
	if sp.Open {
		sp.DurationMS = float64(time.Since(sp.Start)) / float64(time.Millisecond)
		sp.Open = false
	}
	if mut != nil {
		mut(sp)
	}
}

// TraceView is the wire form of a trace.
type TraceView struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"`
	Start   time.Time `json:"start"`
	Spans   []Span    `json:"spans"`
	Dropped int       `json:"dropped_spans,omitempty"`
}

// View returns a deep-enough copy for serialization (span Attrs maps are
// shared; callers must not mutate them).
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := TraceView{ID: t.id, Kind: t.kind, Start: t.start, Dropped: t.dropped}
	v.Spans = append([]Span(nil), t.spans...)
	return v
}

type traceCtxKey struct{}

// ContextWithTrace attaches t to ctx so layers below an interface boundary
// (Backend.Yield) can attribute spans without a signature change.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}
