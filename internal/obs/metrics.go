// Package obs is the repo's dependency-free observability layer: atomic
// metrics in a named registry (Prometheus text + expvar-style JSON export),
// a leveled logger, and bounded per-job traces.
//
// Two properties are load-bearing everywhere this package is used:
//
//   - Nil safety. Every method on *Counter, *Gauge, *Histogram, *Logger,
//     and *Trace is a no-op on a nil receiver, so call sites in
//     hot paths never need an "is observability on?" branch — a disabled
//     component simply holds nil handles.
//
//   - Determinism. Instrumentation is purely integer/atomic bookkeeping on
//     the side; it never reorders work or touches the floating-point
//     sequence of the simulation paths, so the repo's bit-identity pins
//     (Workers=1 vs N, sharded vs single-node, lockstep vs scalar) hold
//     with metrics enabled.
package obs

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (no-op on nil receiver or negative d).
func (c *Counter) Add(d int64) {
	if c == nil || d < 0 {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on nil receiver).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d with a CAS loop (no-op on nil receiver).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value (0 on nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: per-bucket atomic counts plus a
// running sum. Bounds are upper bucket edges in ascending order; an implicit
// +Inf bucket catches the tail. Observations are lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// LatencyBuckets is the default bucket layout for durations in seconds.
var LatencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records v (no-op on nil receiver).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns a consistent-enough copy for export. Buckets and count
// are read without a global lock; under concurrent writes the copy may lag
// by in-flight observations, which is fine for monitoring.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = h.Sum()
	return s
}

// metricKey identifies one series: a metric family plus a formatted label
// set ("" for unlabeled).
type metricKey struct {
	fam    string
	labels string
}

func (k metricKey) String() string {
	if k.labels == "" {
		return k.fam
	}
	return k.fam + "{" + k.labels + "}"
}

// formatLabels renders k1,v1,k2,v2,... pairs as `k1="v1",k2="v2"` with label
// pairs sorted by key so the same set always produces the same series key.
func formatLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	n := len(kv) / 2
	type pair struct{ k, v string }
	pairs := make([]pair, 0, n)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Registry is a named collection of metrics. Lookup methods return the
// existing metric when the (name, labels) series already exists, so handles
// can be resolved once at component construction and used lock-free from
// then on. A nil *Registry is valid: every lookup returns nil, and the nil
// metric handles are no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[metricKey]*Counter
	gauges     map[metricKey]*Gauge
	histograms map[metricKey]*Histogram
	funcs      map[metricKey]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[metricKey]*Counter),
		gauges:     make(map[metricKey]*Gauge),
		histograms: make(map[metricKey]*Histogram),
		funcs:      make(map[metricKey]func() float64),
	}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry used by package-level
// instrumentation (engine, yieldsim, spice). It carries a couple of runtime
// gauges so even a bare scrape says something useful.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry()
		defaultReg.GaugeFunc("go_goroutines", func() float64 { return float64(runtime.NumGoroutine()) })
		defaultReg.GaugeFunc("go_mem_alloc_bytes", func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.Alloc)
		})
	})
	return defaultReg
}

// Counter returns the counter for name and optional k,v label pairs,
// creating it on first use. Nil registry returns nil (a no-op counter).
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	k := metricKey{name, formatLabels(labels)}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for name and optional k,v label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	k := metricKey{name, formatLabels(labels)}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for name with the given upper bucket
// bounds (LatencyBuckets when empty). Bounds are fixed at first creation;
// later calls with different bounds return the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	k := metricKey{name, formatLabels(labels)}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[k]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[k] = h
	}
	return h
}

// GaugeFunc registers a gauge computed at scrape time (queue depth, live
// totals owned elsewhere). Re-registering a name replaces the function.
// Funcs are node-local views and are excluded from Snapshot so fleet merges
// never double-count them.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	k := metricKey{name, formatLabels(labels)}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[k] = fn
}

// sortedKeys returns map keys ordered by family then label set, so exports
// are stable line-for-line.
func sortedKeys[V any](m map[metricKey]V) []metricKey {
	out := make([]metricKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].fam != out[j].fam {
			return out[i].fam < out[j].fam
		}
		return out[i].labels < out[j].labels
	})
	return out
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}
