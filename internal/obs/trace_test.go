package obs

import (
	"context"
	"sync"
	"testing"
)

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("j1", "yield")
	tr.Event("queued", nil)
	id := tr.Begin("shard", func(s *Span) {
		s.Attrs = map[string]string{"chunks": "0-3"}
	})
	tr.End(id, func(s *Span) {
		s.Node = "w1"
		s.Sims = 8192
	})
	tr.Event("done", func(s *Span) { s.Attrs = map[string]string{"state": "done"} })

	v := tr.View()
	if v.ID != "j1" || v.Kind != "yield" {
		t.Fatalf("view header = %+v", v)
	}
	if len(v.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(v.Spans))
	}
	sh := v.Spans[1]
	if sh.Name != "shard" || sh.Node != "w1" || sh.Sims != 8192 || sh.Open {
		t.Fatalf("shard span = %+v", sh)
	}
	if sh.Attrs["chunks"] != "0-3" {
		t.Fatalf("shard attrs = %v", sh.Attrs)
	}
}

// TestTraceSpanLimit proves a single trace cannot grow without bound.
func TestTraceSpanLimit(t *testing.T) {
	tr := NewTrace("j", "optimize")
	for i := 0; i < defaultSpanLimit+100; i++ {
		tr.Event("gen", nil)
	}
	v := tr.View()
	if len(v.Spans) != defaultSpanLimit {
		t.Fatalf("spans = %d, want cap %d", len(v.Spans), defaultSpanLimit)
	}
	if v.Dropped != 100 {
		t.Fatalf("dropped = %d, want 100", v.Dropped)
	}
	if tr.Begin("late", nil) != -1 {
		t.Fatal("Begin past the cap should report a dropped span")
	}
}

// TestTraceConcurrency: spans opened, closed and viewed from several
// goroutines on one trace (a sharded job's per-shard spans) all land.
func TestTraceConcurrency(t *testing.T) {
	tr := NewTrace("j", "yield")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tr.Begin("s", nil)
				tr.End(id, nil)
				_ = tr.View()
			}
		}()
	}
	wg.Wait()
	if n := len(tr.View().Spans); n != 800 {
		t.Fatalf("spans = %d, want 800", n)
	}
}

func TestTraceContextAndNil(t *testing.T) {
	var nilTrace *Trace
	nilTrace.Event("x", nil)
	id := nilTrace.Begin("x", nil)
	nilTrace.End(id, nil)
	if id != -1 || nilTrace.ID() != "" {
		t.Fatal("nil trace must be inert")
	}
	if TraceFrom(context.Background()) != nil {
		t.Fatal("empty ctx should carry no trace")
	}
	tr := NewTrace("j", "yield")
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace lost in ctx round trip")
	}
	if ContextWithTrace(context.Background(), nil) != context.Background() {
		t.Fatal("nil trace should not wrap ctx")
	}
}
