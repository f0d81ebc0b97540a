package yieldsim

import (
	"testing"

	"github.com/eda-go/moheco/internal/sample"
)

// TestChunkPartition pins the chunk-plan invariants the distributed service
// builds on: chunks tile [0, n) exactly, every chunk except possibly the
// last is full, and a full chunk's range is independent of n.
func TestChunkPartition(t *testing.T) {
	for _, n := range []int{1, 7, ChunkSize - 1, ChunkSize, ChunkSize + 1, 3*ChunkSize + 17, 100000} {
		nc := NumChunks(n)
		next := 0
		for i := 0; i < nc; i++ {
			cr := Chunk(n, i)
			if cr.Index != i || cr.Lo != next || cr.Hi <= cr.Lo {
				t.Fatalf("n=%d chunk %d: %+v (want Lo=%d)", n, i, cr, next)
			}
			if i < nc-1 && cr.Hi-cr.Lo != ChunkSize {
				t.Fatalf("n=%d chunk %d: partial before the last (%+v)", n, i, cr)
			}
			next = cr.Hi
		}
		if next != n {
			t.Fatalf("n=%d: chunks cover [0, %d)", n, next)
		}
		// Full chunks are n-independent: the same index at a larger n spans
		// the same samples — the property warm-shard reuse relies on.
		for i := 0; i < nc-1; i++ {
			cr := Chunk(n, i)
			if big := Chunk(10*n, cr.Index); big.Lo != cr.Lo || big.Hi != cr.Hi {
				t.Fatalf("n=%d chunk %d not n-independent: %+v vs %+v", n, cr.Index, cr, big)
			}
		}
	}
	if NumChunks(0) != 0 {
		t.Error("NumChunks(0) != 0")
	}
}

// TestChunkPassMergeBitIdentity is the sharding correctness contract: any
// partition of the chunk space, evaluated range by range (as fleet shards
// are) and merged with MergePass, equals the full ReferenceCtx run bit for
// bit — per sampler, including an n that ends in a partial chunk.
func TestChunkPassMergeBitIdentity(t *testing.T) {
	p := &sphereProblem{radius: 1.2, dim: 2}
	x := []float64{0.5}
	for _, samplerName := range []string{"pmc", "lhs", "halton"} {
		smp, err := sample.ByName(samplerName)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{5000, 4 * ChunkSize, 50000} {
			want, _, err := ReferenceCtx(nil, p, x, n, 11, RefOptions{Sampler: smp})
			if err != nil {
				t.Fatal(err)
			}
			chunks := NumChunks(n)
			for _, shardChunks := range []int{1, 3, chunks} {
				counts := make([]int, 0, chunks)
				for first := 0; first < chunks; first += shardChunks {
					last := first + shardChunks
					if last > chunks {
						last = chunks
					}
					part, err := ChunkPass(nil, p, x, n, 11, first, last,
						RefOptions{Sampler: smp, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					if len(part) != last-first {
						t.Fatalf("ChunkPass [%d,%d) returned %d counts", first, last, len(part))
					}
					counts = append(counts, part...)
				}
				if got := MergePass(counts, n); got != want {
					t.Errorf("%s n=%d shard=%d chunks: merged %v, reference %v",
						samplerName, n, shardChunks, got, want)
				}
			}
			if want == 0 || want == 1 {
				t.Errorf("%s n=%d: degenerate yield %v — the fixture no longer discriminates", samplerName, n, want)
			}
		}
	}
}

// TestChunkPassRangeValidation rejects out-of-range chunk windows instead
// of silently clamping them — a coordinator bug that planned a bad shard
// must surface, not merge a short count vector.
func TestChunkPassRangeValidation(t *testing.T) {
	p := &sphereProblem{radius: 1.2, dim: 2}
	x := []float64{0.5}
	for _, tc := range [][2]int{{-1, 1}, {2, 1}, {0, NumChunks(5000) + 1}} {
		if _, err := ChunkPass(nil, p, x, 5000, 1, tc[0], tc[1], RefOptions{}); err == nil {
			t.Errorf("chunk range [%d,%d) accepted", tc[0], tc[1])
		}
	}
	if _, err := ChunkPass(nil, p, x, 0, 1, 0, 0, RefOptions{}); err == nil {
		t.Error("n=0 accepted")
	}
}

// TestChunkPassCounter pins shard-level accounting: a completed range adds
// exactly its sample count to the counter.
func TestChunkPassCounter(t *testing.T) {
	p := &sphereProblem{radius: 1.2, dim: 2}
	x := []float64{0.5}
	var counter Counter
	n := 2*ChunkSize + 100
	if _, err := ChunkPass(nil, p, x, n, 1, 1, 3, RefOptions{Counter: &counter}); err != nil {
		t.Fatal(err)
	}
	if got, want := counter.Total(), int64(ChunkSize+100); got != want {
		t.Errorf("counter %d, want %d", got, want)
	}
}
