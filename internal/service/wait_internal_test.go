package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/eda-go/moheco/internal/obs"
)

// TestWaitParam pins how the `wait` query parameter reads: the true forms
// wait the full limit, false and non-positive durations do not wait, a
// positive duration waits that long up to the limit, and anything else is
// a bad request.
func TestWaitParam(t *testing.T) {
	for _, tc := range []struct {
		query string
		want  time.Duration
		code  int // 0 = accepted
	}{
		{"", 0, 0},
		{"?wait", waitLimit, 0},
		{"?wait=", waitLimit, 0},
		{"?wait=true", waitLimit, 0},
		{"?wait=1", waitLimit, 0},
		{"?wait=0", 0, 0},
		{"?wait=-1s", 0, 0},
		{"?wait=false", 0, 0},
		{"?wait=junk", 0, http.StatusBadRequest},
		{"?wait=10s", 10 * time.Second, 0},
		{"?wait=1h", waitLimit, 0},
	} {
		rec := httptest.NewRecorder()
		got, ok := waitParam(rec, httptest.NewRequest("GET", "/v1/jobs/j1"+tc.query, nil))
		if ok != (tc.code == 0) || got != tc.want {
			t.Errorf("%q: wait %v (ok %v), want %v (ok %v)", tc.query, got, ok, tc.want, tc.code == 0)
		}
		if tc.code != 0 && rec.Code != tc.code {
			t.Errorf("%q: answered HTTP %d, want %d", tc.query, rec.Code, tc.code)
		}
	}
}

// TestBadWaitSubmitsNothing: a submission whose wait cannot be read is
// refused before it creates a job.
func TestBadWaitSubmitsNothing(t *testing.T) {
	s := New(Config{Jobs: 1, Workers: 1, Metrics: obs.NewRegistry()})
	t.Cleanup(s.Close)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/yield?wait=junk",
		strings.NewReader(`{"scenario":"commonsource","n":16}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST ?wait=junk answered HTTP %d, want 400", rec.Code)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("a refused submission created %d job(s)", n)
	}
}
