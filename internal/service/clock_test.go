package service

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is virtual time. Now reads an instant that moves only when
// the clock is advanced. A timer never waits in real time: creating one
// advances the clock to its deadline and fires at once, so a backoff shows
// up as elapsed virtual time but costs none. It suits code whose waits are
// pure delays (client backoff, a bare Coordinator's liveness window); a
// fleet of live nodes would see leases expire under running workers.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Advance moves the clock d forward and returns the new instant.
func (f *fakeClock) Advance(d time.Duration) time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	return f.now
}

func (f *fakeClock) NewTimer(d time.Duration) (<-chan time.Time, func() bool) {
	c := make(chan time.Time, 1)
	c <- f.Advance(d)
	return c, func() bool { return false }
}

func (f *fakeClock) NewTicker(time.Duration) (<-chan time.Time, func()) {
	panic("fakeClock: a ticker has no virtual form; run the code that ticks on wallClock")
}

// TestOneClock keeps the package on its one clock: outside clock.go, no
// non-test file may read the wall clock or start a timer through package
// time. context.WithTimeout stays allowed: its deadlines bound RPCs in real
// time on purpose.
func TestOneClock(t *testing.T) {
	banned := map[string]bool{
		"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
		"NewTimer": true, "NewTicker": true, "Tick": true, "Sleep": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "clock.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		timePkg := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			continue
		}
		if timePkg == "." || timePkg == "_" {
			t.Errorf("%s imports time as %q; import it by name so its clock calls stay visible", name, timePkg)
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == timePkg && banned[sel.Sel.Name] {
				t.Errorf("%s: time.%s bypasses the service clock (use the clock in clock.go)", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no non-test source files found: the check checked nothing")
	}
}
