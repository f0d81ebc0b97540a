package main

import (
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/service"
)

// buildCmd compiles the command under test into a temp dir and returns the
// binary path.
func buildCmd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "yieldest")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// Transient flags against a scenario without a transient stage must exit 2
// and list the tran-capable scenarios — not be half-applied or reported as a
// generic runtime failure.
func TestTranFlagsOnNonTranScenarioExit2(t *testing.T) {
	bin := buildCmd(t)
	for _, args := range [][]string{
		{"-problem", "foldedcascode", "-tranmode", "fixed"},
		{"-problem", "commonsource-spice", "-tstop", "2e-6"},
		{"-problem", "telescopic", "-tstep", "1e-9"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%v: err = %v (want exit error)\n%s", args, err, out)
		}
		if code := ee.ExitCode(); code != 2 {
			t.Errorf("%v: exit code %d, want 2\n%s", args, code, out)
		}
		s := string(out)
		if !strings.Contains(s, "has no transient window") {
			t.Errorf("%v: missing rejection message in output:\n%s", args, s)
		}
		for _, name := range []string{"commonsource-tran", "foldedcascode-tran"} {
			if !strings.Contains(s, name) {
				t.Errorf("%v: tran-capable scenario %q not listed in output:\n%s", args, name, s)
			}
		}
	}
}

// The same flags on a tran-capable scenario must be accepted (the estimate
// runs; keep it tiny).
func TestTranFlagsOnTranScenarioAccepted(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin,
		"-problem", "commonsource-tran", "-tranmode", "fixed", "-n", "8", "-workers", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("tran-capable scenario rejected: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "yield:") {
		t.Errorf("no yield line in output:\n%s", out)
	}
}

// whereAndTime matches the yield line's tail: the location ("local", or the
// server URL with an optional cached marker) and the elapsed time.
var whereAndTime = regexp.MustCompile(`(?m)^(yield: .*, plan [^,]+), .*\)$`)

// A served estimate prints what the local one prints — nominal block and
// yield line alike — once the location and the timing are stripped: both
// paths resolve one request through the service's resolution.
func TestServedMatchesLocal(t *testing.T) {
	bin := buildCmd(t)
	svc := service.New(service.Config{Metrics: obs.NewRegistry()})
	ts := httptest.NewServer(svc.Handler())
	defer svc.Close()
	defer ts.Close()
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		if !whereAndTime.Match(out) {
			t.Fatalf("%v: no yield line in output:\n%s", args, out)
		}
		return whereAndTime.ReplaceAllString(string(out), "$1")
	}
	for _, args := range [][]string{
		{"-problem", "foldedcascode", "-n", "3000", "-seed", "3"},
		{"-problem", "telescopic", "-n", "1000", "-sampler", "halton", "-seed", "0"},
		{"-problem", "commonsource", "-x", "9.2676e-05,0.00028227,2.1111e-06,0.00022167", "-n", "2500", "-sampler", "lhs"},
		{"-problem", "commonsource-tran", "-n", "16", "-tranmode", "fixed", "-tstop", "3e-6"},
	} {
		local := run(args...)
		served := run(append(args, "-server", ts.URL)...)
		if local != served {
			t.Errorf("%v: served output differs from local:\n--- local\n%s--- served\n%s", args, local, served)
		}
	}
}
