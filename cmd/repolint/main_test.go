package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRepolintCleanOnRepo is the acceptance smoke test: the analyzers
// must run clean over the repository itself. Any finding here means
// either a real invariant violation slipped in or an intentional
// exception is missing its //lint:allow annotation.
func TestRepolintCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	var out, errOut bytes.Buffer
	code := run([]string{"./..."}, &out, &errOut)
	if code != 0 {
		t.Fatalf("repolint ./... exited %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("repolint ./... printed findings on exit 0:\n%s", out.String())
	}
}

func TestRepolintList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("repolint -list exited %d: %s", code, errOut.String())
	}
	for _, name := range []string{"ctxflow:", "determinism:", "hotalloc:", "lockcheck:", "nopanic:", "obsnoop:", "printban:"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestRepolintSinglePackage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"./internal/obs"}, &out, &errOut); code != 0 {
		t.Fatalf("repolint ./internal/obs exited %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errOut.String())
	}
}

// TestRepolintServePackage runs the full suite over the serving layer —
// a determinism-critical package (see lint.Determinism's criticalPkgs)
// that reads time only through internal/clock, with no panics, no fmt
// printing, and nil-safe obs use.
func TestRepolintServePackage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"./internal/serve"}, &out, &errOut); code != 0 {
		t.Fatalf("repolint ./internal/serve exited %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("repolint ./internal/serve printed findings on exit 0:\n%s", out.String())
	}
}

// TestRepolintStorePackage runs the full suite over the persistent
// mapping store — determinism-critical because crash-recovery drills
// replay fault schedules byte-for-byte: no wall clock, no global rand,
// no map-ordered output may reach the log or the recovery scan.
func TestRepolintStorePackage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"./internal/store"}, &out, &errOut); code != 0 {
		t.Fatalf("repolint ./internal/store exited %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("repolint ./internal/store printed findings on exit 0:\n%s", out.String())
	}
}

// TestRepolintClusterPackage runs the full suite over the cluster
// tier — determinism-critical (routing plans, winner elections, and
// exchange seeds must be pure functions of the request) and on the
// request path (ctxflow: every forward and probe threads a
// request-derived context). Like serve, the router reads time only
// through internal/clock.
func TestRepolintClusterPackage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"./internal/cluster"}, &out, &errOut); code != 0 {
		t.Fatalf("repolint ./internal/cluster exited %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("repolint ./internal/cluster printed findings on exit 0:\n%s", out.String())
	}
}

func TestRepolintBadPattern(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &out, &errOut); code != 2 {
		t.Fatalf("bad pattern exited %d, want 2 (stdout %q)", code, out.String())
	}
}
