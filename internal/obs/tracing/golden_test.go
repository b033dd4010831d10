package tracing_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs/tracing"
	"repro/internal/serve"
)

// TestGoldenIDs pins the exact trace and span IDs minted for admission
// sequences 1..3 under a fixed seed. Identity is a pure function of
// (seed, sequence, stage index), so the values never depend on the
// clock; a change to the mixer that altered them would silently break
// every same-seed trace diff recorded before it.
func TestGoldenIDs(t *testing.T) {
	tr := tracing.New(tracing.Options{Seed: 42, Clock: serve.SystemClock{}})
	for _, route := range []string{"/a", "/b", "/c"} {
		_, rt := tr.StartRequest(context.Background(), route, "s0")
		rt.Stage("s1")
		rt.Finish()
	}
	var got []string
	for _, rec := range tr.Export().Traces {
		ids := []string{rec.TraceID}
		for _, st := range rec.Stages {
			ids = append(ids, st.SpanID)
		}
		got = append(got, strings.Join(ids, " "))
	}
	want := []string{
		"7eb3b394ac9efc29 255c63dd305aa588 d78ba518fc8e9063",
		"1db2233eb3bcaeb3 eb5e24250ebb4e82 231539196cda7306",
		"43aa8652ad94b3a2 3458bb2b15b7632e 259755488d6ad829",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("trace identity drifted:\n got %q\nwant %q", got, want)
	}
}
