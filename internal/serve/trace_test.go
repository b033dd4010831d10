// Flight-recorder integration tests: every request trace's stage
// durations sum exactly to its span under the clock.Fake, refusals carry
// their admission reason, batches link to their members, and two
// same-seed servers driven identically export byte-identical
// /debug/traces documents.
package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs/tracing"
)

// newTracedServer is newTestServer plus a tracer sharing the server's
// clock.Fake, which it returns for manual advancement.
func newTracedServer(t *testing.T, seed uint64, override func(*Config)) (*Server, *clock.Fake) {
	t.Helper()
	var fc *clock.Fake
	s := newTestServer(t, func(c *Config) {
		fc = c.Clock.(*clock.Fake)
		c.Tracer = tracing.New(tracing.Options{
			Seed: seed, Capacity: 64, ExemplarK: 2, Clock: c.Clock,
		})
		if override != nil {
			override(c)
		}
	})
	return s, fc
}

func tracesFor(s *Server, route string) []tracing.Record {
	var out []tracing.Record
	for _, r := range s.tracer.Export().Traces {
		if r.Route == route {
			out = append(out, r)
		}
	}
	return out
}

// requireExactSum asserts the core contract on one record: contiguous
// stages whose durations sum to the request span exactly.
func requireExactSum(t *testing.T, rec tracing.Record) {
	t.Helper()
	if len(rec.Stages) == 0 {
		t.Fatalf("trace %s (%s) has no stages", rec.TraceID, rec.Route)
	}
	var sum int64
	for i, st := range rec.Stages {
		sum += st.DurationNS
		want := int64(0)
		if i > 0 {
			want = rec.Stages[i-1].OffsetNS + rec.Stages[i-1].DurationNS
		}
		if st.OffsetNS != want {
			t.Fatalf("trace %s stage %q offset %d, want %d (stages must be contiguous)",
				rec.TraceID, st.Name, st.OffsetNS, want)
		}
	}
	if sum != rec.DurationNS {
		t.Fatalf("trace %s (%s): stage sum %d != duration %d", rec.TraceID, rec.Route, sum, rec.DurationNS)
	}
}

func stageDuration(t *testing.T, rec tracing.Record, name string) int64 {
	t.Helper()
	for _, st := range rec.Stages {
		if st.Name == name {
			return st.DurationNS
		}
	}
	var names []string
	for _, st := range rec.Stages {
		names = append(names, st.Name)
	}
	t.Fatalf("trace %s (%s) has no stage %q; stages: %v", rec.TraceID, rec.Route, name, names)
	return 0
}

// TestEvalTraceBatchedSumsExactly drives one uncached eval through a
// paused queue, advances the clock 5s while it waits, and requires the
// whole wait to land in the queue_wait stage — and the stages to sum to
// the request span to the nanosecond. It also pins the batch linkage:
// the member trace's batch_id annotation names the batch trace, whose
// own stages (coalesce → store_warm → eval → store_persist) sum
// exactly too.
func TestEvalTraceBatchedSumsExactly(t *testing.T) {
	s, fc := newTracedServer(t, 1, nil)
	s.SetMode(ModePause)

	done := make(chan int, 1)
	go func() {
		code, _ := post(t, s, "POST", "/v1/eval", evalBody, nil)
		done <- code
	}()
	waitUntil(t, func() bool { return s.queue.depth() == 1 })
	// Settle: depth rises on enqueue, one statement before the handler
	// opens queue_wait; give that statement time to run before the clock
	// moves so the advance is attributed to the wait, not admission.
	time.Sleep(50 * time.Millisecond)
	fc.Advance(5 * time.Second)
	s.SetMode(ModeServe)
	if code := <-done; code != 200 {
		t.Fatalf("eval through paused queue: %d", code)
	}

	evals := tracesFor(s, "/v1/eval")
	if len(evals) != 1 {
		t.Fatalf("want 1 eval trace, got %d", len(evals))
	}
	rec := evals[0]
	requireExactSum(t, rec)
	if rec.Outcome != "ok" {
		t.Fatalf("outcome %q, want ok", rec.Outcome)
	}
	if rec.DurationNS != (5 * time.Second).Nanoseconds() {
		t.Fatalf("request span %dns, want the 5s queue wait", rec.DurationNS)
	}
	if got := stageDuration(t, rec, "queue_wait"); got != (5 * time.Second).Nanoseconds() {
		t.Fatalf("queue_wait %dns, want 5s — the wait leaked into another stage", got)
	}
	for _, name := range []string{"decode", "admission", "batch", "respond"} {
		if d := stageDuration(t, rec, name); d != 0 {
			t.Fatalf("stage %q has duration %d under a frozen clock", name, d)
		}
	}

	batches := tracesFor(s, "batch")
	if len(batches) != 1 {
		t.Fatalf("want 1 batch trace, got %d", len(batches))
	}
	bt := batches[0]
	requireExactSum(t, bt)
	for _, name := range []string{"coalesce", "store_warm", "eval", "store_persist"} {
		stageDuration(t, bt, name)
	}
	if rec.Annotations["batch_id"] != bt.TraceID {
		t.Fatalf("member batch_id %q != batch trace %s", rec.Annotations["batch_id"], bt.TraceID)
	}
	if rec.Annotations["batch_jobs"] != "1" {
		t.Fatalf("batch_jobs %q, want 1", rec.Annotations["batch_jobs"])
	}
}

// TestEvalTraceDegradedCarriesReason: a shed-mode cache-only answer is
// an "ok" HTTP 200 but a "degraded" trace, and the trace names why.
func TestEvalTraceDegradedCarriesReason(t *testing.T) {
	s, _ := newTracedServer(t, 1, nil)
	if code, _ := post(t, s, "POST", "/v1/eval", evalBody, nil); code != 200 {
		t.Fatalf("warmup failed")
	}
	s.SetMode(ModeShed)
	var resp EvalResponse
	if code, _ := post(t, s, "POST", "/v1/eval", evalBody, &resp); code != 200 || !resp.Degraded {
		t.Fatalf("shed-mode cached eval: code %d degraded %v", code, resp.Degraded)
	}

	evals := tracesFor(s, "/v1/eval")
	if len(evals) != 2 {
		t.Fatalf("want 2 eval traces, got %d", len(evals))
	}
	rec := evals[1]
	requireExactSum(t, rec)
	if rec.Outcome != "degraded" {
		t.Fatalf("outcome %q, want degraded", rec.Outcome)
	}
	if got := rec.Annotations["admission.reason"]; got != "shed: cache-only" {
		t.Fatalf("admission.reason %q, want shed: cache-only", got)
	}
	stageDuration(t, rec, "admission")
	// A degraded answer never queued, so its trace must not claim a wait.
	for _, st := range rec.Stages {
		if st.Name == "queue_wait" || st.Name == "batch" {
			t.Fatalf("degraded trace has stage %q — it never entered the queue", st.Name)
		}
	}
}

// TestSearchTraceFreshAndResumed: a completed search's trace carries
// the checkpoint/anneal/store stages, exchange-barrier marks, and
// resume=false; the identical request on a fresh server sharing the
// checkpoint directory traces resume=true.
func TestSearchTraceFreshAndResumed(t *testing.T) {
	dir := t.TempDir()
	s1, _ := newTracedServer(t, 1, func(c *Config) { c.CheckpointDir = dir })
	if code, rec := post(t, s1, "POST", "/v1/search", searchBody, nil); code != 200 {
		t.Fatalf("search: %d %s", code, rec.Body.String())
	}
	fresh := tracesFor(s1, "/v1/search")
	if len(fresh) != 1 {
		t.Fatalf("want 1 search trace, got %d", len(fresh))
	}
	rec := fresh[0]
	requireExactSum(t, rec)
	if rec.Outcome != "ok" {
		t.Fatalf("outcome %q", rec.Outcome)
	}
	for _, name := range []string{"decode", "admission", "checkpoint", "anneal", "store", "respond"} {
		stageDuration(t, rec, name)
	}
	if rec.Annotations["resume"] != "false" {
		t.Fatalf("fresh search resume=%q, want false", rec.Annotations["resume"])
	}
	barriers := 0
	for _, m := range rec.Marks {
		if m.Name == "anneal.barrier" {
			barriers++
		}
	}
	if barriers == 0 {
		t.Fatalf("search trace carries no anneal.barrier marks: %+v", rec.Marks)
	}

	s2, _ := newTracedServer(t, 1, func(c *Config) { c.CheckpointDir = dir })
	if code, rec := post(t, s2, "POST", "/v1/search", searchBody, nil); code != 200 {
		t.Fatalf("resumed search: %d %s", code, rec.Body.String())
	}
	resumed := tracesFor(s2, "/v1/search")[0]
	requireExactSum(t, resumed)
	if resumed.Annotations["resume"] != "true" {
		t.Fatalf("checkpointed rerun resume=%q, want true", resumed.Annotations["resume"])
	}
}

// TestSearchTraceShedOutcomes: shedding with a stored result degrades
// (trace says so and why); shedding without one refuses, and the
// refusal trace carries its reason and still sums exactly.
func TestSearchTraceShedOutcomes(t *testing.T) {
	s, _ := newTracedServer(t, 1, nil)
	s.SetMode(ModeShed)
	if code, _ := post(t, s, "POST", "/v1/search", searchBody, nil); code != 429 {
		t.Fatalf("shed search with no stored result: want 429, got %d", code)
	}
	rejected := tracesFor(s, "/v1/search")[0]
	requireExactSum(t, rejected)
	if rejected.Outcome != "rejected" {
		t.Fatalf("outcome %q, want rejected", rejected.Outcome)
	}
	if got := rejected.Annotations["admission.reason"]; got != "shedding, no stored result" {
		t.Fatalf("admission.reason %q", got)
	}
	stageDuration(t, rejected, "admission")

	s.SetMode(ModeServe)
	if code, _ := post(t, s, "POST", "/v1/search", searchBody, nil); code != 200 {
		t.Fatalf("serve-mode search failed")
	}
	s.SetMode(ModeShed)
	var resp SearchResponse
	if code, _ := post(t, s, "POST", "/v1/search", searchBody, &resp); code != 200 || !resp.Degraded {
		t.Fatalf("shed replay: code %d degraded %v", code, resp.Degraded)
	}
	recs := tracesFor(s, "/v1/search")
	degraded := recs[len(recs)-1]
	requireExactSum(t, degraded)
	if degraded.Outcome != "degraded" || degraded.Annotations["admission.reason"] != "shed: stored best-so-far" {
		t.Fatalf("degraded replay trace: outcome %q reason %q",
			degraded.Outcome, degraded.Annotations["admission.reason"])
	}
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestSameSeedExportsByteIdentical: two servers with the same tracer
// seed and clock epoch, driven through the same request sequence,
// export byte-identical /debug/traces documents and Chrome renderings
// — the in-process twin of the CI trace drill.
func TestSameSeedExportsByteIdentical(t *testing.T) {
	drive := func(s *Server) (traces, chrome []byte) {
		t.Helper()
		if code, _ := post(t, s, "POST", "/v1/eval", evalBody, nil); code != 200 {
			t.Fatalf("eval failed")
		}
		if code, _ := post(t, s, "POST", "/v1/search", searchBody, nil); code != 200 {
			t.Fatalf("search failed")
		}
		if code, _ := post(t, s, "POST", "/v1/eval", evalBody, nil); code != 200 {
			t.Fatalf("repeat eval failed")
		}
		return get(s, "/debug/traces").Body.Bytes(), get(s, "/debug/traces?format=chrome").Body.Bytes()
	}
	s1, _ := newTracedServer(t, 7, nil)
	s2, _ := newTracedServer(t, 7, nil)
	t1, c1 := drive(s1)
	t2, c2 := drive(s2)
	if !bytes.Equal(t1, t2) {
		t.Fatalf("same-seed /debug/traces exports differ:\n%s\n---\n%s", t1, t2)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("same-seed Chrome exports differ")
	}
	// Scraping is a pure read: a second scrape of the same server is
	// byte-identical to the first.
	if again := get(s1, "/debug/traces").Body.Bytes(); !bytes.Equal(t1, again) {
		t.Fatalf("re-scrape of the same server differs")
	}
}

// TestConcurrentScrapeRace exercises /v1/metrics and /debug/traces
// scrapes racing live eval traffic; the -race build is the assertion.
func TestConcurrentScrapeRace(t *testing.T) {
	s, _ := newTracedServer(t, 1, nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{
				"recurrence": {"dims": [6, 6], "deps": [[1, 0], [0, 1]]},
				"target": {"width": 4},
				"schedules": [{"kind": "antidiagonal", "stride": %d}]
			}`, 100+i)
			for j := 0; j < 5; j++ {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest("POST", "/v1/eval", bytes.NewReader([]byte(body)))
				s.Handler().ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Errorf("eval %d/%d: %d", i, j, rec.Code)
				}
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if rec := get(s, "/v1/metrics"); rec.Code != 200 {
					t.Errorf("metrics scrape: %d", rec.Code)
				}
				if rec := get(s, "/debug/traces"); rec.Code != 200 {
					t.Errorf("traces scrape: %d", rec.Code)
				}
				if rec := get(s, "/debug/traces?format=chrome"); rec.Code != 200 {
					t.Errorf("chrome scrape: %d", rec.Code)
				}
			}
		}()
	}
	wg.Wait()
}

// TestTracesEndpointWithoutTracer: a server built with no tracer serves
// the empty document rather than 404ing or panicking.
func TestTracesEndpointWithoutTracer(t *testing.T) {
	s := newTestServer(t, nil)
	if code, _ := post(t, s, "POST", "/v1/eval", evalBody, nil); code != 200 {
		t.Fatalf("untraced eval failed")
	}
	rec := get(s, "/debug/traces")
	if rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte(`"traces": []`)) {
		t.Fatalf("untraced /debug/traces: %d %s", rec.Code, rec.Body.String())
	}
}
