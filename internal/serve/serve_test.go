package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fm"
	"repro/internal/obs"
)

// newTestServer builds a server with test-friendly defaults; overrides
// tweak the config before construction.
func newTestServer(t *testing.T, override func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		PoolWorkers:      2,
		QueueDepth:       8,
		EvalWorkers:      1,
		BatchMax:         8,
		MaxSearches:      1,
		AdmissionControl: true,
		Clock:            clock.NewFake(time.Unix(1000, 0)),
		Obs:              obs.New(),
	}
	if override != nil {
		override(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// post runs one request through the handler and decodes the JSON reply.
func post(t *testing.T, s *Server, method, path, body string, out any) (int, *httptest.ResponseRecorder) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if out != nil && rec.Code == 200 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s %s response: %v\n%s", method, path, err, rec.Body.String())
		}
	}
	return rec.Code, rec
}

const evalBody = `{
	"recurrence": {"dims": [6, 6], "deps": [[1, 0], [0, 1]]},
	"target": {"width": 4},
	"schedules": [{"kind": "serial"}, {"kind": "antidiagonal"}]
}`

func TestEvalInlineRecurrence(t *testing.T) {
	s := newTestServer(t, nil)
	var resp EvalResponse
	code, rec := post(t, s, "POST", "/v1/eval", evalBody, &resp)
	if code != 200 {
		t.Fatalf("status %d: %s", code, rec.Body.String())
	}
	if len(resp.Costs) != 2 {
		t.Fatalf("want 2 costs, got %d", len(resp.Costs))
	}
	if resp.Degraded {
		t.Fatalf("fresh eval must not be degraded")
	}
	if resp.Costs[0].Cycles <= 0 || resp.Costs[1].Cycles <= 0 {
		t.Fatalf("degenerate costs: %+v", resp.Costs)
	}
	if resp.Costs[0].PlacesUsed != 1 || resp.Costs[1].PlacesUsed != 4 {
		t.Fatalf("serial uses %d places, antidiagonal %d; want 1 and 4",
			resp.Costs[0].PlacesUsed, resp.Costs[1].PlacesUsed)
	}
	// The response costs must match a direct evaluation: the service adds
	// machinery, never different answers.
	rec2, dom, err := (&RecurrenceSpec{Dims: []int{6, 6}, Deps: [][]int{{1, 0}, {0, 1}}}).materialize()
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := (&TargetSpec{Width: 4}).target()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := (&ScheduleSpec{Kind: "serial"}).build(rec2, dom, tgt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fm.Evaluate(rec2, sched, tgt, fm.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Costs[0] != want {
		t.Fatalf("served cost %+v != direct evaluation %+v", resp.Costs[0], want)
	}
}

func TestEvalFingerprintRoundTrip(t *testing.T) {
	s := newTestServer(t, nil)
	var first EvalResponse
	if code, rec := post(t, s, "POST", "/v1/eval", evalBody, &first); code != 200 {
		t.Fatalf("inline eval: %d %s", code, rec.Body.String())
	}
	byFP := fmt.Sprintf(`{
		"graph_fp": %q,
		"target": {"width": 4},
		"schedules": [{"kind": "serial"}]
	}`, first.GraphFP)
	var second EvalResponse
	if code, rec := post(t, s, "POST", "/v1/eval", byFP, &second); code != 200 {
		t.Fatalf("fingerprint eval: %d %s", code, rec.Body.String())
	}
	if second.Costs[0] != first.Costs[0] {
		t.Fatalf("fingerprint eval cost %+v != inline cost %+v", second.Costs[0], first.Costs[0])
	}

	if code, _ := post(t, s, "POST", "/v1/eval",
		`{"graph_fp": "deadbeef", "target": {"width": 4}, "schedules": [{"kind": "serial"}]}`, nil); code != 404 {
		t.Fatalf("unknown fingerprint: want 404, got %d", code)
	}
}

func TestEvalRejectsMalformedRequests(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name, body string
		want       int
	}{
		{"bad json", `{`, 400},
		{"unknown field", `{"recurrence": {"dims": [2], "deps": []}, "target": {"width": 2}, "schedules": [{"kind": "serial"}], "bogus": 1}`, 400},
		{"trailing data", evalBody + `{"extra": true}`, 400},
		{"no schedules", `{"recurrence": {"dims": [2], "deps": []}, "target": {"width": 2}, "schedules": []}`, 422},
		{"no graph", `{"target": {"width": 2}, "schedules": [{"kind": "serial"}]}`, 422},
		{"bad op", `{"recurrence": {"dims": [2], "deps": [], "op": "teleport"}, "target": {"width": 2}, "schedules": [{"kind": "serial"}]}`, 422},
		{"huge domain", `{"recurrence": {"dims": [1024, 1024], "deps": []}, "target": {"width": 2}, "schedules": [{"kind": "serial"}]}`, 422},
		{"bad grid", `{"recurrence": {"dims": [2], "deps": []}, "target": {"width": 0}, "schedules": [{"kind": "serial"}]}`, 422},
		{"bad schedule kind", `{"recurrence": {"dims": [2], "deps": []}, "target": {"width": 2}, "schedules": [{"kind": "psychic"}]}`, 422},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, rec := post(t, s, "POST", "/v1/eval", tc.body, nil)
			if code != tc.want {
				t.Fatalf("want %d, got %d: %s", tc.want, code, rec.Body.String())
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("error responses must carry the envelope: %s", rec.Body.String())
			}
		})
	}
}

// TestEvalCoalescing pins the micro-batching contract: concurrent
// requests sharing (graph, target) drain as ONE batch. The drill uses
// pause mode to accumulate the requests deterministically, so the single
// drain that follows resume must coalesce all of them.
func TestEvalCoalescing(t *testing.T) {
	s := newTestServer(t, nil)
	// Materialize the graph (and warm nothing else) so burst requests can
	// go by fingerprint.
	var warm EvalResponse
	if code, rec := post(t, s, "POST", "/v1/eval", evalBody, &warm); code != 200 {
		t.Fatalf("warmup: %d %s", code, rec.Body.String())
	}
	s.SetMode(ModePause)

	const n = 4
	body := fmt.Sprintf(`{
		"graph_fp": %q,
		"target": {"width": 4},
		"schedules": [{"kind": "antidiagonal", "stride": %d}]
	}`, warm.GraphFP, 7) // a stride nothing warmed, so the cache cannot degrade these
	var wg sync.WaitGroup
	resps := make([]EvalResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = post(t, s, "POST", "/v1/eval", body, &resps[i])
		}(i)
	}
	waitUntil(t, func() bool { return s.queue.depth() == n })
	s.SetMode(ModeServe)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if resps[i].BatchSize != n {
			t.Fatalf("request %d: batch size %d, want %d (all coalesced)", i, resps[i].BatchSize, n)
		}
		if resps[i].Costs[0] != resps[0].Costs[0] {
			t.Fatalf("coalesced requests disagree on cost")
		}
		if resps[i].Degraded {
			t.Fatalf("request %d: coalesced answer must not be degraded", i)
		}
	}
	// n identical schedules priced once: the batch deduplicates before
	// evaluating.
	stats := s.cache.SnapshotStats()
	if stats.Misses > 4 { // warmup schedules + one burst schedule
		t.Fatalf("burst should cost one evaluation, cache stats %+v", stats)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, nil)
	var hz healthzResponse
	if code, _ := post(t, s, "GET", "/healthz", "", &hz); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if hz.Status != "ok" || hz.Mode != "serve" || hz.QueueCapacity != 8 {
		t.Fatalf("healthz payload %+v", hz)
	}

	if code, rec := post(t, s, "POST", "/v1/eval", evalBody, nil); code != 200 {
		t.Fatalf("eval: %d %s", code, rec.Body.String())
	}
	var snap obs.Snapshot
	if code, _ := post(t, s, "GET", "/v1/metrics", "", &snap); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if snap.Counters["serve.eval.requests"] < 1 || snap.Counters["serve.eval.ok"] < 1 {
		t.Fatalf("metrics missing serve counters: %+v", snap.Counters)
	}
	if _, ok := snap.Gauges["search.evalcache.entries"]; !ok {
		t.Fatalf("metrics missing cache gauges: %+v", snap.Gauges)
	}

	// Marshal-twice determinism over the live endpoint.
	_, rec1 := post(t, s, "GET", "/v1/metrics", "", nil)
	_, rec2 := post(t, s, "GET", "/v1/metrics", "", nil)
	if rec1.Body.String() != rec2.Body.String() {
		t.Fatalf("metrics endpoint is not deterministic between identical scrapes")
	}
}

func TestSlackEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{
		"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]},
		"target": {"width": 4},
		"schedule": {"kind": "antidiagonal"}
	}`
	var resp SlackResponse
	if code, rec := post(t, s, "GET", "/v1/slack", body, &resp); code != 200 {
		t.Fatalf("slack: %d %s", code, rec.Body.String())
	}
	if resp.Summary.Edges == 0 || len(resp.Edges) != resp.Summary.Edges {
		t.Fatalf("slack response %+v with %d edges", resp.Summary, len(resp.Edges))
	}
	if resp.Summary.Negative != 0 {
		t.Fatalf("legal schedule reported %d violated edges", resp.Summary.Negative)
	}
}

func TestAdmissionEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	var got map[string]string
	if code, rec := post(t, s, "POST", "/v1/admission", `{"mode": "shed"}`, &got); code != 200 {
		t.Fatalf("admission: %d %s", code, rec.Body.String())
	}
	if got["mode"] != "shed" || s.Mode() != ModeShed {
		t.Fatalf("mode switch failed: %v, server %v", got, s.Mode())
	}
	if code, _ := post(t, s, "POST", "/v1/admission", `{"mode": "sideways"}`, nil); code != 422 {
		t.Fatalf("bad mode: want 422, got %d", code)
	}

	locked := newTestServer(t, func(c *Config) { c.AdmissionControl = false })
	if code, _ := post(t, locked, "POST", "/v1/admission", `{"mode": "shed"}`, nil); code != 403 {
		t.Fatalf("disabled admission control: want 403, got %d", code)
	}
}

// TestMalformedDeadlineHeader: a garbage X-Deadline-Ms is a client
// error answered 400 — never silently served under the default deadline
// (Sscanf-style prefix parsing once accepted "100abc" as 100).
func TestMalformedDeadlineHeader(t *testing.T) {
	s := newTestServer(t, nil)
	for _, path := range []string{"/v1/eval", "/v1/search"} {
		body := evalBody
		if path == "/v1/search" {
			body = searchBody
		}
		for _, h := range []string{"abc", "100abc", "-5", "0", " 100", "1e3"} {
			req := httptest.NewRequest("POST", path, strings.NewReader(body))
			req.Header.Set("X-Deadline-Ms", h)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != 400 {
				t.Errorf("%s with X-Deadline-Ms %q: want 400, got %d %s", path, h, rec.Code, rec.Body.String())
			}
		}
	}
	// A well-formed header is honored, not rejected.
	req := httptest.NewRequest("POST", "/v1/eval", strings.NewReader(evalBody))
	req.Header.Set("X-Deadline-Ms", "30000")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("well-formed X-Deadline-Ms: want 200, got %d %s", rec.Code, rec.Body.String())
	}
}

// TestDrainFinishesQueuedWork pins the shutdown contract: jobs admitted
// before Drain are answered, not dropped — even jobs parked behind a
// paused queue, because drain outranks pause.
func TestDrainFinishesQueuedWork(t *testing.T) {
	s := newTestServer(t, nil)
	var warm EvalResponse
	if code, _ := post(t, s, "POST", "/v1/eval", evalBody, &warm); code != 200 {
		t.Fatalf("warmup failed")
	}
	s.SetMode(ModePause)

	const n = 3
	body := fmt.Sprintf(`{"graph_fp": %q, "target": {"width": 4}, "schedules": [{"kind": "antidiagonal", "stride": 9}]}`, warm.GraphFP)
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = post(t, s, "POST", "/v1/eval", body, nil)
		}(i)
	}
	waitUntil(t, func() bool { return s.queue.depth() == n })

	ctx, cancel := contextWithTestDeadline(t)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, code := range codes {
		if code != 200 {
			t.Fatalf("queued request %d answered %d during drain, want 200", i, code)
		}
	}

	// After drain: health reports draining with 503, new work is refused.
	if code, _ := post(t, s, "GET", "/healthz", "", nil); code != 503 {
		t.Fatalf("healthz after drain: want 503, got %d", code)
	}
	if code, _ := post(t, s, "POST", "/v1/eval", evalBody, nil); code != 503 {
		t.Fatalf("eval after drain: want 503, got %d", code)
	}

	snap := s.Close()
	if snap.Counters["serve.eval.ok"] < n {
		t.Fatalf("final snapshot lost the drained work: %+v", snap.Counters)
	}
}
