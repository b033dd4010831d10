// Forwarding with failover and hedging. One client request becomes one
// or more shard attempts:
//
//   - the first candidate is tried immediately;
//   - a transport error or 5xx marks the shard down and launches the
//     next candidate (failover — the client never sees a replica's
//     death while any replica lives);
//   - if the first attempt outlives the hedge delay, the next candidate
//     is launched CONCURRENTLY (hedge) and the first answer wins; the
//     loser's request context is cancelled, so abandoned work dies at
//     the shard's next context check instead of running to completion.
//
// 4xx answers pass through without failover: they are deterministic
// verdicts about the request, not about the shard, and retrying them
// elsewhere would just duplicate the refusal.
//
// The hedge delay rides the Clock seam: fixed (HedgeDelay), or derived
// from the observed forward-latency quantile. Under a clock.Fake the
// hedge fires exactly when a test advances past the delay — and never
// fires under the frozen clock the byte-reproducibility drills run.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"
)

// attemptResult is one shard attempt's outcome.
type attemptResult struct {
	shard  int
	status int
	header http.Header
	body   []byte
	err    error
	hedged bool
}

// forwardOptions parameterizes one forward.
type forwardOptions struct {
	// cands is the try-order (healthy replicas by rank, then down-marked
	// ones); must be non-empty.
	cands []int
	// traceID, when non-empty, is stamped on shard requests as
	// X-Cluster-Trace-Id so shard traces link back to the router span.
	traceID string
	// hedge arms the hedge timer for the first attempt.
	hedge bool
	// deadline is the client's X-Deadline-Ms header, relayed verbatim.
	deadline string
}

// maxShardResponse bounds a relayed shard response body.
const maxShardResponse = 8 << 20

// failed reports whether an attempt must trigger failover: transport
// error, or a 5xx verdict (a draining or dying shard, not a bad
// request).
func (a attemptResult) failed() bool {
	return a.err != nil || a.status >= 500
}

func failureReason(a attemptResult) string {
	if a.err != nil {
		return "unreachable"
	}
	return http.StatusText(a.status)
}

// forward runs the attempt state machine and returns the winning
// answer, or ok=false when every candidate failed. The caller owns
// interpretation (a shard's 4xx is a winning answer here).
func (rt *Router) forward(ctx context.Context, path string, body []byte, o forwardOptions) (attemptResult, bool) {
	results := make(chan attemptResult, len(o.cands))
	actx, cancelAll := context.WithCancel(ctx)
	// Cancelling the winner's siblings — and, on every exit path, any
	// stragglers — is what keeps hedged losers from leaking goroutines.
	defer cancelAll()

	launched, inflight := 0, 0
	launch := func(hedged bool) {
		shard := o.cands[launched]
		launched++
		inflight++
		go rt.attempt(actx, shard, path, body, o, hedged, results)
	}
	launch(false)

	var hedgeC <-chan time.Time
	if o.hedge && len(o.cands) > 1 {
		if d, ok := rt.hedgeDelay(); ok {
			c, stop := rt.clock.Timer(d)
			defer stop()
			hedgeC = c
		}
	}

	for {
		select {
		case res := <-results:
			inflight--
			if !res.failed() {
				return res, true
			}
			rt.health.markDown(res.shard, failureReason(res))
			if launched < len(o.cands) {
				launch(false)
			} else if inflight == 0 {
				// Every candidate tried and failed: exhaustion, the
				// caller's 502.
				return attemptResult{}, false
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(o.cands) {
				rt.mHedgesFired.Inc()
				launch(true)
			}
		case <-ctx.Done():
			// Client gone (or its deadline passed): stop forwarding. The
			// deferred cancel reaps in-flight attempts.
			return attemptResult{}, false
		}
	}
}

// hedgeDelay resolves the configured hedge trigger: fixed when set,
// otherwise the observed latency quantile floored at HedgeMin, falling
// back to the floor while the window is cold. (ok=false disables.)
func (rt *Router) hedgeDelay() (time.Duration, bool) {
	if rt.cfg.HedgeDelay < 0 {
		return 0, false
	}
	if rt.cfg.HedgeDelay > 0 {
		return rt.cfg.HedgeDelay, true
	}
	d, warm := rt.lat.quantile(rt.cfg.HedgeQuantile)
	if !warm || d < rt.cfg.HedgeMin {
		return rt.cfg.HedgeMin, true
	}
	return d, true
}

// attempt issues one shard request and delivers its outcome. The results
// channel is buffered to len(cands), so delivery never blocks and an
// abandoned attempt's goroutine always exits.
func (rt *Router) attempt(ctx context.Context, shard int, path string, body []byte, o forwardOptions, hedged bool, results chan<- attemptResult) {
	start := rt.clock.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rt.cfg.Shards[shard]+path, bytes.NewReader(body))
	if err != nil {
		results <- attemptResult{shard: shard, err: err, hedged: hedged}
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if o.traceID != "" {
		req.Header.Set("X-Cluster-Trace-Id", o.traceID)
	}
	if o.deadline != "" {
		req.Header.Set("X-Deadline-Ms", o.deadline)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		results <- attemptResult{shard: shard, err: err, hedged: hedged}
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse))
	if err != nil {
		results <- attemptResult{shard: shard, err: err, hedged: hedged}
		return
	}
	rt.lat.observe(rt.clock.Now().Sub(start))
	rt.mForwardLatency.Observe(rt.clock.Now().Sub(start))
	results <- attemptResult{
		shard:  shard,
		status: resp.StatusCode,
		header: resp.Header.Clone(),
		body:   b,
		hedged: hedged,
	}
}

// writeJSON marshals v; encoding is deterministic (struct field order).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
