package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// answer is one recorded reply. Identical replies to the same eval-hot
// corpus entry are folded into one answer with a repeat count, so the
// window keeps no more than one body per distinct reply.
type answer struct {
	req    *request
	status int
	body   []byte
	n      int
	// client and seq place the answer in its client's stream, which
	// seeds the sample of searches that are re-run.
	client, seq int
}

// post sends one request over the instance's keep-alive client. A
// transport failure is reported as status 0 with the error as body.
func (in *instance) post(req *request) (int, []byte) {
	hr, err := http.NewRequest(http.MethodPost, in.base+req.route, bytes.NewReader(req.body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := in.client.Do(hr)
	if err != nil {
		return 0, []byte(err.Error())
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, body
}

// clientLog is what one closed-loop client records in the window.
type clientLog struct {
	lat     []float64 // ms
	done    []time.Time
	answers []answer
	byEntry map[int]int // eval-hot entry → index in answers of its first reply
}

func (cl *clientLog) record(req *request, client, seq, status int, body []byte) {
	if req.entry >= 0 {
		if i, ok := cl.byEntry[req.entry]; ok {
			a := &cl.answers[i]
			if a.status == status && bytes.Equal(a.body, body) {
				a.n++
				return
			}
		} else {
			cl.byEntry[req.entry] = len(cl.answers)
		}
	}
	cl.answers = append(cl.answers, answer{req: req, status: status, body: body, n: 1, client: client, seq: seq})
}

// windowStats is one timed window.
type windowStats struct {
	lat     []float64
	answers []answer
	cuts    []cut
	before  probe
	after   probe
}

func (w *windowStats) completed() int { return len(w.lat) }

func (w *windowStats) elapsed() time.Duration { return w.after.at.Sub(w.before.at) }

// drive runs the closed loop: each client sends its stream's next
// request as soon as its previous reply is read, until the window ends.
// Requests in flight at the end finish and count; the window's length is
// measured to the last reply.
func drive(in *instance, ss []stream, window time.Duration) *windowStats {
	logs := make([]clientLog, len(ss))
	var wg sync.WaitGroup
	start := make(chan struct{})
	var deadline time.Time
	for c := range ss {
		logs[c] = clientLog{lat: make([]float64, 0, 1<<16), done: make([]time.Time, 0, 1<<16), byEntry: map[int]int{}}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &logs[c]
			<-start
			for seq := 0; time.Now().Before(deadline); seq++ {
				req := ss[c]()
				t0 := time.Now()
				status, body := in.post(req)
				end := time.Now()
				cl.lat = append(cl.lat, float64(end.Sub(t0))/float64(time.Millisecond))
				cl.done = append(cl.done, end)
				cl.record(req, c, seq, status, body)
			}
		}(c)
	}
	runtime.GC()
	w := &windowStats{before: takeProbe()}
	deadline = w.before.at.Add(window)
	close(start)
	w.cuts = append(w.cuts, cut{at: w.before.at, cpu: w.before.cpu})
	for k := 1; k < windowParts; k++ {
		time.Sleep(time.Until(w.before.at.Add(window * time.Duration(k) / windowParts)))
		w.cuts = append(w.cuts, cut{at: time.Now(), cpu: cpuTime()})
	}
	wg.Wait()
	w.after = takeProbe()
	w.cuts = append(w.cuts, cut{at: w.after.at, cpu: w.after.cpu})
	var done []time.Time
	for _, cl := range logs {
		w.lat = append(w.lat, cl.lat...)
		done = append(done, cl.done...)
		w.answers = append(w.answers, cl.answers...)
	}
	for _, t := range done {
		for i := 1; i < len(w.cuts); i++ {
			if !t.After(w.cuts[i].at) || i == len(w.cuts)-1 {
				w.cuts[i].replies++
				break
			}
		}
	}
	return w
}

// windowParts is how many equal parts of the window throughput and CPU per
// request are taken over; each reports the median part, so a stall of
// the host that covers less than half the window does not move them.
const windowParts = 5

// cut closes one part of the window: the replies that ended in it and
// the process CPU time at its end.
type cut struct {
	at      time.Time
	cpu     time.Duration
	replies int
}

// sliceMedians returns the median over the window's parts of replies
// per second and of CPU milliseconds per reply.
func (w *windowStats) sliceMedians() (rps, cpuMS float64) {
	var r, c []float64
	for i := 1; i < len(w.cuts); i++ {
		a, b := w.cuts[i-1], w.cuts[i]
		if b.replies == 0 {
			continue
		}
		r = append(r, float64(b.replies)/b.at.Sub(a.at).Seconds())
		c = append(c, float64(b.cpu-a.cpu)/float64(time.Millisecond)/float64(b.replies))
	}
	return median(r), median(c)
}

// checkAll checks answers on every core; rerun picks the searches that
// are re-run with search.AnnealResumable.
func checkAll(ck *checker, answers []answer, rerun func(a *answer) bool) tally {
	workers := runtime.GOMAXPROCS(0)
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(answers); i += workers {
				a := &answers[i]
				tallies[wk].addN(ck.check(a.req, a.status, a.body, rerun(a)), a.n)
			}
		}(wk)
	}
	wg.Wait()
	var t tally
	for _, tw := range tallies {
		t.merge(tw)
	}
	return t
}

// rerunSample selects about one search in eight per client, seeded,
// always including each client's first.
func rerunSample(seed int64) func(a *answer) bool {
	return func(a *answer) bool {
		if a.req.search == nil {
			return false
		}
		h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(a.client)<<32 ^ uint64(a.seq)
		h ^= h >> 31
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
		return a.seq == 0 || h%8 == 0
	}
}

func (w *windowStats) String() string {
	return fmt.Sprintf("%d replies in %.2fs", w.completed(), w.elapsed().Seconds())
}
