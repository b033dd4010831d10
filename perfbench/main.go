// Command perfbench is the repository's serving benchmark: it times
// mapd's serve.Server, configured as cmd/mapd's flag defaults configure
// it and backed by a seeded mapping atlas, behind a loopback net/http
// server driven closed-loop by two clients, on three workloads:
//
//	eval-hot   cached POST /v1/eval: serving overhead is the whole cost
//	eval-cold  POST /v1/eval of mappings new to the server: fm.Evaluate,
//	           the EvalBatch fan-out and the atlas append do the work
//	search     POST /v1/search anneals: the annealer does the work
//
// Every answer is checked after the window against fm priced apart from
// the server (see check.go). Usage, from the checkout root:
//
//	bash perfbench/run.sh --workload eval-hot --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 1
//	bash perfbench/run.sh --steady 10 --seconds 10
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

type options struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    int
}

func main() {
	var o options
	flag.StringVar(&o.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	flag.StringVar(&o.workload, "workload", "", "eval-hot | eval-cold | search")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same requests")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	steady := flag.Int("steady", 0, "steadiness mode: run every workload this many times and summarise")
	atlasDir := flag.String("build-atlas", "", "build the seeded atlas into this directory and exit (used by the benchmark itself)")
	flag.Parse()

	if *atlasDir != "" {
		if err := buildAtlas(*atlasDir, o.seed); err != nil {
			fatal(err)
		}
		return
	}
	if *steady > 0 {
		if err := runSteady(o, *steady); err != nil {
			fatal(err)
		}
		return
	}
	if !slices.Contains(workloadNames, o.workload) {
		fatal(fmt.Errorf("--workload must be one of %v", workloadNames))
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fatal(fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1"))
	}
	var res result
	var err error
	if o.trace == 1 {
		res, err = runTraced(o)
	} else {
		res, err = runPlain(o)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// workDir makes the run's scratch directory under .bench_build; the
// caller removes it when the run ends.
func workDir(o options) (string, error) {
	dir := filepath.Join(o.root, ".bench_build", "work",
		fmt.Sprintf("%s-seed%d-pid%d", o.workload, o.seed, os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

// setupReps is how many times a plain run recovers the atlas and starts
// the server; setup_s is their median.
const setupReps = 3

// runState carries what a run's phases share.
type runState struct {
	o      options
	ck     *checker
	corpus []*request // eval-hot only
	ops    map[string]*tally
	order  []string
}

func newRunState(o options) *runState {
	rs := &runState{o: o, ck: newChecker(), ops: map[string]*tally{}}
	if o.workload == wHot {
		rs.corpus = hotCorpus(o.seed)
	}
	return rs
}

func (rs *runState) tally(kind string) *tally {
	t, ok := rs.ops[kind]
	if !ok {
		t = &tally{}
		rs.ops[kind] = t
		rs.order = append(rs.order, kind)
	}
	return t
}

// totals prints the per-kind operation counts and folds them into the
// result's attempted/failed/correct.
func (rs *runState) totals(res *result) {
	res.Correct = true
	for _, kind := range rs.order {
		t := rs.ops[kind]
		fmt.Printf("ops %-11s attempted=%d failed=%d\n", kind, t.attempted, t.failed)
		if t.firstErr != nil {
			fmt.Printf("    first failure: %v\n", t.firstErr)
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		if t.wrong > 0 {
			res.Correct = false
		}
	}
}

// setUp recovers the atlas and starts the loopback server, then, for
// eval-hot, sends every corpus entry once (inline entries first), which
// moves each mapping from the atlas into the EvalCache.
func (rs *runState) setUp(atlas string) (*instance, time.Duration, error) {
	t0 := time.Now()
	in, err := startServer(atlas, true, true)
	rs.tally("recovery").add(err)
	if err != nil {
		return nil, 0, err
	}
	var warm []answer
	for _, req := range rs.corpus {
		status, body := in.post(req)
		warm = append(warm, answer{req: req, status: status, body: body, n: 1})
	}
	d := time.Since(t0)
	rs.tally("warm-pass").merge(checkAll(rs.ck, warm, func(*answer) bool { return false }))
	return in, d, nil
}

func (rs *runState) buildAtlas(dir string) error {
	err := spawnAtlasBuild(dir, rs.o.seed)
	t := rs.tally("atlas-build")
	t.attempted += atlasRecords
	if err != nil {
		t.failed += atlasRecords
		t.wrong += atlasRecords
		t.firstErr = err
	}
	return err
}

// window runs the timed closed loop on in and checks every reply.
func (rs *runState) window(in *instance) *windowStats {
	w := drive(in, streams(rs.o.workload, rs.o.seed), time.Duration(rs.o.seconds)*time.Second)
	kind := "eval"
	if rs.o.workload == wSearch {
		kind = "search"
	}
	rs.tally(kind).merge(checkAll(rs.ck, w.answers, rerunSample(rs.o.seed)))
	return w
}

// runPlain is the untraced run: atlas, setupReps timed set-ups, one
// window, checks; it reports the end-to-end metrics.
func runPlain(o options) (result, error) {
	res := result{Metrics: map[string]metric{}}
	dir, err := workDir(o)
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	rs := newRunState(o)
	atlas := filepath.Join(dir, "atlas")
	if err := rs.buildAtlas(atlas); err != nil {
		return res, err
	}
	var setups []float64
	var in *instance
	for i := 0; i < setupReps; i++ {
		var d time.Duration
		in, d, err = rs.setUp(atlas)
		if err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			if err := in.stop(); err != nil {
				return res, err
			}
		}
	}
	w := rs.window(in)
	if err := in.stop(); err != nil {
		return res, err
	}

	n := float64(w.completed())
	fmt.Printf("perfbench %s seed=%d: %v, 2 closed-loop clients, GOMAXPROCS=%d, host steal share %.3f\n",
		o.workload, o.seed, w, runtimeProcs(), stealShare(w.before, w.after))
	if p, ok := tailPercentile(len(w.lat)); ok {
		beyond := int(float64(len(w.lat)) * (1 - p/100))
		fmt.Printf("tail p%g = %.4f ms (%d samples, %d beyond it)\n", p, percentile(w.lat, p), len(w.lat), beyond)
	}
	fmt.Printf("set-ups (s): %.4f\n", setups)
	rs.totals(&res)
	add := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	add("setup_s", "s", median(setups))
	rps, cpuMS := w.sliceMedians()
	add("throughput_rps", "req/s", rps)
	add("p50_ms", "ms", percentile(w.lat, 50))
	add("p90_ms", "ms", percentile(w.lat, 90))
	add("cpu_ms_per_req", "ms", cpuMS)
	add("allocs_per_req", "count", float64(w.after.mallocs-w.before.mallocs)/n)
	add("alloc_kb_per_req", "KB", float64(w.after.allocB-w.before.allocB)/1024/n)
	add("peak_rss_mb", "MB", peakRSSMB())
	return res, nil
}
