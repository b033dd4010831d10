package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// endToEnd lists the end-to-end metrics in BENCHMARK.json's order.
var endToEnd = []string{"setup_s", "throughput_rps", "p50_ms", "p90_ms", "cpu_ms_per_req", "allocs_per_req", "alloc_kb_per_req", "peak_rss_mb"}

var stealLine = regexp.MustCompile(`host steal share (-?[0-9.]+)`)

// runSteady is the steadiness mode: it runs every workload n times as
// child processes, seeds base, base+1, ..., reversing the workload order
// on every other round, and prints each end-to-end metric's median,
// quartiles (as Python's statistics.quantiles gives them), min, max and
// interquartile spread as a share of the median. The bounds in
// BENCHMARK.json and the reference figures in README.md come from it.
func runSteady(o options, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if n < 2 {
		return fmt.Errorf("--steady needs at least 2 runs")
	}
	values := map[string]map[string][]float64{}
	steal := map[string][]float64{}
	failed := map[string]int{}
	for i := 0; i < n; i++ {
		order := slices.Clone(workloadNames)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		seed := o.seed + int64(i)
		for _, wl := range order {
			cmd := exec.Command(exe, "-root", o.root, "-workload", wl, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: answers failed their checks", wl, seed)
			}
			failed[wl] += res.Failed
			if values[wl] == nil {
				values[wl] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[wl][name] = append(values[wl][name], m.Value)
			}
			if mm := stealLine.FindSubmatch(out); mm != nil {
				if v, err := strconv.ParseFloat(string(mm[1]), 64); err == nil {
					steal[wl] = append(steal[wl], v)
				}
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d done\n", wl, seed)
		}
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "steadiness: %d runs per workload, seeds %d..%d, %d s windows, GOMAXPROCS=%d\n",
		n, o.seed, o.seed+int64(n-1), o.seconds, runtimeProcs())
	fmt.Fprintf(&buf, "%-10s %-17s %12s %12s %12s %12s %12s %8s\n", "workload", "metric", "median", "q1", "q3", "min", "max", "spread")
	for _, wl := range workloadNames {
		for _, name := range endToEnd {
			vs := values[wl][name]
			if len(vs) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			fmt.Fprintf(&buf, "%-10s %-17s %12.5g %12.5g %12.5g %12.5g %12.5g %7.2f%%\n",
				wl, name, q2, q1, q3, slices.Min(vs), slices.Max(vs), 100*(q3-q1)/q2)
		}
		fmt.Fprintf(&buf, "%-10s failed operations: %d; host steal share median %.3f\n", wl, failed[wl], median(steal[wl]))
	}
	fmt.Print(buf.String())
	return nil
}
