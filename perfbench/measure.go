package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// quartiles returns Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the steadiness mode reads the spread the same
// way it is judged. Needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld, m := len(d), len(d)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	rank := int(math.Ceil(p / 100 * float64(len(d))))
	return d[clip(rank, 1, len(d))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the highest of p75, p90, p99, p99.9, ... that
// still has at least ten of n samples beyond it; ok is false with fewer
// than forty samples, where no percentile above the median is a tail.
func tailPercentile(n int) (p float64, ok bool) {
	if n < 40 {
		return 0, false
	}
	p = 75
	for q := 90.0; float64(n)*(1-q/100) >= 10; q = 100 - (100-q)/10 {
		p = q
	}
	return p, true
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTicks reads the machine-wide steal and total jiffies from
// /proc/stat; ok is false where the file is missing.
func cpuTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9, 10) are already in user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// probe is a point-in-time reading of the process counters a window's
// metrics are differences of.
type probe struct {
	at              time.Time
	cpu             time.Duration
	mallocs, allocB uint64
	gcCPU, totalCPU float64
	steal, ticks    uint64
	ticksOK         bool
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeProbe() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcSamples)
	p := probe{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, allocB: ms.TotalAlloc}
	if gcSamples[0].Value.Kind() == metrics.KindFloat64 && gcSamples[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU, p.totalCPU = gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()
	}
	p.steal, p.ticks, p.ticksOK = cpuTicks()
	return p
}

// stealShare is the host's steal share of CPU ticks between two probes;
// -1 when /proc/stat is unreadable.
func stealShare(a, b probe) float64 {
	if !a.ticksOK || !b.ticksOK || b.ticks <= a.ticks {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.ticks-a.ticks)
}

func gcShare(a, b probe) float64 {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}

// getMetrics GETs /v1/metrics from a serve handler in memory.
func getMetrics(h http.Handler) (obs.Snapshot, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var snap obs.Snapshot
	if rec.Code != http.StatusOK {
		return snap, fmt.Errorf("GET /v1/metrics: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		return snap, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	return snap, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runtimeProcs() int { return runtime.GOMAXPROCS(0) }
