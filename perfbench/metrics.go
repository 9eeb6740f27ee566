package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// tailLadder is the percentile ladder tailPercentile picks from.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten samples beyond it among n samples, or 0 when even the
// median has fewer than ten above it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quantile returns the p-th percentile of sorted by the nearest-rank
// method.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of vs (mean of the two middles when even).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencies collects one class of per-call timings, each with the
// offset from the start of the timed window at which the call completed.
type latencies struct {
	us []float64
	at []float32 // seconds into the window
}

func (l *latencies) add(d time.Duration) { l.addAt(d, 0) }

func (l *latencies) addAt(d, at time.Duration) {
	l.us = append(l.us, float64(d)/1e3)
	l.at = append(l.at, float32(at.Seconds()))
}

func (l *latencies) merge(o *latencies) {
	l.us = append(l.us, o.us...)
	l.at = append(l.at, o.at...)
}

// windowStats summarizes a timed window second by second and reports
// the median second, so that a stall or a burst of neighbour load in one
// second moves the figures by at most one rank: the throughput counts
// every call in counted, the percentiles use the calls in timed.
type windowStats struct {
	opsPerS, p50, p90, p99 float64
}

func secondly(window time.Duration, counted, timed []*latencies) windowStats {
	secs := int(window / time.Second)
	if secs < 1 {
		secs = 1
	}
	count := make([]float64, secs)
	for _, l := range counted {
		for _, at := range l.at {
			if k := int(at); k >= 0 && k < secs {
				count[k]++
			}
		}
	}
	lat := make([][]float64, secs)
	for _, l := range timed {
		for i, at := range l.at {
			if k := int(at); k >= 0 && k < secs {
				lat[k] = append(lat[k], l.us[i])
			}
		}
	}
	var p50s, p90s, p99s []float64
	for _, v := range lat {
		sort.Float64s(v)
		p50s = append(p50s, quantile(v, 50))
		p90s = append(p90s, quantile(v, 90))
		p99s = append(p99s, quantile(v, 99))
	}
	return windowStats{opsPerS: median(count), p50: median(p50s), p90: median(p90s), p99: median(p99s)}
}

// summary is the sorted view of a latency class.
type summary struct {
	N      int
	Mean   float64
	sorted []float64
}

func (l *latencies) summarize() summary {
	s := summary{N: len(l.us), sorted: append([]float64(nil), l.us...)}
	sort.Float64s(s.sorted)
	var sum float64
	for _, v := range s.sorted {
		sum += v
	}
	if s.N > 0 {
		s.Mean = sum / float64(s.N)
	}
	return s
}

func (s summary) p(p float64) float64 { return quantile(s.sorted, p) }

// describe formats the median and the rule's tail percentile with the
// sample count.
func (s summary) describe() string {
	tp := tailPercentile(s.N)
	if tp == 0 {
		return fmt.Sprintf("n=%d (too few samples for a percentile)", s.N)
	}
	return fmt.Sprintf("p50=%.1fus p%g=%.1fus n=%d", s.p(50), tp, s.p(tp), s.N)
}

// procUsage is a point-in-time reading of the process's CPU and memory
// counters.
type procUsage struct {
	cpu       time.Duration
	mallocs   uint64
	allocB    uint64
	gcCPU     float64
	totalCPU  float64
	maxRSSKiB int64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() procUsage {
	var u procUsage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSSKiB = ru.Maxrss
	}
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	u.mallocs = sampleUint(s[0])
	u.allocB = sampleUint(s[1])
	u.gcCPU = sampleFloat(s[2])
	u.totalCPU = sampleFloat(s[3])
	return u
}

func sampleUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func sampleFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// runtimeCosts turns two usage readings around a window of ops
// operations into the runtime.* per-layer metrics.
func runtimeCosts(a, b procUsage, ops int64, out map[string]float64) {
	if ops <= 0 {
		ops = 1
	}
	out["runtime.cpu_us_per_op"] = float64(b.cpu-a.cpu) / 1e3 / float64(ops)
	out["runtime.allocs_per_op"] = float64(b.mallocs-a.mallocs) / float64(ops)
	out["runtime.alloc_bytes_per_op"] = float64(b.allocB-a.allocB) / float64(ops)
	if d := b.totalCPU - a.totalCPU; d > 0 {
		out["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	}
}

// peakRSSMB reads the process's peak resident set size so far. Runs read
// it after a fixed amount of work (set-up and warm-up, or gossip's
// scored rounds), not after the timed window: the window's length in
// calls, and the benchmark's own per-call records, grow with
// throughput, and a faster program must not read as a bigger one.
func peakRSSMB() float64 {
	return float64(readUsage().maxRSSKiB) / 1024
}

// settle collects garbage between set-ups so one instance's leftovers do
// not inflate the next one's timings or the peak RSS.
func settle() {
	runtime.GC()
	runtime.GC()
}

// repeatSetup builds an instance n times and keeps the last one. Each
// earlier instance goes to retire, which must close it, before the next
// build starts. It returns the last instance and every build's time in
// seconds.
func repeatSetup[T any](n int, build func() (T, error), retire func(T)) (T, []float64, error) {
	var last T
	var times []float64
	for k := 0; k < n; k++ {
		if k > 0 {
			retire(last)
			settle()
		}
		start := time.Now()
		var err error
		if last, err = build(); err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return last, times, nil
}
