package main

import (
	"bufio"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencyHist records durations in a log-linear histogram: 64 linear
// sub-buckets per power of two, so any quantile is within ~1.6% of the
// exact order statistic, at a fixed 4096 counters however many samples
// arrive. It is not safe for concurrent use.
type latencyHist struct {
	counts [64 * 64]int64
	n      int64
}

func histBucket(ns int64) int {
	if ns < 64 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 7 // ns>>shift is in [64, 128)
	return 64 + shift*64 + int(uint64(ns)>>uint(shift)) - 64
}

func (h *latencyHist) observe(d time.Duration) {
	b := histBucket(int64(d))
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.n++
}

func (h *latencyHist) add(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileMs returns the q-quantile in milliseconds, interpolated
// linearly inside the bucket that holds the target rank.
func (h *latencyHist) quantileMs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := bucketRange(b)
			frac := (rank - seen) / float64(c)
			return (lo + frac*width) / 1e6
		}
		seen += float64(c)
	}
	lo, width := bucketRange(len(h.counts) - 1)
	return (lo + width) / 1e6
}

// bucketRange returns bucket b's lower bound and width in nanoseconds.
func bucketRange(b int) (lo, width float64) {
	if b < 64 {
		return float64(b), 1
	}
	shift := (b - 64) / 64
	mant := (b-64)%64 + 64
	return math.Ldexp(float64(mant), shift), math.Ldexp(1, shift)
}

// goCounters snapshots the runtime counters the per-layer "go" metrics
// are deltas of.
type goCounters struct {
	allocBytes, allocs uint64
	gcCycles           uint32
	gcCPU, totalCPU    float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	c := goCounters{allocBytes: ms.TotalAlloc, allocs: ms.Mallocs, gcCycles: ms.NumGC}
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = cpuSamples[0].Value.Float64()
		c.totalCPU = cpuSamples[1].Value.Float64()
	}
	return c
}

// add accumulates the change from before to after into c.
func (c *goCounters) add(before, after goCounters) {
	c.allocBytes += after.allocBytes - before.allocBytes
	c.allocs += after.allocs - before.allocs
	c.gcCycles += after.gcCycles - before.gcCycles
	c.gcCPU += after.gcCPU - before.gcCPU
	c.totalCPU += after.totalCPU - before.totalCPU
}

// setGoMetrics records the runtime cost d of timed phases that completed
// reqs requests.
func (r *result) setGoMetrics(d goCounters, reqs int64) {
	reqs = max(reqs, 1)
	r.set("go.alloc_bytes_per_req", float64(d.allocBytes)/float64(reqs))
	r.set("go.allocs_per_req", float64(d.allocs)/float64(reqs))
	r.set("go.gc_cycles", float64(d.gcCycles))
	gcFrac := 0.0
	if d.totalCPU > 0 {
		gcFrac = d.gcCPU / d.totalCPU
	}
	r.set("go.gc_cpu_frac", gcFrac)
}

// maxRSSMB is the process's peak resident set size in megabytes
// (VmHWM), or 0 where /proc is unavailable.
func maxRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// stopwatch times one pass after a collection, so garbage from earlier
// work is not charged to it.
func stopwatch(f func() error) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	err := f()
	return time.Since(start), err
}
