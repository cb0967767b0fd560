package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// slices is the number of equal-count, completion-ordered slices the
// estimators work on. Each reported timing is the interquartile mean of
// the ten slice values: dropping the two best and two worst slices keeps a
// stall or a lucky second out of the number, and averaging the middle six
// (where a median would pick one) keeps the number from jumping when the
// sandbox switches between its fast and its slow state in mid-run.
const slices = 10

// sample is one completed operation: when it completed (ns since the
// workload's time origin) and how long it took. For the open-loop workload
// the latency runs from the tick's due time, not from the send.
type sample struct {
	done int64
	lat  int64
}

// timing is the estimator output for one timed region: the interquartile
// means of the slices' rates, medians, p90s, p95s and p99s (latencies in
// ms).
type timing struct {
	n      int // samples
	perSec float64
	p50ms  float64
	p90ms  float64
	p95ms  float64
	p99ms  float64
}

// percentile returns the p-th percentile (nearest rank) of sorted values.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianInt(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return medianFloat(f)
}

// iqm is the interquartile mean: the mean of what is left after dropping
// the lowest and the highest quarter (rounded down) of the values.
func iqm(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	drop := len(s) / 4
	s = s[drop : len(s)-drop]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// summarize orders the samples by completion and applies the estimators,
// once to the raw slice values and once to the slice values normalized by
// the machine's speed during that slice (see speed.go). start is the
// beginning of the timed region on the samples' clock, so the first slice
// has a defined duration. speed is the index over the whole region.
func summarize(samples, readings []sample, start int64) (norm, raw timing, speed float64) {
	norm.n, raw.n = len(samples), len(samples)
	if len(samples) == 0 {
		return norm, raw, 0
	}
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].done < s[j].done })
	speed = speedIndex(readings, start, s[len(s)-1].done+1)
	if speed == 0 {
		speed = 1 // no reading at all: report raw values as they are
	}
	k := slices
	if len(s) < k {
		k = len(s)
	}
	var cols [2][5][]float64 // [raw, norm][rate, p50, p90, p95, p99]
	prev := start
	for i := 0; i < k; i++ {
		lo, hi := i*len(s)/k, (i+1)*len(s)/k
		part := s[lo:hi]
		end := part[len(part)-1].done
		idx := speedIndex(readings, prev, end+1)
		if idx == 0 {
			idx = speed
		}
		lats := make([]int64, len(part))
		for j, x := range part {
			lats[j] = x.lat
		}
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		if end > prev {
			rate := float64(len(part)) / (float64(end-prev) / 1e9)
			cols[0][0] = append(cols[0][0], rate)
			cols[1][0] = append(cols[1][0], rate*idx)
		}
		for c, p := range []float64{50, 90, 95, 99} {
			v := float64(percentile(lats, p)) / 1e6
			cols[0][c+1] = append(cols[0][c+1], v)
			cols[1][c+1] = append(cols[1][c+1], v/idx)
		}
		prev = end
	}
	for i, t := range []*timing{&raw, &norm} {
		t.perSec, t.p50ms, t.p90ms = iqm(cols[i][0]), iqm(cols[i][1]), iqm(cols[i][2])
		t.p95ms, t.p99ms = iqm(cols[i][3]), iqm(cols[i][4])
	}
	return norm, raw, speed
}

// procSnap is the process-wide resource reading taken at both ends of a
// timed region.
type procSnap struct {
	at  time.Time
	cpu time.Duration // getrusage user+sys of the whole process
	mem runtime.MemStats
}

func snapProc() procSnap {
	var p procSnap
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	p.at = time.Now()
	return p
}

// procDelta is what the process spent between two snapshots.
type procDelta struct {
	cpu      time.Duration
	allocKB  float64
	gcCycles float64
	gcPause  time.Duration
	peakHeap float64 // MB, HeapSys high-water mark at the end snapshot
}

func (a procSnap) until(b procSnap) procDelta {
	return procDelta{
		cpu:      b.cpu - a.cpu,
		allocKB:  float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / 1024,
		gcCycles: float64(b.mem.NumGC - a.mem.NumGC),
		gcPause:  time.Duration(b.mem.PauseTotalNs - a.mem.PauseTotalNs),
		peakHeap: float64(b.mem.HeapSys) / (1 << 20),
	}
}

// measure calls f in batches of batch calls until budget has elapsed (at
// least three batches) and returns the median time of one call in
// nanoseconds. Batching keeps the two clock reads out of sub-microsecond
// operations.
func measure(budget time.Duration, batch int, f func()) float64 {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return medianFloat(per)
}

// measureDiff times a and b alternately until budget has elapsed and
// returns the median of a's time minus b's, in nanoseconds. Pairing the
// two keeps a drifting machine out of their difference.
func measureDiff(budget time.Duration, a, b func()) float64 {
	var diff []float64
	deadline := time.Now().Add(budget)
	for len(diff) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		a()
		t1 := time.Now()
		b()
		diff = append(diff, float64(t1.Sub(t0)-time.Since(t1)))
	}
	return medianFloat(diff)
}

// allocsPer reports heap allocations and bytes per call of f, from
// runtime.MemStats deltas over n calls on the calling goroutine.
func allocsPer(n int, f func()) (allocs, bytes float64) {
	f() // warm
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}
