package main

import (
	"encoding/json"
	"math"
	"time"
)

// This sandbox's CPU changes speed by up to 1.7x from one minute to the
// next (other tenants on the same cores), and every timing follows it: ten
// runs of one workload spread by 25-33 % in a bad hour. So each run also
// times a fixed reference kernel, in short bursts between operations, and
// reports its timings as they would read on a machine where that kernel
// takes refNominal: measured time x refNominal / measured kernel time. The
// kernel is the benchmark's own code and calls nothing under internal/, so
// a change to the system cannot move it; the raw readings and the speed
// index are printed beside the normalized ones.
const (
	// refNominal defines the reference machine: one kernel takes this long.
	refNominal = 40 * time.Microsecond
	// refBurst kernels make one reading; a reading is taken when refGap has
	// passed since the last one, which keeps the kernel under 2 % of a
	// generator's time.
	refBurst = 16
	refGap   = 50 * time.Millisecond
)

// refBody is the JSON the kernel decodes and re-encodes: one D=12 frame.
var refBody = []byte(`{"frames":[[0.5312,0.25,0,0.2187,0.4375,0.3125,0.75,0.125,0.0625,0.9,0.33,0.1]]}`)

// refMeter is one goroutine's reference clock.
type refMeter struct {
	w        [64 * 64]float64
	x, y     [64]float64
	ready    bool
	last     time.Time
	readings []sample // done: when (ns since the run's origin), lat: ns per kernel
}

// kernel is the reference unit of work, shaped like what the system does
// per request: dense multiply-adds through a squashing function, and a
// small JSON decode and encode.
func (m *refMeter) kernel() {
	if !m.ready {
		for i := range m.w {
			m.w[i] = float64(i%17)/17 - 0.5
		}
		m.ready = true
	}
	for i := range m.x {
		m.x[i] = float64(i%5) / 5
	}
	for rep := 0; rep < 6; rep++ {
		for i := 0; i < 64; i++ {
			var acc float64
			for j, v := range m.w[i*64 : i*64+64] {
				acc += v * m.x[j]
			}
			m.y[i] = math.Tanh(acc)
		}
		m.x, m.y = m.y, m.x
	}
	var fr struct {
		Frames [][]float64 `json:"frames"`
	}
	if json.Unmarshal(refBody, &fr) == nil {
		json.Marshal(fr) //nolint:errcheck // the work is the point, not the bytes
	}
}

// read takes one reading now.
func (m *refMeter) read(origin time.Time) {
	t0 := time.Now()
	for i := 0; i < refBurst; i++ {
		m.kernel()
	}
	m.last = time.Now()
	m.readings = append(m.readings, sample{done: int64(m.last.Sub(origin)), lat: int64(m.last.Sub(t0)) / refBurst})
}

// tick takes a reading if one is due.
func (m *refMeter) tick(origin time.Time) {
	if time.Since(m.last) >= refGap {
		m.read(origin)
	}
}

// speedIndex is how slow the machine was over [from, to) on the readings'
// clock, relative to the reference machine: the median reading over
// refNominal. It returns 0 when no reading falls in the interval.
func speedIndex(readings []sample, from, to int64) float64 {
	var in []int64
	for _, r := range readings {
		if r.done >= from && r.done < to {
			in = append(in, r.lat)
		}
	}
	if len(in) == 0 {
		return 0
	}
	return medianInt(in) / float64(refNominal)
}
