// Package drift implements the extension the paper's conclusion (§VIII)
// names as future work: detecting and adapting to changes in the event
// occurrence distribution over time. The conformal guarantees of
// C-CLASSIFY and C-REGRESS hold only while new data stays exchangeable
// with the calibration set; when the world shifts (a camera is moved, the
// arrival process changes), realized coverage silently degrades.
//
// The monitor watches the stream of realized outcomes (was the true event kept
// by the conformal layer?) over a sliding window and raises an alarm when
// the empirical miss rate exceeds the nominal rate 1-c by more than a
// Hoeffding-style slack — i.e. when the observed violation is too large to
// be explained by sampling noise at the chosen alarm significance.
// Recalibrator maintains a rolling buffer of recent labeled records from
// which a fresh conformal calibration can be cut once the alarm fires.
// Loop is the adaptation state machine built from the two — episodes,
// fresh outcomes, audits — that the server runs per session and the scenario
// engine's drift tasks walk.
package drift

import (
	"fmt"
	"math"
)

// monitor is a sliding-window coverage monitor. The zero value is not
// usable; see newMonitor.
type monitor struct {
	target   float64 // nominal coverage c
	window   int
	delta    float64 // alarm significance
	outcomes []bool  // ring buffer: true = covered (event kept)
	head     int
	filled   int
	misses   int
	episodes int  // lifetime alarm episodes (edge-triggered)
	alarming bool // an episode is open (see Observe)
	observed int
}

// newMonitor watches coverage against the nominal level c over a sliding
// window of n outcomes, raising alarms at significance delta (smaller
// delta = fewer false alarms, slower detection).
func newMonitor(c float64, n int, delta float64) (*monitor, error) {
	if c <= 0 || c >= 1 {
		return nil, fmt.Errorf("drift: coverage target %v must be in (0,1)", c)
	}
	return &monitor{target: c, window: n, delta: delta, outcomes: make([]bool, n)}, nil
}

// Observe records one realized outcome — covered reports whether the
// conformal layer kept the true event (or the true boundary fell inside
// the relayed interval). It returns true while the window's miss rate is
// significantly above the nominal 1-c ("currently alarming", a level, not
// an edge: a sustained shift keeps returning true on every observation).
//
// Alarm *episodes* are accounted edge-triggered: the lifetime counter
// reported by Stats increments once when the window first crosses the
// threshold, and the episode ends when the window drops back below it or
// on Reset. One sustained shift is one episode, no matter how many
// observations it spans — so an operator (or Loop) can key recalibration
// off distinct episodes instead of being retriggered every frame.
func (m *monitor) Observe(covered bool) bool {
	if m.filled == m.window {
		if !m.outcomes[m.head] {
			m.misses--
		}
	} else {
		m.filled++
	}
	m.outcomes[m.head] = covered
	if !covered {
		m.misses++
	}
	m.head = (m.head + 1) % m.window
	m.observed++
	now := m.Alarming()
	if now && !m.alarming {
		m.episodes++
	}
	m.alarming = now
	return now
}

// MissRate returns the current window's empirical miss rate.
func (m *monitor) MissRate() float64 {
	if m.filled == 0 {
		return 0
	}
	return float64(m.misses) / float64(m.filled)
}

// Threshold returns the alarm line: nominal miss rate plus the Hoeffding
// slack sqrt(ln(1/delta)/(2n)) for the currently filled window. An empty
// window (fresh monitor, or right after Reset) reports the slack for the
// *configured* window size — the line the monitor will actually alarm
// against once it fills — rather than a misleading 0-observation (n=1)
// slack that would make a stats readout look like the monitor demands a
// near-total collapse.
func (m *monitor) Threshold() float64 {
	n := m.filled
	if n == 0 {
		n = m.window
	}
	return (1 - m.target) + math.Sqrt(math.Log(1/m.delta)/(2*float64(n)))
}

// Alarming reports whether the window currently violates coverage. It
// requires at least half the window to be filled so early noise cannot
// trip it — which also means the monitor is blind for the first window/2
// observations after construction or Reset: no alarm can fire during that
// refill period regardless of the outcomes observed.
func (m *monitor) Alarming() bool {
	if m.filled < m.window/2 {
		return false
	}
	return m.MissRate() > m.Threshold()
}

// Reset clears the window and ends any in-progress alarm episode (call
// after recalibrating: the fresh calibration invalidates outcomes measured
// against the old one). The lifetime observed/episode counters are kept —
// they are the monitor's history, not its state. After Reset the monitor
// re-enters its blind period: Alarming stays false until the window is at
// least half filled again (see Alarming).
func (m *monitor) Reset() {
	m.head, m.filled, m.misses = 0, 0, 0
	m.alarming = false
}

// Stats reports lifetime counters: outcomes observed and alarm episodes
// raised (edge-triggered — see Observe).
func (m *monitor) Stats() (observed, episodes int) { return m.observed, m.episodes }
