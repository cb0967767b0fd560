package drift

import (
	"errors"
	"fmt"

	"eventhit/internal/conformal"
)

// ErrInsufficientPositives reports that the requested rebuild window holds
// no positive outcome for at least one event, so no conformal p-value can
// be defined for it yet. It is a retryable condition, not a fatal one: an
// adaptation loop should keep buffering labeled outcomes and try again
// (match with errors.Is).
var ErrInsufficientPositives = errors.New("drift: insufficient post-shift positives")

// Recalibrator keeps a rolling buffer of the most recent labeled
// existence scores and rebuilds a C-CLASSIFY calibration from them on
// demand. In deployment the labels come back for free: every relayed
// horizon is ground-truthed by the CI itself, and skipped horizons can be
// spot-checked at a low audit rate.
type Recalibrator struct {
	capacity int
	k        int
	scores   [][]float64
	labels   [][]bool
	head     int
	filled   int
}

// NewRecalibrator buffers up to capacity records of k events each.
func NewRecalibrator(capacity, k int) (*Recalibrator, error) {
	if capacity < 10 {
		return nil, fmt.Errorf("drift: recalibration buffer %d too small", capacity)
	}
	if k <= 0 {
		return nil, fmt.Errorf("drift: k must be positive")
	}
	return &Recalibrator{
		capacity: capacity,
		k:        k,
		scores:   make([][]float64, capacity),
		labels:   make([][]bool, capacity),
	}, nil
}

// Add records one labeled outcome: the model's existence scores b and the
// realized labels, copied. Once the buffer has wrapped a record overwrites
// the oldest slot's memory in place (a rebuild copies the values it keeps,
// so nothing else holds a slot).
func (r *Recalibrator) Add(b []float64, label []bool) error {
	if len(b) != r.k || len(label) != r.k {
		return fmt.Errorf("drift: got %d scores / %d labels, want %d", len(b), len(label), r.k)
	}
	if r.scores[r.head] == nil {
		r.scores[r.head], r.labels[r.head] = make([]float64, r.k), make([]bool, r.k)
	}
	copy(r.scores[r.head], b)
	copy(r.labels[r.head], label)
	r.head = (r.head + 1) % r.capacity
	if r.filled < r.capacity {
		r.filled++
	}
	return nil
}

// Reset discards every buffered record. Call it when the scoring model
// changes: scores cut by the old model would poison a rebuild for the new
// one.
func (r *Recalibrator) Reset() {
	clear(r.scores)
	clear(r.labels)
	r.head = 0
	r.filled = 0
}

// RebuildRecent calibrates from only the n most recently added records —
// the right call after a drift alarm, when older buffer entries still
// reflect the pre-shift distribution. Collect enough post-alarm outcomes
// first: calibrating on a stale/fresh mixture restores nothing.
//
// When the window lacks a positive outcome for some event the error wraps
// ErrInsufficientPositives: the window is merely too fresh, not broken —
// keep buffering and retry.
func (r *Recalibrator) RebuildRecent(n int) (*conformal.Classifier, error) {
	if r.filled == 0 {
		return nil, fmt.Errorf("drift: empty recalibration buffer")
	}
	if n <= 0 {
		return nil, fmt.Errorf("drift: n must be positive")
	}
	if n > r.filled {
		n = r.filled
	}
	scores := make([][]float64, 0, n)
	labels := make([][]bool, 0, n)
	// head points at the slot after the newest entry.
	start := (r.head - n + r.capacity) % r.capacity
	positives := make([]int, r.k)
	for i := 0; i < n; i++ {
		idx := (start + i) % r.capacity
		scores = append(scores, r.scores[idx])
		labels = append(labels, r.labels[idx])
		for j, l := range r.labels[idx] {
			if l {
				positives[j]++
			}
		}
	}
	for j, p := range positives {
		if p == 0 {
			return nil, fmt.Errorf("event %d has no positive in the %d-record rebuild window: %w",
				j, n, ErrInsufficientPositives)
		}
	}
	return conformal.NewClassifier(scores, labels)
}
