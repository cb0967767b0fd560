// Package trace records marshalling decisions as a JSON-lines audit
// trail and replays them against ground truth. Operators get (a) a
// reviewable log of every relay/skip with the knobs in force, and (b)
// offline scoring: once the true event annotations for a period are known
// (e.g. from the CI's own responses), a trace can be re-scored to audit
// realized recall and spillage — the raw material the drift monitor
// consumes.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Entry is one event decision at one anchor.
type Entry struct {
	// Anchor is the absolute frame index T_i at decision time.
	Anchor int `json:"anchor"`
	// Horizon is H at decision time.
	Horizon int `json:"horizon"`
	// Event is the event name (or index rendered by the caller).
	Event string `json:"event"`
	// EventIndex is the task event position.
	EventIndex int `json:"eventIndex"`
	// Relay reports whether frames were sent to the CI.
	Relay bool `json:"relay"`
	// Start and End are the absolute relayed range (inclusive); omitted
	// when Relay is false.
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
	// Confidence and Coverage are the conformal knobs in force.
	Confidence float64 `json:"confidence"`
	Coverage   float64 `json:"coverage"`
}

// Validate checks internal consistency.
func (e Entry) Validate() error {
	if e.Horizon <= 0 {
		return fmt.Errorf("trace: entry horizon %d must be positive", e.Horizon)
	}
	if e.Relay {
		if e.Start > e.End {
			return fmt.Errorf("trace: inverted relay range [%d,%d]", e.Start, e.End)
		}
		if e.Start <= e.Anchor || e.End > e.Anchor+e.Horizon {
			return fmt.Errorf("trace: relay range [%d,%d] outside horizon (%d,%d]",
				e.Start, e.End, e.Anchor, e.Anchor+e.Horizon)
		}
	}
	return nil
}

// Writer appends entries as JSON lines. It is safe for concurrent use.
type Writer struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w)}
}

// Append validates and writes one entry.
func (w *Writer) Append(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.enc.Encode(e); err != nil {
		return fmt.Errorf("trace: append: %w", err)
	}
	return nil
}

// ReadAll parses a JSON-lines trace, validating every entry.
func ReadAll(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return out, nil
}
