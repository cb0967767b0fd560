package harness

import (
	"fmt"
	"io"

	"eventhit/internal/video"
)

// DensityRow is one event-density setting.
type DensityRow struct {
	// Multiplier scales the dataset's occurrence counts.
	Multiplier float64
	// EventFraction is the fraction of stream frames inside events.
	EventFraction float64
	// EHO is the raw operating point.
	EHO Point
	// SavingsAt90 is 1 - (frames relayed / brute-force frames) for the
	// cheapest EHCR setting reaching REC >= 0.9 (-1 when unreached).
	SavingsAt90 float64
}

// Density quantifies §I's premise that marshalling pays off in
// needle-in-a-haystack regimes: the THUMOS task TA10 is re-generated with
// its event arrival rate scaled by each multiplier, and the achievable
// cost saving at REC >= 0.9 is measured. As events fill more of the
// stream, the relay fraction necessarily grows and the saving shrinks —
// the experiment measures how fast.
func Density(opt Options, multipliers []float64, seed int64, w io.Writer) ([]DensityRow, error) {
	if len(multipliers) == 0 {
		multipliers = []float64{0.5, 1, 2, 4}
	}
	base := mustTask("TA10")
	rows, err := cells(len(multipliers), func(i int) (DensityRow, error) {
		mult := multipliers[i]
		spec := base.Dataset
		evs := make([]video.EventSpec, len(spec.Events))
		copy(evs, spec.Events)
		for i := range evs {
			evs[i].Occurrences = int(float64(evs[i].Occurrences) * mult)
			if evs[i].Occurrences < 5 {
				evs[i].Occurrences = 5
			}
		}
		spec.Events = evs
		task := base
		task.Dataset = spec

		env, err := NewEnv(task, opt, seed)
		if err != nil {
			return DensityRow{}, fmt.Errorf("harness: density x%.1f: %w", mult, err)
		}
		row := DensityRow{Multiplier: mult, SavingsAt90: -1}
		evFrames := env.Stream.EventFrames(task.EventIdx[0], video.Interval{Start: 0, End: env.Stream.N - 1})
		row.EventFraction = float64(evFrames) / float64(env.Stream.N)
		var curve []Point
		if row.EHO, _, curve, err = env.headline(); err != nil {
			return DensityRow{}, err
		}
		bfFrames := len(env.Splits.Test) * env.Cfg.Horizon * task.NumEvents()
		bestFrames := -1
		for _, p := range curve {
			if p.REC >= 0.9 && (bestFrames < 0 || p.Frames < bestFrames) {
				bestFrames = p.Frames
			}
		}
		if bestFrames >= 0 {
			row.SavingsAt90 = 1 - float64(bestFrames)/float64(bfFrames)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t := NewTable("Event-density sensitivity (TA10, occurrence rate scaled)",
		"multiplier", "event fraction", "EHO REC", "EHO SPL", "savings @ REC>=0.9")
	for _, r := range rows {
		sv := "unreached"
		if r.SavingsAt90 >= 0 {
			sv = fmt.Sprintf("%.1f%%", 100*r.SavingsAt90)
		}
		t.Addf(fmt.Sprintf("x%.1f", r.Multiplier), r.EventFraction, r.EHO.REC, r.EHO.SPL, sv)
	}
	t.Render(w)
	fmt.Fprintln(w, "sparser events (needle in a haystack) -> larger marshalling savings, as §I argues")
	fmt.Fprintln(w)
	return rows, nil
}
