package harness

import (
	"fmt"
	"io"

	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

// Table1Row is one event's statistics: the Table I targets and what the
// generator produced.
type Table1Row struct {
	Dataset  string
	Event    string
	ID       int
	WantOcc  int
	WantMean float64
	WantStd  float64
	GotOcc   float64
	GotMean  float64
	GotStd   float64
}

// Table1 regenerates Table I: it generates each dataset `trials` times and
// reports occurrence counts and duration statistics next to the paper's
// targets.
func Table1(trials int, seed int64, w io.Writer) ([]Table1Row, error) {
	var rows []Table1Row
	specs := []video.DatasetSpec{video.VIRAT(), video.THUMOS(), video.Breakfast()}
	// One pool cell per (dataset, trial); durations are pooled in trial
	// order afterwards so the summary statistics match the serial run.
	grid, err := trialCells(len(specs), trials, func(si, trial int) ([][]float64, error) {
		spec := specs[si]
		st := video.Generate(spec, mathx.NewRNG(seed+int64(trial)))
		durs := make([][]float64, len(spec.Events))
		for k := range spec.Events {
			durs[k] = st.Durations(k)
		}
		return durs, nil
	})
	if err != nil {
		return nil, err
	}
	for si, spec := range specs {
		perEvent := make([][]float64, len(spec.Events)) // durations pooled across trials
		counts := make([]float64, len(spec.Events))
		for _, durs := range grid[si] {
			for k := range spec.Events {
				counts[k] += float64(len(durs[k]))
				perEvent[k] = append(perEvent[k], durs[k]...)
			}
		}
		for k, ev := range spec.Events {
			s := mathx.Summarize(perEvent[k])
			rows = append(rows, Table1Row{
				Dataset:  spec.Name,
				Event:    ev.Name,
				ID:       ev.ID,
				WantOcc:  ev.Occurrences,
				WantMean: ev.MeanDur,
				WantStd:  ev.StdDur,
				GotOcc:   counts[k] / float64(trials),
				GotMean:  s.Mean,
				GotStd:   s.Std,
			})
		}
	}
	t := NewTable("Table I — events of interest (paper target vs generated)",
		"event", "dataset", "occ(paper)", "occ(gen)", "avg(paper)", "avg(gen)", "std(paper)", "std(gen)")
	for _, r := range rows {
		t.Addf(fmt.Sprintf("E%d: %s", r.ID, r.Event), r.Dataset,
			r.WantOcc, fmt.Sprintf("%.1f", r.GotOcc),
			fmt.Sprintf("%.1f", r.WantMean), fmt.Sprintf("%.1f", r.GotMean),
			fmt.Sprintf("%.1f", r.WantStd), fmt.Sprintf("%.1f", r.GotStd))
	}
	t.Render(w)
	return rows, nil
}

// Table2 prints the task definitions of Table II.
func Table2(w io.Writer) []Task {
	tasks := Tasks()
	t := NewTable("Table II — tasks", "task", "events", "dataset", "M", "H")
	for _, task := range tasks {
		t.Addf(task.Name, task.eventSet(), task.Dataset.Name, task.Dataset.Window, task.Dataset.Horizon)
	}
	t.Render(w)
	return tasks
}
