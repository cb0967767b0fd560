package harness

import (
	"fmt"
	"io"
)

// Fig7Row is one sweep setting: the varied hyper-parameter value and the
// minimum SPL at which EHCR reaches each REC target (negative when the
// target is unreachable).
type Fig7Row struct {
	Value   int // M or H
	SPLAt   map[float64]float64
	Reached map[float64]bool
}

// Fig7RECTargets are the recall levels of Figure 7.
func Fig7RECTargets() []float64 { return []float64{0.6, 0.7, 0.8, 0.9} }

// Fig7Windows is the default M sweep (left panel).
func Fig7Windows() []int { return []int{5, 10, 25, 50, 100} }

// Fig7Horizons is the default H sweep (right panel).
func Fig7Horizons() []int { return []int{100, 300, 500, 700, 900} }

// Fig7 reproduces Figure 7 on TA1: the SPL EHCR needs to reach each REC
// level as the collection window M (varyWindow=true) or the horizon H
// (varyWindow=false) changes.
func Fig7(opt Options, varyWindow bool, values []int, trials int, seed int64, w io.Writer) ([]Fig7Row, error) {
	task := mustTask("TA1")
	grid, err := trialCells(len(values), trials, func(vi, trial int) ([]Point, error) {
		o := opt
		if varyWindow {
			o.Window = values[vi]
		} else {
			o.Horizon = values[vi]
		}
		env, err := NewEnv(task, o, seed+int64(trial))
		if err != nil {
			return nil, err
		}
		return env.CurveEHCR(ConfidenceLevels())
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for vi, v := range values {
		avg := AveragePoints(grid[vi])
		row := Fig7Row{Value: v, SPLAt: map[float64]float64{}, Reached: map[float64]bool{}}
		for _, target := range Fig7RECTargets() {
			spl, ok := MinSPLAtREC(avg, target)
			row.SPLAt[target] = spl
			row.Reached[target] = ok
		}
		rows = append(rows, row)
	}
	what := "H"
	if varyWindow {
		what = "M"
	}
	t := NewTable(fmt.Sprintf("Figure 7 — SPL of EHCR at REC levels varying %s (TA1, avg of %d trials)", what, trials),
		what, "SPL@REC>=0.6", "SPL@REC>=0.7", "SPL@REC>=0.8", "SPL@REC>=0.9")
	for _, r := range rows {
		cells := []interface{}{r.Value}
		for _, target := range Fig7RECTargets() {
			if r.Reached[target] {
				cells = append(cells, r.SPLAt[target])
			} else {
				cells = append(cells, "unreached")
			}
		}
		t.Addf(cells...)
	}
	t.Render(w)
	return rows, nil
}
