package harness

import (
	"fmt"
	"io"
)

// Fig56Result holds one representative task's sweep of a conformal knob
// (in the order TA1, TA5, TA7, TA10): REC, SPL and the relevant component
// recall at each level.
type Fig56Result struct {
	Points []Point
}

// Fig5 reproduces Figure 5: EHC with varying confidence c, reporting REC,
// SPL and REC_c on the representative tasks.
func Fig5(opt Options, trials int, seed int64, w io.Writer) ([]Fig56Result, error) {
	return fig56(opt, trials, seed, w, "5", "EHC", "c", "REC_c",
		(*Env).CurveEHC, func(p Point) float64 { return p.RECc })
}

// Fig6 reproduces Figure 6: EHR with varying coverage α, reporting REC,
// SPL and REC_r on the representative tasks.
func Fig6(opt Options, trials int, seed int64, w io.Writer) ([]Fig56Result, error) {
	return fig56(opt, trials, seed, w, "6", "EHR", "alpha", "REC_r",
		(*Env).CurveEHR, func(p Point) float64 { return p.RECr })
}

// fig56 sweeps one conformal layer's knob on the representative tasks; part
// picks the component recall the figure reports beside REC and SPL.
func fig56(opt Options, trials int, seed int64, w io.Writer, fig, algo, knob, partName string,
	curve func(*Env, []float64) ([]Point, error), part func(Point) float64) ([]Fig56Result, error) {
	names := []string{"TA1", "TA5", "TA7", "TA10"} // the four representative tasks of Figures 5 and 6
	grid, err := trialCells(len(names), trials, func(ti, trial int) ([]Point, error) {
		env, err := NewEnv(mustTask(names[ti]), opt, seed+int64(trial))
		if err != nil {
			return nil, err
		}
		return curve(env, ConfidenceLevels())
	})
	if err != nil {
		return nil, err
	}
	var out []Fig56Result
	for ti, name := range names {
		res := Fig56Result{Points: AveragePoints(grid[ti])}
		out = append(out, res)
		t := NewTable(fmt.Sprintf("Figure %s (%s) — %s sweep (avg of %d trials)", fig, name, algo, trials),
			knob, "REC", "SPL", partName)
		for _, p := range res.Points {
			t.Addf(p.Knob, p.REC, p.SPL, part(p))
		}
		t.Render(w)
	}
	return out, nil
}
