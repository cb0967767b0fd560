package harness

import (
	"fmt"
	"io"

	"eventhit/internal/cloud"
	"eventhit/internal/metrics"
)

// Fig8Point is one (REC, expense) operating point of the monetary case
// study.
type Fig8Point struct {
	Algorithm string
	Knob      float64
	REC       float64
	USD       float64
}

// Fig8 reproduces the §VI.G case study on TA1: REC versus CI expense at
// Amazon Rekognition pricing (US $0.001/frame) for the EHCR and COX
// curves, with OPT (true event frames only) and BF (every frame) as the
// anchors.
func Fig8(opt Options, trials int, seed int64, w io.Writer) ([]Fig8Point, error) {
	task := mustTask("TA1")
	price := cloud.RekognitionPricing().PerFrameUSD
	type fig8Cell struct {
		ehcr, cox     []Point
		optUSD, bfUSD float64
	}
	perTrial, err := cells(trials, func(trial int) (fig8Cell, error) {
		env, err := NewEnv(task, opt, seed+int64(trial))
		if err != nil {
			return fig8Cell{}, err
		}
		ehcr, err := env.CurveEHCR(ConfidenceLevels())
		if err != nil {
			return fig8Cell{}, err
		}
		cox, err := env.CurveCox(CoxTaus())
		return fig8Cell{
			ehcr:   ehcr,
			cox:    cox,
			optUSD: float64(metrics.TrueEventFrames(env.Splits.Test)) * price,
			bfUSD:  float64(len(env.Splits.Test)*env.Cfg.Horizon*task.NumEvents()) * price,
		}, err
	})
	if err != nil {
		return nil, err
	}
	var ehcrTrials, coxTrials [][]Point
	var optUSD, bfUSD float64
	for _, c := range perTrial {
		ehcrTrials = append(ehcrTrials, c.ehcr)
		coxTrials = append(coxTrials, c.cox)
		optUSD += c.optUSD
		bfUSD += c.bfUSD
	}
	optUSD /= float64(trials)
	bfUSD /= float64(trials)

	var out []Fig8Point
	out = append(out,
		Fig8Point{Algorithm: "OPT", REC: 1, USD: optUSD},
		Fig8Point{Algorithm: "BF", REC: 1, USD: bfUSD},
	)
	for _, p := range AveragePoints(ehcrTrials) {
		out = append(out, Fig8Point{Algorithm: "EHCR", Knob: p.Knob, REC: p.REC,
			USD: float64(p.Frames) * price})
	}
	for _, p := range AveragePoints(coxTrials) {
		out = append(out, Fig8Point{Algorithm: "COX", Knob: p.Knob, REC: p.REC,
			USD: float64(p.Frames) * price})
	}
	t := NewTable(fmt.Sprintf("Figure 8 — REC vs expense on TA1 at $%.3f/frame (avg of %d trials)", price, trials),
		"algorithm", "knob", "REC", "expense($)")
	for _, p := range out {
		t.Addf(p.Algorithm, p.Knob, p.REC, fmt.Sprintf("%.2f", p.USD))
	}
	t.Render(w)
	return out, nil
}
