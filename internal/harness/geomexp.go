package harness

import (
	"fmt"
	"io"

	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

// GeomResult compares EventHit trained on the two covariate families.
type GeomResult struct {
	Task      string
	PhaseEHO  Point // abstract phase-ramp channels (the default extractor)
	GeomEHO   Point // scene-derived geometric channels (§VI.A style)
	PhaseEHCR Point
	GeomEHCR  Point
}

// GeometricExperiment trains EventHit twice on the same stream — once on
// the default phase-ramp covariates and once on the scene-derived
// geometric covariates (agent-anchor distance, approach speed, presence)
// — and reports both operating points. It demonstrates that the whole
// pipeline is feature-family agnostic and quantifies how much signal the
// geometric channels carry relative to the idealized ramps.
func GeometricExperiment(task Task, opt Options, seed int64, w io.Writer) (*GeomResult, error) {
	g := mathx.NewRNG(seed)
	st := video.Generate(task.Dataset, g.Split(1))
	// Each family trains on its own splits of the one stream, drawn from
	// its own split of the seed's RNG.
	evalOn := func(src dataset.Source, label int64) (eho, ehcr Point, err error) {
		env, err := trainOn(task, opt, seed, src, g.Split(label))
		if err != nil {
			return eho, ehcr, err
		}
		return env.headlinePoints()
	}
	phaseEx, err := features.NewExtractor(st, task.EventIdx, opt.Detector, seed)
	if err != nil {
		return nil, err
	}
	geomEx, err := features.NewGeometricExtractor(st, task.EventIdx, opt.Detector, seed)
	if err != nil {
		return nil, err
	}
	res := &GeomResult{Task: task.Name}
	if res.PhaseEHO, res.PhaseEHCR, err = evalOn(phaseEx, 10); err != nil {
		return nil, fmt.Errorf("harness: phase features: %w", err)
	}
	if res.GeomEHO, res.GeomEHCR, err = evalOn(geomEx, 11); err != nil {
		return nil, fmt.Errorf("harness: geometric features: %w", err)
	}
	t := NewTable(fmt.Sprintf("Covariate families on %s", task.Name),
		"features", "EHO REC", "EHO SPL", "EHCR(.9) REC", "EHCR(.9) SPL")
	t.Addf("phase ramps (default)", res.PhaseEHO.REC, res.PhaseEHO.SPL, res.PhaseEHCR.REC, res.PhaseEHCR.SPL)
	t.Addf("geometric (scene)", res.GeomEHO.REC, res.GeomEHO.SPL, res.GeomEHCR.REC, res.GeomEHCR.SPL)
	t.Render(w)
	return res, nil
}
