package harness

import (
	"fmt"
	"io"

	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// IndustrialSpec returns the dense workload of the paper's §I motivation:
// defective products on a conveyor, arriving geometrically (the i.i.d.
// alternative §I names) so frequently that a single time horizon routinely
// contains several instances — the regime where the multi-instance
// extension (§II footnote 1) pays off.
func IndustrialSpec() video.DatasetSpec {
	return video.DatasetSpec{
		Name:      "Industrial",
		StreamLen: 120_000,
		Window:    20,
		Horizon:   600,
		Events: []video.EventSpec{
			{Name: "Defective Product", ID: 1, Occurrences: 400, MeanDur: 40, StdDur: 10,
				PrecursorMean: 650, PrecursorStd: 40, CueNoise: 0.04},
		},
	}
}

// MultiPoint is one operating point of one decoding on the industrial
// stream.
type MultiPoint struct {
	Coverage float64 // EtaRuns vs all instances, averaged over positives
	Frames   int
}

// MultiResult compares single-span decoding (Equation 6) against per-run
// decoding (DecodeIntervals) on the dense industrial stream, each swept
// over its conformal widening level.
type MultiResult struct {
	MeanInstancesPerHorizon float64
	Span                    []MultiPoint
	Runs                    []MultiPoint
}

// FramesAtCoverage returns the fewest frames among points reaching the
// coverage target, and whether any does.
func FramesAtCoverage(pts []MultiPoint, target float64) (int, bool) {
	best, ok := 0, false
	for _, p := range pts {
		if p.Coverage >= target && (!ok || p.Frames < best) {
			best, ok = p.Frames, true
		}
	}
	return best, ok
}

// MultiExperiment trains EventHit with multi-instance per-frame targets on
// the industrial workload and scores both decodings on every positive test
// horizon: coverage of ALL instances and frames relayed. The headline is
// the frame saving of per-run relays at comparable coverage.
func MultiExperiment(opt Options, seed int64, w io.Writer) (*MultiResult, error) {
	g := mathx.NewRNG(seed)
	spec := IndustrialSpec()
	st := video.GenerateWith(spec, video.GeometricArrivals, 0, 1, g.Split(1))
	ex, err := features.NewExtractor(st, []int{0}, opt.Detector, seed)
	if err != nil {
		return nil, err
	}
	cfg := dataset.Config{Window: spec.Window, Horizon: spec.Horizon}

	// Sample multi-instance records by region, mirroring dataset.Build.
	sample := func(lo, hi, n int, gg *mathx.RNG) ([]dataset.Record, error) {
		out := make([]dataset.Record, 0, n)
		for len(out) < n {
			t := lo + gg.Intn(hi-lo+1)
			r, err := dataset.BuildRecordMulti(ex, t, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	minA := cfg.Window - 1
	maxA := st.N - cfg.Horizon - 1
	span := maxA - minA + 1
	train, err := sample(minA, minA+span/2-1, opt.NTrain, g.Split(2))
	if err != nil {
		return nil, err
	}
	calib, err := sample(minA+span/2, minA+3*span/4-1, opt.NCCalib, g.Split(3))
	if err != nil {
		return nil, err
	}
	test, err := sample(minA+3*span/4, maxA, opt.NTest, g.Split(4))
	if err != nil {
		return nil, err
	}

	m, err := core.New(core.DefaultConfig(ex.Dim(), cfg.Window, cfg.Horizon, 1))
	if err != nil {
		return nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = opt.Epochs
	if _, err := m.Train(train, tc); err != nil {
		return nil, err
	}
	bundle, err := strategy.Calibrate(m, calib, calib)
	if err != nil {
		return nil, err
	}

	// Per-run conformal calibration, the footnote-1 analogue of Algorithm 2:
	// on calibration positives, match each true instance to the decoded run
	// overlapping it most and collect the boundary residuals; the α-quantiles
	// widen every decoded run at test time. (The span path keeps the paper's
	// Regressor, whose residuals are measured against the same single-span
	// decoding it adjusts.)
	var runStartRes, runEndRes []float64
	for _, rec := range calib {
		if len(rec.AllOI[0]) == 0 {
			continue
		}
		out := m.Predict(rec.X)
		runs := core.DecodeIntervals(out.Theta[0], bundle.Tau2, 3)
		for _, truth := range rec.AllOI[0] {
			best, bestOv := video.Interval{}, -1
			for _, r := range runs {
				ov := 0
				if x, ok := r.Intersect(truth); ok {
					ov = x.Len()
				}
				if ov > bestOv {
					best, bestOv = r, ov
				}
			}
			if bestOv <= 0 {
				continue // missed instance: an existence failure, not a boundary one
			}
			runStartRes = append(runStartRes, absDiff(best.Start, truth.Start))
			runEndRes = append(runEndRes, absDiff(best.End, truth.End))
		}
	}
	if len(runStartRes) == 0 {
		return nil, fmt.Errorf("harness: no matched runs in multi-instance calibration")
	}

	alphas := []float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95}
	res := &MultiResult{}
	positives := 0
	var instSum int
	type horizonEval struct {
		truths []video.Interval
		span   video.Interval
		runs   []video.Interval
	}
	var evals []horizonEval
	for _, rec := range test {
		truths := rec.AllOI[0]
		if len(truths) == 0 {
			continue
		}
		positives++
		instSum += len(truths)
		out := m.Predict(rec.X)
		occ := bundle.Classifier.Predict(out.B, 0.95)
		if !occ[0] {
			evals = append(evals, horizonEval{truths: truths})
			continue
		}
		spanIv, _ := core.DecodeInterval(out.Theta[0], bundle.Tau2)
		runs := core.DecodeIntervals(out.Theta[0], bundle.Tau2, 3)
		if len(runs) == 0 {
			runs = []video.Interval{spanIv}
		}
		evals = append(evals, horizonEval{truths: truths, span: spanIv, runs: runs})
	}
	if positives == 0 {
		return nil, fmt.Errorf("harness: no positive horizons in multi-instance test set")
	}
	res.MeanInstancesPerHorizon = float64(instSum) / float64(positives)

	for _, alpha := range alphas {
		qs := mathx.CeilQuantile(runStartRes, alpha)
		qe := mathx.CeilQuantile(runEndRes, alpha)
		var sp, rp MultiPoint
		for _, ev := range evals {
			if ev.span.Len() == 0 {
				continue // existence miss: contributes 0 coverage, 0 frames
			}
			span := bundle.Regressor.Adjust(0, ev.span, alpha)
			widened := make([]video.Interval, len(ev.runs))
			for i, r := range ev.runs {
				widened[i] = video.Interval{
					Start: mathx.ClampInt(r.Start-int(qs), 1, cfg.Horizon),
					End:   mathx.ClampInt(r.End+int(qe), 1, cfg.Horizon),
				}
			}
			sp.Coverage += metrics.EtaRuns([]video.Interval{span}, ev.truths)
			rp.Coverage += metrics.EtaRuns(widened, ev.truths)
			sp.Frames += span.Len()
			rp.Frames += metrics.UnionFrames(widened)
		}
		sp.Coverage /= float64(positives)
		rp.Coverage /= float64(positives)
		res.Span = append(res.Span, sp)
		res.Runs = append(res.Runs, rp)
	}

	t := NewTable(fmt.Sprintf("Multi-instance decoding on the industrial stream (%.2f instances/horizon)",
		res.MeanInstancesPerHorizon), "alpha", "span coverage", "span frames", "run coverage", "run frames")
	for i := range alphas {
		t.Addf(alphas[i], res.Span[i].Coverage, res.Span[i].Frames,
			res.Runs[i].Coverage, res.Runs[i].Frames)
	}
	t.Render(w)
	for _, target := range []float64{0.75, 0.85} {
		sf, sok := FramesAtCoverage(res.Span, target)
		rf, rok := FramesAtCoverage(res.Runs, target)
		if sok && rok {
			fmt.Fprintf(w, "coverage >= %.2f: span needs %d frames, per-run %d (%.1f%%)\n",
				target, sf, rf, 100*float64(rf)/float64(sf))
		}
	}
	fmt.Fprintln(w)
	return res, nil
}
