package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"eventhit/internal/cascade"
	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/fleet"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/pipeline"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// The offline job is cut into rounds so that a run yields a latency
// distribution and not one number. A round is one operation: it trains a
// small model, scores a slice of the test split with EHCR, marshals a
// region of four streams through fleet.Run (shared cache, USD cap), runs
// one pipeline.Marshaller over a region of the camera stream with a CI,
// and walks a slice of the test split down the cascade. offlineRounds
// distinct rounds cover distinct regions and slices; after that the rounds
// repeat, and a repeated round must reproduce its first outputs.
const (
	offlineRounds    = 8
	offlineStreams   = 4
	fleetRegion      = 5_000  // frames per stream per round
	marshalRegion    = 10_000 // camera frames per round
	trainRecords     = 32
	trainEpochs      = 2
	offlineBudgetUSD = 15.0 // per fleet.Run: about half of what a round's relays would bill, so the cap binds
)

// offlineLoad is the offline_repro workload, set up and ready to run.
type offlineLoad struct {
	base      *base
	casc      *cascade.Cascade
	cascBuild time.Duration // how long cascade.New took
	ehcr      strategy.Strategy
	streams   []fleet.Stream
	fcfg      fleet.Config
	marsh     *pipeline.Marshaller
	first     []roundOut
	// inPhases is the time the current round spent inside the layers; what
	// is left of the round is the benchmark's own loop.
	inPhases time.Duration
	// span, when set, receives each phase of each round (traced run).
	span func(name string, op int, start, end time.Time)
}

// roundOut is what one round computed: enough to score the run and to
// tell whether a repeat of the round computed the same.
type roundOut struct {
	digest         uint64
	phases         map[string]uint64 // digest of each phase's outputs
	recs           []dataset.Record
	preds          []metrics.Prediction
	fleetFrames    int64
	fleetHorizons  int
	served, relays int
	shed           int
}

func newOfflineLoad(b *base, seed int64) (*offlineLoad, error) {
	l := &offlineLoad{base: b, ehcr: b.env.Bundle.Clone().EHCR(confidence, coverage)}
	tc := core.DefaultTrainConfig()
	tc.Epochs, tc.Seed = b.env.Opt.Epochs, trainSeed
	var err error
	t0 := time.Now()
	if l.casc, err = cascade.New(cascade.DefaultConfig(), b.env.Bundle, b.env.Splits.Train, b.env.Splits.CCalib, b.env.Splits.RCalib, tc); err != nil {
		return nil, err
	}
	l.cascBuild = time.Since(t0)
	for i := 0; i < offlineStreams; i++ {
		// The harness.Fleet convention: stream i comes from seed+1000*(i+1)
		// and gets its own model replica, because timelines are computed
		// concurrently and core.Model caches activations.
		ss := seed + int64(1000*(i+1))
		st := video.Generate(b.task.Dataset, mathx.NewRNG(ss).Split(1))
		ex, err := features.NewExtractor(st, b.task.EventIdx, features.DefaultDetector(), ss)
		if err != nil {
			return nil, err
		}
		l.streams = append(l.streams, fleet.Stream{
			ID:       fmt.Sprintf("cam-%02d", i),
			Source:   ex,
			Strategy: b.env.Bundle.Clone().EHCR(confidence, coverage),
			Cfg:      b.env.Cfg,
			Costs:    pipeline.EventHitCosts(b.env.Cfg.Window),
		})
	}
	l.fcfg = fleet.DefaultConfig()
	cc := cicache.DefaultConfig()
	l.fcfg.Cache = &cc
	l.fcfg.GlobalBudgetUSD = offlineBudgetUSD
	l.fcfg.Parallelism = nproc()
	ci := cloud.NewService(b.cam.st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	l.marsh, err = pipeline.New(b.cam.ex, b.env.Bundle.Clone().EHCR(confidence, coverage), ci, b.env.Cfg, pipeline.EventHitCosts(b.env.Cfg.Window))
	if err != nil {
		return nil, err
	}
	return l, nil
}

func (l *offlineLoad) close() {}

// phase times one call into a layer and, in the traced run, records it. f
// writes whatever the call computed to h.
func (l *offlineLoad) phase(out *roundOut, name string, op int, f func(h io.Writer) error) error {
	h := fnv.New64a()
	start := time.Now()
	err := f(h)
	end := time.Now()
	out.phases[name] = h.Sum64()
	l.inPhases += end.Sub(start)
	if l.span != nil {
		l.span(name, op, start, end)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// round runs round op (inputs chosen by op modulo offlineRounds).
func (l *offlineLoad) round(op int) (roundOut, error) {
	r := op % offlineRounds
	env := l.base.env
	out := roundOut{phases: map[string]uint64{}}
	digestPreds := func(h io.Writer, preds []metrics.Prediction) {
		for _, p := range preds {
			fmt.Fprintf(h, "%v%v;", p.Occur, p.OI)
		}
	}
	chunk := func(recs []dataset.Record, n int) []dataset.Record {
		from := (r * n) % len(recs)
		to := from + n
		if to > len(recs) {
			to = len(recs)
		}
		return recs[from:to]
	}
	err := l.phase(&out, "core.train", op, func(h io.Writer) error {
		mc := env.Bundle.Model.Config()
		mc.Seed = int64(r + 1)
		m, err := core.New(mc)
		if err != nil {
			return err
		}
		tc := core.DefaultTrainConfig()
		tc.Epochs = trainEpochs
		st, err := m.Train(chunk(env.Splits.Train, trainRecords), tc)
		fmt.Fprintf(h, "%v;", st)
		return err
	})
	if err != nil {
		return out, err
	}
	test := chunk(env.Splits.Test, len(env.Splits.Test)/offlineRounds)
	if err := l.phase(&out, "strategy.score", op, func(h io.Writer) error {
		digestPreds(h, strategy.PredictAll(l.ehcr, test))
		return nil
	}); err != nil {
		return out, err
	}
	if err := l.phase(&out, "fleet.run", op, func(h io.Writer) error {
		for i := range l.streams {
			l.streams[i].Start, l.streams[i].End = r*fleetRegion, (r+1)*fleetRegion
		}
		rep, err := fleet.Run(l.streams, l.fcfg)
		if err != nil {
			return err
		}
		out.fleetFrames, out.served, out.shed = rep.TotalFrames, rep.Served, rep.Shed
		for _, sr := range rep.Streams {
			out.fleetHorizons += sr.Horizons
			out.relays += sr.Relays
		}
		if rep.TotalSpentUSD > l.fcfg.GlobalBudgetUSD {
			return fmt.Errorf("spent $%.3f over the $%.2f cap", rep.TotalSpentUSD, l.fcfg.GlobalBudgetUSD)
		}
		if rep.Served+rep.Deferred+rep.Shed != out.relays {
			return fmt.Errorf("served %d + deferred %d + shed %d != relays %d", rep.Served, rep.Deferred, rep.Shed, out.relays)
		}
		fmt.Fprintf(h, "%d,%d,%d,%d;", rep.TotalFrames, rep.Served, rep.Deferred, rep.Shed)
		return nil
	}); err != nil {
		return out, err
	}
	if err := l.phase(&out, "pipeline.run", op, func(h io.Writer) error {
		rep, recs, preds, err := l.marsh.Run(r*marshalRegion, (r+1)*marshalRegion)
		if err != nil {
			return err
		}
		out.recs, out.preds = recs, preds
		digestPreds(h, preds)
		// Report.CIFrames accumulates over the marshaller's lifetime, so it
		// is not a property of this round; horizons and detections are.
		fmt.Fprintf(h, "%d,%d;", rep.Horizons, rep.Detections)
		return nil
	}); err != nil {
		return out, err
	}
	if err := l.phase(&out, "cascade.predict", op, func(h io.Writer) error {
		digestPreds(h, strategy.PredictAll(l.casc, test))
		return nil
	}); err != nil {
		return out, err
	}
	h := fnv.New64a()
	for _, name := range offlinePhases {
		fmt.Fprintf(h, "%016x", out.phases[name])
	}
	out.digest = h.Sum64()
	return out, nil
}

// offlinePhases are the layers a round calls, in order.
var offlinePhases = []string{"core.train", "strategy.score", "fleet.run", "pipeline.run", "cascade.predict"}

// run repeats rounds for the timed region (after a warm-up of one round),
// at least once through every distinct round.
func (l *offlineLoad) run(seconds float64) *result {
	res := &result{metrics: metricSet{}}
	if _, err := l.round(0); err != nil { // warm-up: caches fill, lazy set-up finishes
		res.problemf("warm-up round: %v", err)
		return res
	}
	_, runFor := regionLengths(seconds)
	before := snapProc()
	var samples []sample
	var own []int64
	var ref refMeter
	for op := 0; op < offlineRounds || time.Since(before.at) < runFor; op++ {
		res.attempted++
		t0 := time.Now()
		l.inPhases = 0
		out, err := l.round(op)
		end := time.Now()
		if l.span != nil {
			l.span("loadgen.op", op, t0, end)
		}
		if err != nil {
			res.failed++
			res.problemf("round %d: %v", op, err)
			if res.failed >= maxFailures {
				break
			}
			continue
		}
		samples = append(samples, sample{done: int64(end.Sub(before.at)), lat: int64(end.Sub(t0))})
		own = append(own, int64(end.Sub(t0)-l.inPhases))
		ref.tick(before.at)
		if op < offlineRounds {
			l.first = append(l.first, out)
		} else if first := l.first[op%offlineRounds]; out.digest != first.digest {
			for _, name := range offlinePhases {
				if out.phases[name] != first.phases[name] && len(res.problems) < maxFailures {
					res.problemf("round %d: %s computed %016x, the first run of the same round computed %016x", op, name, out.phases[name], first.phases[name])
				}
			}
		}
	}
	pd := before.until(snapProc())
	setTimingMetrics(res, samples, ref.readings, 0, pd, false)
	res.metrics.set(perLayerSpecs, "loadgen.client_us", medianInt(own)/1e3, len(own))
	l.score(res)
	return res
}

// score computes rec from the marshaller's horizons and cost_ratio from
// the fleet's bill, both over the first pass through the distinct rounds.
func (l *offlineLoad) score(res *result) {
	if len(l.first) < offlineRounds {
		res.problemf("only %d of %d distinct rounds completed", len(l.first), offlineRounds)
		return
	}
	var recs []dataset.Record
	var preds []metrics.Prediction
	var frames int64
	var horizons, served, relays, shed int
	h := fnv.New64a()
	for _, out := range l.first {
		recs, preds = append(recs, out.recs...), append(preds, out.preds...)
		frames += out.fleetFrames
		horizons += out.fleetHorizons
		served, relays, shed = served+out.served, relays+out.relays, shed+out.shed
		fmt.Fprintf(h, "%016x", out.digest)
	}
	res.digest = h.Sum64()
	rec, err := metrics.REC(recs, preds)
	if err != nil {
		res.problemf("scoring: %v", err)
		return
	}
	mc := l.base.env.Bundle.Model.Config()
	res.metrics.set(endToEndSpecs, "rec", rec, len(recs))
	res.metrics.set(endToEndSpecs, "cost_ratio", float64(frames)/float64(horizons*mc.Horizon*mc.NumEvents), horizons)
	if relays > 0 {
		res.metrics.set(perLayerSpecs, "fleet.served_ratio", float64(served)/float64(relays), relays)
		res.metrics.set(perLayerSpecs, "fleet.shed_ratio", float64(shed)/float64(relays), relays)
	}
	res.info = append(res.info, fmt.Sprintf("decisions_digest %016x n=%d", res.digest, len(recs)))
}
