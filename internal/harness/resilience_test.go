package harness

import (
	"math"
	"testing"

	"eventhit/internal/cloud"
	"eventhit/internal/metrics"
	"eventhit/internal/pipeline"
	"eventhit/internal/resilience"
)

// TestResilienceZeroFaultParityWithBareService: the marshalling pipeline
// behind the resilient client, with degradation on and an inactive fault
// plan injected, equals a run with no fault wrapper and no resilience
// config at all — wrapping is observationally free when nothing misbehaves.
// This is what makes a fault sweep's clean row (the bare CI) its zero-fault
// control.
func TestResilienceZeroFaultParityWithBareService(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	env := quickEnv(t)
	start, end := testRegion(env)
	newCI := func() *cloud.Service {
		return cloud.NewService(env.Stream, cloud.RekognitionPricing(), cloud.DefaultLatency())
	}
	costs := pipeline.EventHitCosts(env.Cfg.Window)
	rcfg := resilience.DefaultConfig(5)
	costs.Resilience = &rcfg
	costs.Degrade = true
	pt, err := pipeline.RunScored(env.Ex, env.Bundle.EHCR(0.9, 0.9), cloud.Inject(newCI(), cloud.FaultPlan{}), env.Cfg, costs, start, end)
	if err != nil {
		t.Fatal(err)
	}

	m, err := pipeline.New(env.Ex, env.Bundle.EHCR(0.9, 0.9), newCI(), env.Cfg, pipeline.EventHitCosts(env.Cfg.Window))
	if err != nil {
		t.Fatal(err)
	}
	rep, recs, preds, err := m.Run(start, end)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := metrics.REC(recs, preds)
	if err != nil {
		t.Fatal(err)
	}
	if pt.REC != rec || pt.RealizedREC != rec {
		t.Fatalf("REC parity broken: wrapped %v/%v, bare %v", pt.REC, pt.RealizedREC, rec)
	}
	if pt.SpentUSD != rep.SpentUSD || pt.CIMS != rep.CIMS || pt.FPS() != rep.FPS() {
		t.Fatalf("cost/latency parity broken:\nwrapped: spent=%v ci=%v fps=%v\n   bare: spent=%v ci=%v fps=%v",
			pt.SpentUSD, pt.CIMS, pt.FPS(), rep.SpentUSD, rep.CIMS, rep.FPS())
	}
}

// TestResilienceConformalCoverageUnderFaults is the property test: with a
// fault plan active and graceful degradation engaged, C-CLASSIFY's
// Theorem-4.2 coverage still holds empirically on the horizons whose relays
// reached the CI — the resilience layer may defer relays but must not
// distort the statistical guarantee of the ones it serves.
func TestResilienceConformalCoverageUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	env := quickEnv(t)
	start, end := testRegion(env)
	const conf = 0.9
	ci := cloud.NewService(env.Stream, cloud.RekognitionPricing(), cloud.DefaultLatency())
	backend := cloud.Inject(ci, cloud.FaultPlan{
		Seed: 106, TransientRate: 0.25, SpikeRate: 0.125, SpikeMS: 8000, FailLatencyMS: 25,
		// One hard outage early in the run, long enough to trip the breaker.
		Outages: []cloud.ReqWindow{{Start: 25, End: 60}},
	})
	costs := pipeline.EventHitCosts(env.Cfg.Window)
	rcfg := resilience.DefaultConfig(5)
	costs.Resilience = &rcfg
	costs.Degrade = true
	m, err := pipeline.New(env.Ex, env.Bundle.EHC(conf), backend, env.Cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	rep, recs, preds, outs, err := m.RunDetailed(start, end)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CIDeferred == 0 {
		t.Fatal("fault plan engaged no degradation; the property is vacuous")
	}
	deferred := make(map[[2]int]bool)
	for _, o := range outs {
		if o.Deferred {
			deferred[[2]int{o.Horizon, o.Event}] = true
		}
	}
	pos, kept := 0, 0
	for n, r := range recs {
		for k, lab := range r.Label {
			if !lab || deferred[[2]int{n, k}] {
				continue
			}
			pos++
			if preds[n].Occur[k] {
				kept++
			}
		}
	}
	if pos < 20 {
		t.Fatalf("only %d scorable positives; region too small for the property", pos)
	}
	cov := float64(kept) / float64(pos)
	// Marginal guarantee with binomial slack: 3 sigma plus a small margin
	// for the correlation between nearby horizons.
	tol := 3*math.Sqrt(conf*(1-conf)/float64(pos)) + 0.05
	if cov < conf-tol {
		t.Fatalf("coverage %.3f below %.2f - %.3f on %d served positives", cov, conf, tol, pos)
	}
	t.Logf("coverage %.3f on %d served positives (%d deferred relays)", cov, pos, rep.CIDeferred)
}
