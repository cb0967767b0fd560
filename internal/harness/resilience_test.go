package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"eventhit/internal/cloud"
	"eventhit/internal/metrics"
	"eventhit/internal/pipeline"
	"eventhit/internal/resilience"
)

// quickRates keeps the sweep cheap in tests: the zero-fault control plus
// one aggressive setting.
func quickRates() []float64 { return []float64{0, 0.3} }

func TestResilienceExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var buf bytes.Buffer
	res, err := Resilience(mustTask("TA10"), Quick(), quickRates(), 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Task != "TA10" {
		t.Fatalf("result = %+v", res)
	}
	zero, faulty := res.Points[0], res.Points[1]
	// The zero-fault control must look like a clean run.
	if zero.Deferred != 0 || zero.FailedAttempts != 0 || zero.BreakerTrips != 0 || zero.BackoffMS != 0 {
		t.Fatalf("zero-fault point shows fault activity: %+v", zero)
	}
	if zero.RealizedREC != zero.REC {
		t.Fatalf("zero-fault realized REC %v != REC %v", zero.RealizedREC, zero.REC)
	}
	if zero.REC <= 0 || zero.REC > 1 || zero.Relays == 0 {
		t.Fatalf("zero-fault point implausible: %+v", zero)
	}
	// The faulty point must show the machinery working: failures absorbed,
	// some relays deferred (the outage window guarantees breaker pressure),
	// and honest accounting (realized recall never above model recall).
	if faulty.FailedAttempts == 0 {
		t.Fatalf("fault point saw no failures: %+v", faulty)
	}
	if faulty.RealizedREC > faulty.REC+1e-12 {
		t.Fatalf("realized REC %v above model REC %v", faulty.RealizedREC, faulty.REC)
	}
	if faulty.Deferred == 0 {
		t.Fatalf("40-request outage deferred nothing: %+v", faulty)
	}
	if buf.Len() == 0 {
		t.Fatal("experiment rendered no table")
	}
}

// TestResilienceDeterministicAcrossParallelism: the sweep's JSON is
// byte-identical whether cells run serially or concurrently.
func TestResilienceDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models twice")
	}
	run := func(par int) []byte {
		old := SetParallelism(par)
		defer SetParallelism(old)
		res, err := Resilience(mustTask("TA10"), Quick(), quickRates(), 5, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	parallel := run(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("sweep differs across parallelism:\n p=1: %s\n p=4: %s", serial, parallel)
	}
}

// TestResilienceZeroFaultParityWithBareService: the sweep's zero-fault
// control equals a run with no fault wrapper and no resilience config at
// all — wrapping is observationally free when nothing misbehaves.
func TestResilienceZeroFaultParityWithBareService(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	res, err := Resilience(mustTask("TA10"), Quick(), []float64{0}, 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]

	// quickEnv is NewEnv(TA10, Quick(), 5) — the same env the cell built.
	env := quickEnv(t)
	start, end := testRegion(env)
	ci := cloud.NewService(env.Stream, cloud.RekognitionPricing(), cloud.DefaultLatency())
	m, err := pipeline.New(env.Ex, env.Bundle.EHCR(0.9, 0.9), ci, env.Cfg, pipeline.EventHitCosts(env.Cfg.Window))
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
		t.Fatalf("REC parity broken: point %v/%v, bare %v", pt.REC, pt.RealizedREC, rec)
	}
	if pt.SpentUSD != rep.SpentUSD || pt.CIMS != rep.CIMS || pt.FPS != rep.FPS() {
		t.Fatalf("cost/latency parity broken:\npoint: %+v\n bare: spent=%v ci=%v fps=%v", pt, rep.SpentUSD, rep.CIMS, rep.FPS())
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
	backend := cloud.Inject(ci, resiliencePlan(106, 0.25))
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
