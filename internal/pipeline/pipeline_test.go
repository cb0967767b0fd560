package pipeline

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/resilience"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

func setup(t *testing.T) (*features.Extractor, *cloud.Service, dataset.Config) {
	t.Helper()
	st := video.Generate(video.THUMOS(), mathx.NewRNG(1))
	ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ci := cloud.NewService(st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	return ex, ci, dataset.Config{Window: 10, Horizon: 200}
}

func TestRunWithOpt(t *testing.T) {
	ex, ci, cfg := setup(t)
	m, err := New(ex, strategy.Opt{}, ci, cfg, EventHitCosts(cfg.Window))
	if err != nil {
		t.Fatal(err)
	}
	rep, recs, preds, err := m.Run(0, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Horizons == 0 || len(recs) != rep.Horizons || len(preds) != rep.Horizons {
		t.Fatalf("horizons=%d recs=%d preds=%d", rep.Horizons, len(recs), len(preds))
	}
	// OPT relays only event frames, so every CI frame is a hit.
	u := ci.Usage()
	if u.Frames != u.HitFrames {
		t.Fatalf("OPT relayed %d frames but only %d hits", u.Frames, u.HitFrames)
	}
	rec, err := metrics.REC(recs, preds)
	if err != nil {
		t.Fatal(err)
	}
	if rec != 1 {
		t.Fatalf("OPT REC = %v", rec)
	}
	if rep.SpentUSD != ci.CostOf(int(u.Frames)) {
		t.Fatalf("spend mismatch: %v vs %v", rep.SpentUSD, ci.CostOf(int(u.Frames)))
	}
}

func TestRunStageAccounting(t *testing.T) {
	ex, ci, cfg := setup(t)
	m, _ := New(ex, strategy.BF{Horizon: cfg.Horizon}, ci, cfg, EventHitCosts(cfg.Window))
	rep, _, _, err := m.Run(0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	wantScan := float64(rep.Horizons*cfg.Window) * FeatureMSDefault
	if math.Abs(rep.ScanMS-wantScan) > 1e-9 {
		t.Fatalf("ScanMS = %v, want %v", rep.ScanMS, wantScan)
	}
	// BF relays every horizon frame.
	if rep.CIFrames != int64(rep.Horizons*cfg.Horizon) {
		t.Fatalf("CIFrames = %d, want %d", rep.CIFrames, rep.Horizons*cfg.Horizon)
	}
	wantCI := float64(rep.CIFrames) * 40
	if math.Abs(rep.CIMS-wantCI) > 1e-9 {
		t.Fatalf("CIMS = %v, want %v", rep.CIMS, wantCI)
	}
	scan, pred, cis := rep.StageShares()
	if math.Abs(scan+pred+cis-1) > 1e-9 {
		t.Fatalf("stage shares sum to %v", scan+pred+cis)
	}
	if cis < 0.9 {
		t.Fatalf("BF CI share = %v, should dominate", cis)
	}
	if rep.FPS() <= 0 {
		t.Fatal("FPS must be positive")
	}
}

func TestOptFasterThanBF(t *testing.T) {
	exO, ciO, cfg := setup(t)
	mo, _ := New(exO, strategy.Opt{}, ciO, cfg, EventHitCosts(cfg.Window))
	ro, _, _, err := mo.Run(0, 30000)
	if err != nil {
		t.Fatal(err)
	}
	exB, ciB, _ := setup(t)
	mb, _ := New(exB, strategy.BF{Horizon: cfg.Horizon}, ciB, cfg, EventHitCosts(cfg.Window))
	rb, _, _, err := mb.Run(0, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if ro.FPS() <= rb.FPS() {
		t.Fatalf("OPT FPS %v not above BF FPS %v", ro.FPS(), rb.FPS())
	}
	if ro.SpentUSD >= rb.SpentUSD {
		t.Fatalf("OPT spend %v not below BF spend %v", ro.SpentUSD, rb.SpentUSD)
	}
}

func TestCostProfiles(t *testing.T) {
	eh := EventHitCosts(25)
	if eh.Scan.FramesPerHorizon != 25 || eh.Scan.PerFrameMS != FeatureMSDefault {
		t.Fatalf("EventHitCosts = %+v", eh)
	}
	v := VQSCosts(500)
	if v.Scan.FramesPerHorizon != 500 || v.Scan.PerFrameMS != SpecializedMSDefault {
		t.Fatalf("VQSCosts = %+v", v)
	}
}

func TestNewValidation(t *testing.T) {
	ex, ci, cfg := setup(t)
	if _, err := New(ex, strategy.Opt{}, ci, dataset.Config{}, EventHitCosts(10)); err == nil {
		t.Fatal("expected config validation error")
	}
	bad := EventHitCosts(10)
	bad.PredictMS = -1
	if _, err := New(ex, strategy.Opt{}, ci, cfg, bad); err == nil {
		t.Fatal("expected cost validation error")
	}
}

func TestRunClampsRange(t *testing.T) {
	ex, ci, cfg := setup(t)
	m, _ := New(ex, strategy.Opt{}, ci, cfg, EventHitCosts(cfg.Window))
	// start below the first admissible anchor and end past the stream
	rep, _, _, err := m.Run(-100, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Horizons == 0 {
		t.Fatal("no horizons processed")
	}
}

func TestReportZeroValue(t *testing.T) {
	var r Report
	if r.FPS() != 0 {
		t.Fatal("zero report FPS")
	}
	a, b, c := r.StageShares()
	if a != 0 || b != 0 || c != 0 {
		t.Fatal("zero report shares")
	}
}

// withRetries gives costs the default resilience policy with n retries per
// relay.
func withRetries(c Costs, n int) Costs {
	rcfg := resilience.DefaultConfig(0)
	rcfg.MaxAttempts = n + 1
	c.Resilience = &rcfg
	return c
}

func TestRunRetriesTransientCIFailures(t *testing.T) {
	ex, ci, cfg := setup(t)
	// Every third attempt fails, so no request fails twice running.
	var plan cloud.FaultPlan
	for i := int64(2); i < 1<<12; i += 3 {
		plan.Outages = append(plan.Outages, cloud.ReqWindow{Start: i, End: i + 1})
	}
	backend := cloud.Inject(ci, plan)
	costs := withRetries(EventHitCosts(cfg.Window), 2)
	m, _ := New(ex, strategy.Opt{}, backend, cfg, costs)
	rep, recs, _, err := m.Run(0, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CIRetried == 0 {
		t.Fatal("no retries recorded despite injected failures")
	}
	if len(recs) == 0 {
		t.Fatal("no horizons processed")
	}
	if rep.CIFailedAttempts == 0 {
		t.Fatal("fault layer injected no failures")
	}
}

func TestRunSurfacesPersistentCIFailure(t *testing.T) {
	ex, ci, cfg := setup(t)
	backend := cloud.Inject(ci, cloud.FaultPlan{TransientRate: 1})
	costs := withRetries(EventHitCosts(cfg.Window), 1)
	m, _ := New(ex, strategy.BF{Horizon: cfg.Horizon}, backend, cfg, costs)
	_, _, _, err := m.Run(0, 10000)
	if err == nil {
		t.Fatal("persistent CI outage must fail the run")
	}
	if !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("error does not wrap ErrUnavailable: %v", err)
	}
}

// TestRunChargesFailedAttemptsAndBackoff is the regression test for the
// Figure-9 accounting fix: failed CI attempts and the backoff waits between
// attempts must be charged to the simulated CI time, not silently dropped.
// With the fault layer's bookkeeping the relation is exact:
//
//	CIMS = successful processing (Usage().BusyMS)
//	     + FailLatencyMS per failed attempt + total backoff.
func TestRunChargesFailedAttemptsAndBackoff(t *testing.T) {
	ex, ci, cfg := setup(t)
	const failLat = 25.0
	backend := cloud.Inject(ci, cloud.FaultPlan{Seed: 11, TransientRate: 0.3, FailLatencyMS: failLat})
	costs := EventHitCosts(cfg.Window)
	rcfg := resilience.DefaultConfig(7)
	costs.Resilience = &rcfg
	costs.Degrade = true
	m, err := New(ex, strategy.BF{Horizon: cfg.Horizon}, backend, cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, _, err := m.Run(0, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CIFailedAttempts == 0 || rep.CIBackoffMS == 0 {
		t.Fatalf("fault plan injected nothing: %+v", rep)
	}
	want := ci.Usage().BusyMS + rep.CIBackoffMS + failLat*float64(rep.CIFailedAttempts)
	if math.Abs(rep.CIMS-want) > 1e-6 {
		t.Fatalf("CIMS = %v, want %v (failed attempts and backoff must be charged)", rep.CIMS, want)
	}
	// The old accounting charged only successful processing time; make sure
	// the gap is material, not a rounding artifact.
	if rep.CIMS <= ci.Usage().BusyMS {
		t.Fatalf("CIMS %v does not exceed success-only time %v", rep.CIMS, ci.Usage().BusyMS)
	}
}

// TestZeroFaultParity: wrapping the CI in a zero (inactive) FaultPlan and
// the resilient client must not change a single bit of the run — report,
// records and predictions all identical to the bare service.
func TestZeroFaultParity(t *testing.T) {
	exA, ciA, cfg := setup(t)
	mA, _ := New(exA, strategy.Opt{}, ciA, cfg, EventHitCosts(cfg.Window))
	repA, recsA, predsA, err := mA.Run(0, 30000)
	if err != nil {
		t.Fatal(err)
	}
	exB, ciB, _ := setup(t)
	costs := EventHitCosts(cfg.Window)
	rcfg := resilience.DefaultConfig(99) // seed must not matter with no faults
	costs.Resilience = &rcfg
	costs.Degrade = true
	mB, _ := New(exB, strategy.Opt{}, cloud.Inject(ciB, cloud.FaultPlan{}), cfg, costs)
	repB, recsB, predsB, err := mB.Run(0, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("reports diverge:\n bare: %+v\nfault: %+v", repA, repB)
	}
	if !reflect.DeepEqual(recsA, recsB) || !reflect.DeepEqual(predsA, predsB) {
		t.Fatal("records/predictions diverge under a zero fault plan")
	}
	if ciA.Usage() != ciB.Usage() {
		t.Fatalf("usage diverges: %+v vs %+v", ciA.Usage(), ciB.Usage())
	}
}

// TestDegradeContinuesThroughOutage: with Degrade set, a CI that never
// answers defers every relay instead of aborting; nothing is billed and no
// detection is claimed.
func TestDegradeContinuesThroughOutage(t *testing.T) {
	ex, ci, cfg := setup(t)
	backend := cloud.Inject(ci, cloud.FaultPlan{Seed: 1, TransientRate: 1, FailLatencyMS: 10})
	costs := withRetries(EventHitCosts(cfg.Window), 1)
	costs.Degrade = true
	m, _ := New(ex, strategy.Opt{}, backend, cfg, costs)
	rep, recs, preds, outs, err := m.RunDetailed(0, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(preds) != len(recs) {
		t.Fatalf("run did not proceed: %d recs, %d preds", len(recs), len(preds))
	}
	if rep.CIDeferred == 0 || rep.CIDeferred != len(outs) {
		t.Fatalf("CIDeferred = %d, outcomes = %d", rep.CIDeferred, len(outs))
	}
	for _, o := range outs {
		if !o.Deferred || o.Detections != 0 {
			t.Fatalf("outcome %+v should be a zero-detection deferral", o)
		}
		if o.Horizon < 0 || o.Horizon >= len(preds) {
			t.Fatalf("outcome horizon %d out of range", o.Horizon)
		}
		if !preds[o.Horizon].Occur[o.Event] {
			t.Fatalf("outcome %+v does not match a relayed prediction", o)
		}
	}
	if rep.SpentUSD != 0 || rep.CIFrames != 0 || rep.Detections != 0 {
		t.Fatalf("deferred relays were billed or detected: %+v", rep)
	}
	if rep.BreakerTrips == 0 {
		t.Fatal("a total outage should trip the breaker")
	}
	if rep.CIMS == 0 {
		t.Fatal("failed attempts consumed no simulated time")
	}
}

// TestNoDegradeAbortsOnExhaustion: same total outage without Degrade must
// abort, preserving the pre-resilience contract.
func TestNoDegradeAbortsOnExhaustion(t *testing.T) {
	ex, ci, cfg := setup(t)
	backend := cloud.Inject(ci, cloud.FaultPlan{Seed: 1, TransientRate: 1})
	costs := EventHitCosts(cfg.Window)
	m, _ := New(ex, strategy.Opt{}, backend, cfg, costs)
	_, _, _, err := m.Run(0, 30000)
	if err == nil {
		t.Fatal("exhausted relay without Degrade must abort")
	}
	if !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("error does not wrap the CI cause: %v", err)
	}
}

// TestReportIsPerRun: the CI and client meters behind a Marshaller are
// cumulative, a Report is not — the same range marshalled twice by one
// Marshaller reports the same run twice (CIFrames used to come back doubled
// the second time).
func TestReportIsPerRun(t *testing.T) {
	ex, ci, cfg := setup(t)
	m, err := New(ex, strategy.BF{Horizon: cfg.Horizon}, ci, cfg, EventHitCosts(cfg.Window))
	if err != nil {
		t.Fatal(err)
	}
	first, _, _, err := m.Run(0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	second, _, _, err := m.Run(0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if first.CIFrames == 0 || first.SpentUSD == 0 || first.CIMS == 0 {
		t.Fatalf("run relayed nothing: %+v", first)
	}
	// The bill is a difference of two running float totals: equal to the
	// first run's up to rounding, every other field exactly.
	if math.Abs(second.SpentUSD-first.SpentUSD) > 1e-9*first.SpentUSD {
		t.Fatalf("second run spent $%v, first $%v", second.SpentUSD, first.SpentUSD)
	}
	second.SpentUSD = first.SpentUSD
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second run reports\n%+v\nfirst\n%+v", second, first)
	}
}
