package pipeline

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
)

// marshalRun is everything one marshalling run hands back or leaves
// behind: RunDetailed's report, records, predictions and outcomes, the
// backend's usage, and Collect's timeline from a second marshaller.
type marshalRun struct {
	rep   Report
	recs  []dataset.Record
	preds []metrics.Prediction
	outs  []RelayOutcome
	usage cloud.Usage
	tl    Timeline
}

// TestDecideParallelMatchesSerial: the decide stage builds and decides
// every horizon on every core, then the relays follow in horizon order.
// At GOMAXPROCS 1, 2, 3 and 8 RunDetailed and Collect return the same
// report, records, predictions, requests (Seq, ReleaseMS and cache keys
// included), outcomes and CI usage as a per-horizon serial loop does —
// for the trained EHCR and for the oracle, over a CI with transient faults
// and retries, a result cache and graceful degradation, and over the plain
// and the cached covariate source.
func TestDecideParallelMatchesSerial(t *testing.T) {
	b := getBundle(t)
	run := func(s strategy.Strategy, cached bool) marshalRun {
		var out marshalRun
		for _, collect := range []bool{false, true} {
			ex, ci, cfg := setup(t)
			var src dataset.Source = ex
			if cached {
				cs, err := features.NewCachedSource(ex)
				if err != nil {
					t.Fatal(err)
				}
				src = cs
			}
			costs := withRetries(EventHitCosts(cfg.Window), 3)
			costs.Degrade = true
			cc := cicache.DefaultConfig()
			costs.Cache = &cc
			backend := cloud.Inject(ci, cloud.FaultPlan{Seed: 7, TransientRate: 0.3, FailLatencyMS: 5})
			m, err := New(src, s, backend, cfg, costs)
			if err != nil {
				t.Fatal(err)
			}
			if collect {
				if out.tl, err = m.Collect(500, 30000); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if out.rep, out.recs, out.preds, out.outs, err = m.RunDetailed(500, 30000); err != nil {
				t.Fatal(err)
			}
			out.usage = ci.Usage()
		}
		return out
	}
	// serial is the loop the decide stage replaced: anchor by anchor, build
	// the record and decide it.
	serial := func(s strategy.Strategy) ([]dataset.Record, []metrics.Prediction) {
		ex, _, cfg := setup(t)
		var recs []dataset.Record
		var preds []metrics.Prediction
		for a := 500; a+cfg.Horizon <= 30000; a += cfg.Horizon {
			rec, err := dataset.BuildRecord(ex, a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recs, preds = append(recs, rec), append(preds, s.Predict(rec))
		}
		return recs, preds
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, s := range []strategy.Strategy{b.EHCR(0.9, 0.9), strategy.Opt{}} {
		wantRecs, wantPreds := serial(s)
		var want marshalRun
		for _, p := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(p)
			for _, cached := range []bool{false, true} {
				what := fmt.Sprintf("%s GOMAXPROCS=%d cached=%v", s.Name(), p, cached)
				got := run(s, cached)
				if !reflect.DeepEqual(got.recs, wantRecs) || !reflect.DeepEqual(got.preds, wantPreds) {
					t.Fatalf("%s: records or predictions differ from the serial loop's", what)
				}
				if !reflect.DeepEqual(got.tl.Records, wantRecs) || !reflect.DeepEqual(got.tl.Preds, wantPreds) {
					t.Fatalf("%s: Collect's records or predictions differ from the serial loop's", what)
				}
				if p == 1 && !cached {
					want = got
					if len(want.outs) == 0 || len(want.tl.Requests) == 0 || want.rep.CIRetried == 0 {
						t.Fatalf("%s: %d outcomes, %d requests, %d retried: the run exercises too little", what, len(want.outs), len(want.tl.Requests), want.rep.CIRetried)
					}
					continue
				}
				if !reflect.DeepEqual(got.rep, want.rep) {
					t.Fatalf("%s: report %+v, serial %+v", what, got.rep, want.rep)
				}
				if !reflect.DeepEqual(got.outs, want.outs) || got.usage != want.usage {
					t.Fatalf("%s: outcomes or CI usage %+v differ from serial %+v", what, got.usage, want.usage)
				}
				if !reflect.DeepEqual(got.tl, want.tl) {
					t.Fatalf("%s: Collect's timeline differs from the serial one", what)
				}
			}
		}
	}
}

// TestDecideReturnsLowestAnchorError: an anchor the source cannot serve
// fails the run with the first such anchor's error, at any GOMAXPROCS.
func TestDecideReturnsLowestAnchorError(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, p := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(p)
		ex, ci, cfg := setup(t)
		m, err := New(failingSource{ex, 2100}, strategy.Opt{}, ci, cfg, EventHitCosts(cfg.Window))
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, err = m.Run(100, 5000)
		if want := "pipeline: anchor 2100: no covariates at or after 2100"; err == nil || err.Error() != want {
			t.Fatalf("GOMAXPROCS=%d: error %v, want %q", p, err, want)
		}
		if u := ci.Usage(); u.Requests != 0 {
			t.Fatalf("GOMAXPROCS=%d: a failed run made %d CI requests", p, u.Requests)
		}
	}
}

// failingSource fails every window ending at or after from.
type failingSource struct {
	*features.Extractor
	from int
}

func (s failingSource) Covariates(t, m int) ([][]float64, error) {
	if t >= s.from {
		return nil, fmt.Errorf("no covariates at or after %d", s.from)
	}
	return s.Extractor.Covariates(t, m)
}
