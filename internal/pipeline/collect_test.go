package pipeline

import (
	"reflect"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/obs"
	"eventhit/internal/strategy"
)

// TestCollectMatchesRun: collect mode captures exactly the relays a served
// run makes, with identical predictions, records and local stage times —
// and bills nothing.
func TestCollectMatchesRun(t *testing.T) {
	ex, ci, cfg := setup(t)
	costs := EventHitCosts(cfg.Window)
	mc, err := New(ex, strategy.Opt{}, ci, cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := mc.Collect(0, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if u := ci.Usage(); u.Frames != 0 || u.Requests != 0 {
		t.Fatalf("collect billed the CI: %+v", u)
	}

	mr, err := New(ex, strategy.Opt{}, ci, cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	rep, recs, preds, outs, err := mr.RunDetailed(0, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Horizons != rep.Horizons || tl.Frames != rep.Frames {
		t.Fatalf("horizons/frames: collect %d/%d, run %d/%d", tl.Horizons, tl.Frames, rep.Horizons, rep.Frames)
	}
	if tl.ScanMS != rep.ScanMS || tl.PredMS != rep.PredictMS {
		t.Fatalf("stage times: collect %v/%v, run %v/%v", tl.ScanMS, tl.PredMS, rep.ScanMS, rep.PredictMS)
	}
	if len(tl.Records) != len(recs) || len(tl.Preds) != len(preds) {
		t.Fatalf("records/preds: collect %d/%d, run %d/%d", len(tl.Records), len(tl.Preds), len(recs), len(preds))
	}
	if len(tl.Requests) != len(outs) {
		t.Fatalf("collect captured %d requests, run made %d relays", len(tl.Requests), len(outs))
	}
	for i, r := range tl.Requests {
		o := outs[i]
		if r.Horizon != o.Horizon || r.Event != o.Event {
			t.Fatalf("request %d targets (%d,%d), run relayed (%d,%d)", i, r.Horizon, r.Event, o.Horizon, o.Event)
		}
		if r.Seq != i {
			t.Fatalf("request %d has Seq %d", i, r.Seq)
		}
		p := tl.Preds[r.Horizon]
		if r.SlackFrames != p.OI[r.Event].Start {
			t.Fatalf("request %d slack %d, predicted start %d", i, r.SlackFrames, p.OI[r.Event].Start)
		}
		if r.Win.Len() <= 0 {
			t.Fatalf("request %d empty window %+v", i, r.Win)
		}
	}
}

// TestCollectAccountingMatchesRunDetailed: both modes go through the one
// marshalling step, so over the same region they charge the same stages and
// decide the same horizons under every cost model — flat EHCR costs and
// keyed (cached) relays.
func TestCollectAccountingMatchesRunDetailed(t *testing.T) {
	b := getBundle(t)
	cases := []struct {
		name  string
		costs func(Costs) Costs
		strat func() strategy.Strategy
	}{
		{"plain", func(c Costs) Costs { return c },
			func() strategy.Strategy { return b.EHCR(0.9, 0.9) }},
		{"cached", func(c Costs) Costs {
			cc := cicache.DefaultConfig()
			c.Cache = &cc
			return c
		}, func() strategy.Strategy { return b.EHCR(0.9, 0.9) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex, ci, cfg := setup(t)
			costs := tc.costs(EventHitCosts(cfg.Window))
			costs.Metrics = obs.NewRegistry()
			mc, err := New(ex, tc.strat(), ci, cfg, costs)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := mc.Collect(0, 30000)
			if err != nil {
				t.Fatal(err)
			}
			mr, err := New(ex, tc.strat(), ci, cfg, costs)
			if err != nil {
				t.Fatal(err)
			}
			rep, _, preds, outs, err := mr.RunDetailed(0, 30000)
			if err != nil {
				t.Fatal(err)
			}
			if tl.Horizons == 0 || tl.Horizons != rep.Horizons {
				t.Fatalf("horizons: collect %d, run %d", tl.Horizons, rep.Horizons)
			}
			if tl.ScanMS != rep.ScanMS || tl.PredMS != rep.PredictMS {
				t.Fatalf("stage times: collect scan %v pred %v, run scan %v pred %v",
					tl.ScanMS, tl.PredMS, rep.ScanMS, rep.PredictMS)
			}
			if !reflect.DeepEqual(tl.Preds, preds) {
				t.Fatal("collect and run decided different horizons")
			}
			if len(tl.Requests) == 0 || len(tl.Requests) != len(outs) {
				t.Fatalf("collect captured %d requests, run made %d relays", len(tl.Requests), len(outs))
			}
			for _, r := range tl.Requests {
				if r.Keyed != (costs.Cache != nil) {
					t.Fatalf("request %d keyed=%v with cache=%v", r.Seq, r.Keyed, costs.Cache != nil)
				}
			}
		})
	}
}

// TestCollectReleaseTimesMonotone: release times advance with the local
// clock, one scan+predict increment per horizon.
func TestCollectReleaseTimesMonotone(t *testing.T) {
	ex, ci, cfg := setup(t)
	costs := EventHitCosts(cfg.Window)
	m, err := New(ex, strategy.BF{Horizon: cfg.Horizon}, ci, cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := m.Collect(0, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Requests) != tl.Horizons {
		t.Fatalf("BF must relay once per horizon: %d requests, %d horizons", len(tl.Requests), tl.Horizons)
	}
	perHorizon := float64(costs.Scan.FramesPerHorizon)*costs.Scan.PerFrameMS + costs.PredictMS
	for i, r := range tl.Requests {
		want := float64(r.Horizon+1) * perHorizon
		if r.ReleaseMS != want {
			t.Fatalf("request %d released at %v, want %v", i, r.ReleaseMS, want)
		}
		if i > 0 && r.ReleaseMS < tl.Requests[i-1].ReleaseMS {
			t.Fatalf("release times not monotone at %d", i)
		}
	}
	if got := tl.LocalMS(); got != float64(tl.Horizons)*perHorizon {
		t.Fatalf("LocalMS = %v, want %v", got, float64(tl.Horizons)*perHorizon)
	}
}
