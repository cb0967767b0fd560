package pipeline

import (
	"errors"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/resilience"
	"eventhit/internal/video"
)

// TestRelayServeContract is the degrade-to-deferred contract of the one
// relay path both drivers use, one row per fate: a request is served
// (billed, timed, its detections returned), served after retries, or
// deferred — unbilled, with the attempts it burned charged — and a cache hit
// is served unbilled at zero latency. Faults come from real cloud.Inject
// plans, the policy is resilience.DefaultConfig.
func TestRelayServeContract(t *testing.T) {
	st := video.Generate(video.THUMOS(), mathx.NewRNG(1))
	in := st.ByType[0][0].OI
	win := video.Interval{Start: in.Start - 10, End: in.End + 10}
	other := video.Interval{Start: win.Start + 1, End: win.End + 1}
	plain := RelayRequest{Horizon: 7, Event: 0, EventType: 0, Win: win}
	keyed := plain
	keyed.Key, keyed.Keyed = cicache.Key{Hi: 1, Lo: 2}, true
	found := len(cloud.NewService(st, cloud.RekognitionPricing(), cloud.DefaultLatency()).Peek(0, win))
	if found == 0 {
		t.Fatal("the relayed window must hold an instance")
	}
	nominalMS := float64(win.Len()) * cloud.DefaultLatency().PerFrameMS
	served := RelayOutcome{Horizon: 7, Detections: found}
	outage := cloud.FaultPlan{Outages: []cloud.ReqWindow{{Start: 0, End: 1 << 20}}, FailLatencyMS: 5}

	cases := []struct {
		name   string
		plan   cloud.FaultPlan
		cache  bool
		before []RelayRequest // sent first, outcomes ignored
		rq     RelayRequest
		want   RelayOutcome
		// billed frames, backend attempts and simulated ms of rq alone.
		billed   int64
		attempts int64
		ms       func(float64) bool
	}{
		{name: "served", rq: plain, want: served,
			billed: int64(win.Len()), attempts: 1, ms: func(ms float64) bool { return ms == nominalMS }},
		{name: "failed attempt then served", plan: cloud.FaultPlan{Outages: []cloud.ReqWindow{{Start: 0, End: 1}}, FailLatencyMS: 5},
			rq: plain, want: RelayOutcome{Horizon: 7, Detections: found, Retried: true},
			billed: int64(win.Len()), attempts: 2, ms: func(ms float64) bool { return ms > nominalMS+5 }},
		{name: "outage defers, unbilled, attempts charged", plan: outage, rq: plain,
			want:   RelayOutcome{Horizon: 7, Deferred: true},
			billed: 0, attempts: 3, ms: func(ms float64) bool { return ms > 3*5 }},
		// Three failed attempts, then two more trip the breaker (five in a
		// row); the backoff waits since fall far short of its cooldown.
		{name: "open breaker defers without an attempt", plan: outage,
			before: []RelayRequest{plain, plain}, rq: plain, want: RelayOutcome{Horizon: 7, Deferred: true},
			billed: 0, attempts: 0, ms: func(ms float64) bool { return ms == 0 }},
		{name: "keyed cache hit", cache: true, before: []RelayRequest{keyed}, rq: keyed, want: served,
			billed: 0, attempts: 1, ms: func(ms float64) bool { return ms == 0 }},
		{name: "unkeyed on a cache: exact-key hit", cache: true, before: []RelayRequest{plain}, rq: plain, want: served,
			billed: 0, attempts: 1, ms: func(ms float64) bool { return ms == 0 }},
		{name: "unkeyed on a cache: another window misses", cache: true, before: []RelayRequest{plain},
			rq: RelayRequest{Horizon: 7, Win: other}, want: RelayOutcome{Horizon: 7, Detections: found},
			billed: int64(other.Len()), attempts: 1, ms: func(ms float64) bool { return ms == nominalMS }},
		{name: "unkeyed on a cache ignores content keys", cache: true, before: []RelayRequest{keyed}, rq: plain, want: served,
			billed: int64(win.Len()), attempts: 1, ms: func(ms float64) bool { return ms == nominalMS }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ci := cloud.Inject(cloud.NewService(st, cloud.RekognitionPricing(), cloud.DefaultLatency()), tc.plan)
			var cache cicache.Remote
			if tc.cache {
				c, err := cicache.New(cicache.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				cache = c
			}
			r := NewRelay(ci, cache, cloud.PerFrameUSDOf(ci), resilience.DefaultConfig(1), nil)
			for _, b := range tc.before {
				r.Serve(b)
			}
			u0, s0 := ci.Usage().Frames, r.Client().Stats()
			out, err := r.Serve(tc.rq)
			s1 := r.Client().Stats()
			if out != tc.want {
				t.Errorf("outcome %+v, want %+v", out, tc.want)
			}
			if (err != nil) != tc.want.Deferred {
				t.Errorf("err = %v with deferred %v", err, tc.want.Deferred)
			}
			if tc.attempts == 0 && !errors.Is(err, resilience.ErrOpen) {
				t.Errorf("err = %v, want the open breaker", err)
			}
			if got := ci.Usage().Frames - u0; got != tc.billed {
				t.Errorf("billed %d frames, want %d", got, tc.billed)
			}
			if got := s1.Attempts - s0.Attempts; got != tc.attempts {
				t.Errorf("%d backend attempts, want %d", got, tc.attempts)
			}
			if ms := s1.BusyMS - s0.BusyMS; !tc.ms(ms) {
				t.Errorf("busy %v ms (nominal %v)", ms, nominalMS)
			}
		})
	}
}

// TestAppendRequests: one request per relayed event in event order, the
// window made absolute at the record's anchor, and a content key exactly
// when the relay has a cache — an exact-match key, so a nearby window
// signs to another.
func TestAppendRequests(t *testing.T) {
	rec := dataset.Record{Frame: 100, X: [][]float64{{0.5, 0.25}}}
	near := dataset.Record{Frame: 900, X: [][]float64{{0.51, 0.26}}}
	events := []int{4, 5, 6}
	pred := metrics.Prediction{
		Occur: []bool{true, false, true},
		OI:    []video.Interval{{Start: 3, End: 9}, {}, {Start: 1, End: 2}},
	}
	svc := cloud.NewService(video.Generate(video.THUMOS(), mathx.NewRNG(1)), cloud.RekognitionPricing(), cloud.DefaultLatency())
	cache, err := cicache.New(cicache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    *Relay
	}{{"no cache", nil}, {"cache", NewRelay(svc, cache, 0, resilience.DefaultConfig(0), nil)}} {
		got := tc.r.AppendRequests([]RelayRequest{{}}, rec, events, &pred, 2, 1.5)
		twins := tc.r.AppendRequests(nil, near, events, &pred, 0, 0)
		if len(got) != 3 || len(twins) != 2 {
			t.Fatalf("%s: %d and %d requests, want 1+2 and 2", tc.name, len(got), len(twins))
		}
		for i, k := range []int{0, 2} {
			rq := got[1+i]
			if rq.Keyed != (tc.r != nil) || (rq.Key == cicache.Key{}) == rq.Keyed {
				t.Errorf("%s: request %d keyed=%v key=%v", tc.name, i, rq.Keyed, rq.Key)
			}
			if rq.Keyed && rq.Key == twins[i].Key {
				t.Errorf("%s: request %d shares its key with the nearby window", tc.name, i)
			}
			rq.Key, rq.Keyed = cicache.Key{}, false
			want := RelayRequest{Seq: 1 + i, Horizon: 2, Event: k, EventType: events[k],
				Win:         video.Interval{Start: 100 + pred.OI[k].Start, End: 100 + pred.OI[k].End},
				SlackFrames: pred.OI[k].Start, ReleaseMS: 1.5}
			if rq != want {
				t.Errorf("%s: request %d = %+v, want %+v", tc.name, i, rq, want)
			}
		}
		if got[1].Keyed && got[1].Key == got[2].Key {
			t.Errorf("%s: two events signed alike", tc.name)
		}
	}
}
