package cloud

import (
	"errors"
	"math"
	"testing"

	"eventhit/internal/video"
)

func TestFaultPlanZeroValueInactive(t *testing.T) {
	var p FaultPlan
	for i := int64(0); i < 1000; i++ {
		if f := p.At(i); f.Err != nil || f.ExtraMS != 0 {
			t.Fatalf("zero plan injected %+v at %d", f, i)
		}
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	p := FaultPlan{Seed: 42, TransientRate: 0.3, SpikeRate: 0.2, SpikeMS: 100, FailLatencyMS: 5}
	q := p // identical plan, separate value
	for i := int64(0); i < 5000; i++ {
		a, b := p.At(i), q.At(i)
		if !errors.Is(a.Err, ErrUnavailable) && a.Err != nil {
			t.Fatalf("unexpected error class %v", a.Err)
		}
		if (a.Err == nil) != (b.Err == nil) || a.ExtraMS != b.ExtraMS {
			t.Fatalf("plan not deterministic at %d: %+v vs %+v", i, a, b)
		}
	}
	// A different seed must give a different fault sequence.
	r := p
	r.Seed = 43
	same := 0
	for i := int64(0); i < 1000; i++ {
		if (p.At(i).Err == nil) == (r.At(i).Err == nil) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("distinct seeds produced identical sequences")
	}
}

func TestFaultPlanTransientRateRealized(t *testing.T) {
	p := FaultPlan{Seed: 7, TransientRate: 0.25}
	n, fails := int64(20000), 0
	for i := int64(0); i < n; i++ {
		if p.At(i).Err != nil {
			fails++
		}
	}
	got := float64(fails) / float64(n)
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("realized transient rate %.3f, want ~0.25", got)
	}
}

func TestFaultPlanOutagePrecedence(t *testing.T) {
	p := FaultPlan{
		Seed:          1,
		TransientRate: 1, // would otherwise always fail transient
		Outages:       []ReqWindow{{Start: 10, End: 20}},
		FailLatencyMS: 3,
	}
	for i := int64(0); i < 30; i++ {
		f := p.At(i)
		inOutage := i >= 10 && i < 20
		if inOutage && !errors.Is(f.Err, ErrOutage) {
			t.Fatalf("request %d: want outage, got %v", i, f.Err)
		}
		if !inOutage && !errors.Is(f.Err, ErrUnavailable) {
			t.Fatalf("request %d: want transient, got %v", i, f.Err)
		}
		if f.ExtraMS != 3 {
			t.Fatalf("request %d: failure latency %v, want 3", i, f.ExtraMS)
		}
	}
}

func TestFaultPlanSpikeBounds(t *testing.T) {
	p := FaultPlan{Seed: 9, SpikeRate: 1, SpikeMS: 100}
	for i := int64(0); i < 1000; i++ {
		f := p.At(i)
		if f.Err != nil {
			t.Fatalf("spike-only plan failed request %d", i)
		}
		if f.ExtraMS < 50 || f.ExtraMS >= 150 {
			t.Fatalf("spike %v outside [50, 150)", f.ExtraMS)
		}
	}
}

func TestFaultyZeroPlanIsPassThrough(t *testing.T) {
	st := testStream()
	bare := NewService(st, RekognitionPricing(), DefaultLatency())
	wrapped := Inject(NewService(st, RekognitionPricing(), DefaultLatency()), FaultPlan{})
	win := video.Interval{Start: 100, End: 300}
	for i := 0; i < 50; i++ {
		d1, l1, e1 := bare.DetectTimed(0, win)
		d2, l2, e2 := wrapped.DetectTimed(0, win)
		if e1 != nil || e2 != nil {
			t.Fatal(e1, e2)
		}
		if l1 != l2 || len(d1.Found) != len(d2.Found) {
			t.Fatalf("pass-through mismatch: %v/%v, %d/%d found", l1, l2, len(d1.Found), len(d2.Found))
		}
	}
	if bare.Usage() != wrapped.Usage() {
		t.Fatalf("usage mismatch: %+v vs %+v", bare.Usage(), wrapped.Usage())
	}
}

func TestFaultyInjectedFailuresAreUnbilled(t *testing.T) {
	st := testStream()
	f := Inject(NewService(st, RekognitionPricing(), DefaultLatency()),
		FaultPlan{Seed: 3, TransientRate: 1, FailLatencyMS: 7})
	win := video.Interval{Start: 0, End: 99}
	for i := 0; i < 10; i++ {
		_, lat, err := f.DetectTimed(0, win)
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("want ErrUnavailable, got %v", err)
		}
		if lat != 7 {
			t.Fatalf("failure latency %v, want FailLatencyMS", lat)
		}
	}
	u := f.Usage()
	if u.Requests != 0 || u.SpentUSD != 0 || u.Frames != 0 {
		t.Fatalf("injected failures were billed: %+v", u)
	}
	fs := f.FaultStats()
	if fs.Requests != 10 || fs.Transients != 10 {
		t.Fatalf("stats = %+v", fs)
	}
}

func TestFaultySpikeAddsLatencyAndBills(t *testing.T) {
	st := testStream()
	f := Inject(NewService(st, RekognitionPricing(), DefaultLatency()),
		FaultPlan{Seed: 5, SpikeRate: 1, SpikeMS: 1000})
	win := video.Interval{Start: 500, End: 599}
	nominal := float64(win.Len()) * f.PerFrameMS()
	_, lat, err := f.DetectTimed(0, win)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= nominal {
		t.Fatalf("latency %v not above nominal %v", lat, nominal)
	}
	u := f.Usage()
	if u.Requests != 1 || u.SpentUSD <= 0 {
		t.Fatalf("spiked request not billed: %+v", u)
	}
	fs := f.FaultStats()
	if fs.Spikes != 1 || math.Abs(fs.SpikeMS-(lat-nominal)) > 1e-9 {
		t.Fatalf("spike stats = %+v (lat %v, nominal %v)", fs, lat, nominal)
	}
}
