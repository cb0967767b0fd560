package video

import (
	"math"
	"testing"
	"testing/quick"

	"eventhit/internal/mathx"
)

func TestIntervalLen(t *testing.T) {
	if (Interval{3, 7}).Len() != 5 {
		t.Fatal("Len broken")
	}
	if (Interval{7, 3}).Len() != 0 {
		t.Fatal("inverted interval must have Len 0")
	}
	if (Interval{4, 4}).Len() != 1 {
		t.Fatal("singleton interval")
	}
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{2, 5}
	for _, c := range []struct {
		t    int
		want bool
	}{{1, false}, {2, true}, {5, true}, {6, false}} {
		if iv.Contains(c.t) != c.want {
			t.Errorf("Contains(%d) != %v", c.t, c.want)
		}
	}
}

func TestIntervalIntersect(t *testing.T) {
	a := Interval{1, 10}
	b := Interval{5, 20}
	got, ok := a.Intersect(b)
	if !ok || got != (Interval{5, 10}) {
		t.Fatalf("Intersect = %v,%v", got, ok)
	}
	if _, ok := a.Intersect(Interval{11, 12}); ok {
		t.Fatal("disjoint intervals must not intersect")
	}
	if !a.Overlaps(b) || a.Overlaps(Interval{11, 12}) {
		t.Fatal("Overlaps inconsistent")
	}
}

func TestIntervalIntersectionCommutative(t *testing.T) {
	f := func(a1, a2, b1, b2 int8) bool {
		a := Interval{int(a1), int(a2)}
		b := Interval{int(b1), int(b2)}
		x, okx := a.Intersect(b)
		y, oky := b.Intersect(a)
		return okx == oky && x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalIntersectSubset(t *testing.T) {
	f := func(a1, a2, b1, b2 int8) bool {
		a := Interval{int(a1), int(a2)}
		b := Interval{int(b1), int(b2)}
		x, ok := a.Intersect(b)
		if !ok {
			return true
		}
		return x.Start >= a.Start && x.End <= a.End && x.Start >= b.Start && x.End <= b.End && x.Len() > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhaseString(t *testing.T) {
	if Idle.String() != "idle" || Precursor.String() != "precursor" || Active.String() != "active" {
		t.Fatal("Phase.String broken")
	}
	if Phase(42).String() == "" {
		t.Fatal("unknown phase should still render")
	}
}

func TestSpecLookups(t *testing.T) {
	v := VIRAT()
	idx, err := v.EventIndexByID(5)
	if err != nil || v.Events[idx].ID != 5 {
		t.Fatalf("EventIndexByID: %v %v", idx, err)
	}
	if _, err := v.EventIndexByID(9); err == nil {
		t.Fatal("VIRAT should not contain E9")
	}
	for id := 1; id <= 12; id++ {
		spec, err := SpecByEventID(id)
		if err != nil {
			t.Fatalf("SpecByEventID(%d): %v", id, err)
		}
		if _, err := spec.EventIndexByID(id); err != nil {
			t.Fatalf("spec %s missing its own event E%d", spec.Name, id)
		}
	}
	if _, err := SpecByEventID(13); err == nil {
		t.Fatal("expected error for E13")
	}
}

func TestGenerateMatchesTableI(t *testing.T) {
	// Averaged over a few seeds, occurrence counts and duration stats must
	// land near the Table I targets.
	for _, spec := range []DatasetSpec{VIRAT(), THUMOS(), Breakfast()} {
		for k, ev := range spec.Events {
			var counts, means float64
			trials := 5
			for seed := 0; seed < trials; seed++ {
				s := Generate(spec, mathx.NewRNG(int64(100+seed)))
				d := s.Durations(k)
				counts += float64(len(d))
				means += mathx.Mean(d)
			}
			counts /= float64(trials)
			means /= float64(trials)
			if math.Abs(counts-float64(ev.Occurrences)) > 0.25*float64(ev.Occurrences)+3 {
				t.Errorf("%s/%s occurrences = %.1f, want ~%d", spec.Name, ev.Name, counts, ev.Occurrences)
			}
			if math.Abs(means-ev.MeanDur) > 0.15*ev.MeanDur+3 {
				t.Errorf("%s/%s mean duration = %.1f, want ~%.1f", spec.Name, ev.Name, means, ev.MeanDur)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(THUMOS(), mathx.NewRNG(7))
	b := Generate(THUMOS(), mathx.NewRNG(7))
	for k := range a.ByType {
		if len(a.ByType[k]) != len(b.ByType[k]) {
			t.Fatal("nondeterministic generation")
		}
		for i := range a.ByType[k] {
			if a.ByType[k][i] != b.ByType[k][i] {
				t.Fatal("nondeterministic instance")
			}
		}
	}
}

func TestInstancesSortedNonOverlapping(t *testing.T) {
	s := Generate(VIRAT(), mathx.NewRNG(3))
	for k, ins := range s.ByType {
		for i := range ins {
			in := ins[i]
			if in.OI.Start < 0 || in.OI.End >= s.N || in.OI.Len() < minDuration {
				t.Fatalf("type %d instance %d bad OI %v", k, i, in.OI)
			}
			if in.PrecursorStart > in.OI.Start {
				t.Fatalf("precursor after start: %+v", in)
			}
			if i > 0 && ins[i-1].OI.End >= in.OI.Start {
				t.Fatalf("type %d instances %d,%d overlap", k, i-1, i)
			}
		}
	}
}

func TestFirstOverlappingAndInstancesOverlapping(t *testing.T) {
	s := &Stream{
		Spec: DatasetSpec{Events: make([]EventSpec, 1)},
		N:    1000,
		ByType: [][]Instance{{
			{OI: Interval{100, 150}, PrecursorStart: 50},
			{OI: Interval{300, 340}, PrecursorStart: 250},
			{OI: Interval{600, 700}, PrecursorStart: 500},
		}},
	}
	if in, ok := s.FirstOverlapping(0, Interval{0, 99}); ok {
		t.Fatalf("unexpected overlap %v", in)
	}
	in, ok := s.FirstOverlapping(0, Interval{140, 400})
	if !ok || in.OI.Start != 100 {
		t.Fatalf("FirstOverlapping = %v,%v", in, ok)
	}
	got := s.InstancesOverlapping(0, Interval{140, 650})
	if len(got) != 3 {
		t.Fatalf("InstancesOverlapping len = %d, want 3", len(got))
	}
	got = s.InstancesOverlapping(0, Interval{160, 299})
	if len(got) != 0 {
		t.Fatalf("expected no overlaps, got %v", got)
	}
}

func TestPhaseAt(t *testing.T) {
	s := &Stream{
		Spec: DatasetSpec{Events: make([]EventSpec, 1)},
		N:    1000,
		ByType: [][]Instance{{
			{OI: Interval{100, 199}, PrecursorStart: 50},
		}},
	}
	if p, _ := s.PhaseAt(0, 10); p != Idle {
		t.Fatal("frame 10 should be idle")
	}
	p, prog := s.PhaseAt(0, 50)
	if p != Precursor || prog <= 0 || prog > 0.05 {
		t.Fatalf("frame 50 = %v %v", p, prog)
	}
	p, prog = s.PhaseAt(0, 99)
	if p != Precursor || prog != 1 {
		t.Fatalf("frame 99 = %v %v, want precursor 1", p, prog)
	}
	p, prog = s.PhaseAt(0, 100)
	if p != Active || prog != 0 {
		t.Fatalf("frame 100 = %v %v, want active 0", p, prog)
	}
	p, prog = s.PhaseAt(0, 199)
	if p != Active || prog != 1 {
		t.Fatalf("frame 199 = %v %v, want active 1", p, prog)
	}
	if p, _ := s.PhaseAt(0, 200); p != Idle {
		t.Fatal("frame 200 should be idle")
	}
	if p, _ := s.PhaseAt(0, 900); p != Idle {
		t.Fatal("frame past all instances should be idle")
	}
}

func TestPhaseProgressMonotone(t *testing.T) {
	s := Generate(THUMOS(), mathx.NewRNG(11))
	in := s.ByType[0][0]
	prev := -1.0
	for f := in.PrecursorStart; f < in.OI.Start; f++ {
		ph, prog := s.PhaseAt(0, f)
		if ph != Precursor {
			t.Fatalf("frame %d: phase %v", f, ph)
		}
		if prog <= prev {
			t.Fatalf("precursor progress not increasing at %d", f)
		}
		prev = prog
	}
}

func TestEventFrames(t *testing.T) {
	s := &Stream{
		Spec: DatasetSpec{Events: make([]EventSpec, 1)},
		N:    1000,
		ByType: [][]Instance{{
			{OI: Interval{100, 149}},
			{OI: Interval{300, 309}},
		}},
	}
	if n := s.EventFrames(0, Interval{0, 999}); n != 60 {
		t.Fatalf("EventFrames = %d, want 60", n)
	}
	if n := s.EventFrames(0, Interval{120, 305}); n != 30+6 {
		t.Fatalf("clipped EventFrames = %d, want 36", n)
	}
	if n := s.EventFrames(0, Interval{150, 299}); n != 0 {
		t.Fatalf("EventFrames = %d, want 0", n)
	}
}

func TestGenerateStdRoughlyMatches(t *testing.T) {
	// Duration std should land in the right ballpark for a high-variance
	// event (E5, std 158.8) — truncation shrinks it somewhat.
	spec := VIRAT()
	s := Generate(spec, mathx.NewRNG(21))
	idx, _ := spec.EventIndexByID(5)
	std := mathx.Std(s.Durations(idx))
	if std < 80 || std > 220 {
		t.Errorf("E5 duration std = %.1f, want in [80,220]", std)
	}
}
