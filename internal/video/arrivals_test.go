package video

import (
	"math"
	"testing"

	"eventhit/internal/mathx"
)

func TestArrivalProcessString(t *testing.T) {
	if PoissonArrivals.String() != "poisson" || GeometricArrivals.String() != "geometric" ||
		RegularArrivals.String() != "regular" || ArrivalProcess(99).String() != "unknown" {
		t.Fatal("String broken")
	}
}

func TestGenerateWithMatchesCounts(t *testing.T) {
	spec := THUMOS()
	for _, proc := range []ArrivalProcess{PoissonArrivals, GeometricArrivals, RegularArrivals} {
		var count float64
		trials := 4
		for seed := 0; seed < trials; seed++ {
			s := GenerateWith(spec, proc, 0, 1, mathx.NewRNG(int64(40+seed)))
			count += float64(len(s.ByType[0]))
		}
		count /= float64(trials)
		want := float64(spec.Events[0].Occurrences)
		if math.Abs(count-want) > 0.3*want {
			t.Errorf("%v occurrences = %.1f, want ~%.0f", proc, count, want)
		}
	}
}

func TestGenerateWithRateShift(t *testing.T) {
	spec := THUMOS()
	shift := spec.StreamLen / 2
	var before, after float64
	trials := 5
	for seed := 0; seed < trials; seed++ {
		s := GenerateWith(spec, PoissonArrivals, shift, 3, mathx.NewRNG(int64(60+seed)))
		for _, in := range s.ByType[0] {
			if in.OI.Start < shift {
				before++
			} else {
				after++
			}
		}
	}
	// Rate tripled in the second half: expect roughly 2.2-3x more arrivals
	// there (durations cap the achievable rate a little).
	if after < 1.6*before {
		t.Errorf("after-shift arrivals %.0f not clearly above before-shift %.0f", after, before)
	}
}

func TestGenerateWithRegularHasLowGapVariance(t *testing.T) {
	spec := THUMOS()
	gaps := func(s *Stream) []float64 {
		var out []float64
		ins := s.ByType[0]
		for i := 1; i < len(ins); i++ {
			out = append(out, float64(ins[i].OI.Start-ins[i-1].OI.End))
		}
		return out
	}
	reg := GenerateWith(spec, RegularArrivals, 0, 1, mathx.NewRNG(9))
	poi := GenerateWith(spec, PoissonArrivals, 0, 1, mathx.NewRNG(9))
	sr := mathx.Std(gaps(reg))
	sp := mathx.Std(gaps(poi))
	if sr >= sp/2 {
		t.Errorf("regular gap std %.1f not well below poisson %.1f", sr, sp)
	}
}

func TestGenerateWithInstancesValid(t *testing.T) {
	s := GenerateWith(Breakfast(), GeometricArrivals, 100_000, 2, mathx.NewRNG(5))
	for k, ins := range s.ByType {
		for i, in := range ins {
			if in.OI.Start < 0 || in.OI.End >= s.N || in.OI.Len() < minDuration {
				t.Fatalf("type %d instance %d invalid: %v", k, i, in.OI)
			}
			if i > 0 && ins[i-1].OI.End >= in.OI.Start {
				t.Fatalf("type %d overlapping instances at %d", k, i)
			}
		}
	}
}
