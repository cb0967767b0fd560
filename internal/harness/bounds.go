package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// Acceptance bounds of the committed artifacts (Experiment.Check). Each is
// an invariant of its experiment, not a pinned value: it must hold for the
// committed BENCH_*.json and for any regeneration.

// checked lifts typed acceptance bounds to Experiment.Check: strict decode
// into the entry's result type, then the bounds.
func checked[T any](bounds func(*T) error) func([]byte) error {
	return func(raw []byte) error {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var res T
		if err := dec.Decode(&res); err != nil {
			return fmt.Errorf("does not match the %T schema: %w", res, err)
		}
		return bounds(&res)
	}
}

// resilienceBounds: degradation is honest — realized recall never exceeds
// model recall — and, over the sweep's ascending fault rates, more faults
// never buy more realized recall.
func resilienceBounds(r *ResilienceResult) error {
	if len(r.Points) == 0 {
		return fmt.Errorf("no sweep points")
	}
	for i, p := range r.Points {
		if p.RealizedREC > p.REC+1e-12 {
			return fmt.Errorf("fault rate %v: realized REC %v above model REC %v", p.FaultRate, p.RealizedREC, p.REC)
		}
		if i > 0 && p.RealizedREC > r.Points[i-1].RealizedREC+1e-12 {
			return fmt.Errorf("realized REC rises from %v to %v as the fault rate grows to %v",
				r.Points[i-1].RealizedREC, p.RealizedREC, p.FaultRate)
		}
	}
	return nil
}

// fleetBounds: the bill obeys the cap and every stream's relays are exactly
// partitioned into served, deferred and shed.
func fleetBounds(r *FleetResult) error {
	rep := r.Report
	if len(rep.Streams) != r.Streams {
		return fmt.Errorf("%d stream reports for %d streams", len(rep.Streams), r.Streams)
	}
	if rep.BudgetUSD > 0 && rep.TotalSpentUSD > rep.BudgetUSD {
		return fmt.Errorf("spent $%v over the $%v cap", rep.TotalSpentUSD, rep.BudgetUSD)
	}
	for _, s := range rep.Streams {
		if s.Served+s.Deferred+s.Shed != s.Relays {
			return fmt.Errorf("stream %s: served %d + deferred %d + shed %d != relays %d",
				s.ID, s.Served, s.Deferred, s.Shed, s.Relays)
		}
		if s.RealizedREC > s.REC+1e-12 {
			return fmt.Errorf("stream %s: realized REC %v above model REC %v", s.ID, s.RealizedREC, s.REC)
		}
	}
	return nil
}

// cacheBounds: no hit ever hid a true occurrence, and the exact-match
// control gives away no recall at all.
func cacheBounds(r *CacheResult) error {
	if len(r.Points) == 0 {
		return fmt.Errorf("no sweep points")
	}
	for _, p := range r.Points {
		if p.BadHits != 0 {
			return fmt.Errorf("epsilon %v TTL %d: %d bad hits", p.Epsilon, p.TTLFrames, p.BadHits)
		}
		if p.Epsilon == 0 && p.RECDelta != 0 {
			return fmt.Errorf("epsilon 0 TTL %d: REC delta %v, want exactly 0", p.TTLFrames, p.RECDelta)
		}
	}
	return nil
}

// cascadeBounds: the selected point holds EventHit's recall within
// CascadeRECTol at a compute cut of at least CascadeMinComputeCut, and at
// every point the integer exits sum to the horizons (so exit rates and
// compute shares each sum to 1).
func cascadeBounds(r *CascadeResult) error {
	if r.RECTol != CascadeRECTol || r.MinComputeCut != CascadeMinComputeCut {
		return fmt.Errorf("bars (%v, %v) drifted from the pinned constants (%v, %v)",
			r.RECTol, r.MinComputeCut, CascadeRECTol, CascadeMinComputeCut)
	}
	if r.BaselineREC <= 0 || r.BaselineREC > 1 || len(r.Points) == 0 {
		return fmt.Errorf("degenerate sweep: baseline REC %v, %d points", r.BaselineREC, len(r.Points))
	}
	for _, p := range r.Points {
		at := fmt.Sprintf("point %s conf=%v width=%v", p.Ladder, p.ExitConfidence, p.MaxWidthFrac)
		if p.Horizons <= 0 || len(p.Rungs) < 2 || p.Rungs[len(p.Rungs)-1].Name != "full" {
			return fmt.Errorf("%s: degenerate ladder %+v", at, p.Rungs)
		}
		var exits int64
		rateSum, shareSum := 0.0, 0.0
		for _, rung := range p.Rungs {
			if rung.Exits < 0 || rung.CostMS <= 0 {
				return fmt.Errorf("%s: degenerate rung %+v", at, rung)
			}
			exits += rung.Exits
			rateSum += rung.ExitRate
			shareSum += rung.ComputeShare
		}
		if exits != p.Horizons || math.Abs(rateSum-1) > 1e-9 || math.Abs(shareSum-1) > 1e-9 {
			return fmt.Errorf("%s: exits %d of %d horizons, exit rates sum to %v, compute shares to %v",
				at, exits, p.Horizons, rateSum, shareSum)
		}
		if math.Abs((1-p.ComputeFrac)-p.ComputeCut) > 1e-9 {
			return fmt.Errorf("%s: compute cut %v inconsistent with frac %v", at, p.ComputeCut, p.ComputeFrac)
		}
	}
	sel := r.Selected
	if math.Abs(sel.RECDelta) > r.RECTol {
		return fmt.Errorf("selected point REC delta %.4f exceeds the %.2f bound", sel.RECDelta, r.RECTol)
	}
	if sel.ComputeCut < r.MinComputeCut {
		return fmt.Errorf("selected point compute cut %.2f below the %.0f%% bound", sel.ComputeCut, 100*r.MinComputeCut)
	}
	return nil
}
