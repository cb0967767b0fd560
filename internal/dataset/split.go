package dataset

import (
	"fmt"

	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

// SampleConfig controls how many records each split receives and how
// training records are sampled.
type SampleConfig struct {
	Config
	// NTrain, NCCalib, NRCalib, NTest are the record counts for the
	// training set, the C-CLASSIFY calibration set, the C-REGRESS
	// calibration set and the test set.
	NTrain, NCCalib, NRCalib, NTest int
	// TrainPosFrac, when positive, stratifies training sampling so roughly
	// this fraction of training records contains at least one event.
	// Calibration and test sets are always sampled uniformly (they must be
	// exchangeable with each other for the conformal guarantees).
	TrainPosFrac float64
}

// Splits holds the four record sets, in stream order: training on the
// first half of the stream, both calibration sets on the next quarter,
// test on the final quarter.
type Splits struct {
	Train  []Record
	CCalib []Record
	RCalib []Record
	Test   []Record
}

// region is a sampling range of admissible anchor frames.
type region struct{ lo, hi int }

func (r region) width() int { return r.hi - r.lo + 1 }

// Build samples all four splits from ex's stream.
func Build(ex Source, cfg SampleConfig, g *mathx.RNG) (*Splits, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := ex.Stream()
	minAnchor := cfg.Window - 1
	maxAnchor := st.N - cfg.Horizon - 1
	if maxAnchor-minAnchor < 100 {
		return nil, fmt.Errorf("dataset: stream of %d frames too short for M=%d H=%d",
			st.N, cfg.Window, cfg.Horizon)
	}
	span := maxAnchor - minAnchor + 1
	trainR := region{minAnchor, minAnchor + span/2 - 1}
	calibR := region{trainR.hi + 1, minAnchor + 3*span/4 - 1}
	testR := region{calibR.hi + 1, maxAnchor}

	s := &Splits{}
	var err error
	if s.Train, err = sampleRegion(ex, cfg.Config, trainR, cfg.NTrain, cfg.TrainPosFrac, g.Split(1)); err != nil {
		return nil, err
	}
	if s.CCalib, err = sampleRegion(ex, cfg.Config, calibR, cfg.NCCalib, 0, g.Split(2)); err != nil {
		return nil, err
	}
	if s.RCalib, err = sampleRegion(ex, cfg.Config, calibR, cfg.NRCalib, 0, g.Split(3)); err != nil {
		return nil, err
	}
	if s.Test, err = sampleRegion(ex, cfg.Config, testR, cfg.NTest, 0, g.Split(4)); err != nil {
		return nil, err
	}
	return s, nil
}

// sampleRegion draws n records with anchors in reg. When posFrac > 0, that
// fraction of anchors is drawn near event instances so the record's
// horizon contains the event.
func sampleRegion(ex Source, cfg Config, reg region, n int, posFrac float64, g *mathx.RNG) ([]Record, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]Record, 0, n)
	for len(out) < n {
		var t int
		if posFrac > 0 && g.Float64() < posFrac {
			var ok bool
			t, ok = anchorNearInstance(ex, cfg, reg, g)
			if !ok {
				t = reg.lo + g.Intn(reg.width())
			}
		} else {
			t = reg.lo + g.Intn(reg.width())
		}
		r, err := BuildRecord(ex, t, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}

	return out, nil
}

// anchorNearInstance picks a random instance of a random task event inside
// reg and anchors the record so the instance starts within the horizon.
func anchorNearInstance(ex Source, cfg Config, reg region, g *mathx.RNG) (int, bool) {
	st := ex.Stream()
	events := ex.Events()
	k := events[g.Intn(len(events))]
	candidates := st.InstancesOverlapping(k, video.Interval{Start: reg.lo, End: reg.hi + cfg.Horizon})
	if len(candidates) == 0 {
		return 0, false
	}
	in := candidates[g.Intn(len(candidates))]
	offset := 1 + g.Intn(cfg.Horizon)
	t := in.OI.Start - offset
	if t < reg.lo || t > reg.hi {
		return 0, false
	}
	return t, true
}
