package conformal

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// classifierState is the gob form of a Classifier.
type classifierState struct {
	PosScores [][]float64
}

// Save writes the calibration state to w.
func (c *Classifier) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(classifierState{PosScores: c.posScores})
}

// LoadClassifier reads a Classifier written by Save.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	var s classifierState
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("conformal: decode classifier: %w", err)
	}
	if err := checkFinite("classifier score", s.PosScores); err != nil {
		return nil, err
	}
	if len(s.PosScores) == 0 {
		return nil, fmt.Errorf("conformal: classifier snapshot has no events")
	}
	for k, ps := range s.PosScores {
		if len(ps) == 0 {
			return nil, fmt.Errorf("conformal: classifier snapshot event %d has no positives", k)
		}
		for i := 1; i < len(ps); i++ {
			if ps[i] < ps[i-1] {
				return nil, fmt.Errorf("conformal: classifier snapshot event %d not sorted", k)
			}
		}
	}
	return &Classifier{posScores: s.PosScores}, nil
}

// regressorState is the gob form of a Regressor.
type regressorState struct {
	Horizon  int
	StartRes [][]float64
	EndRes   [][]float64
}

// Save writes the calibration state to w.
func (r *Regressor) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(regressorState{
		Horizon: r.horizon, StartRes: r.startRes, EndRes: r.endRes,
	})
}

// LoadRegressor reads a Regressor written by Save.
func LoadRegressor(rd io.Reader) (*Regressor, error) {
	if _, ok := rd.(io.ByteReader); !ok {
		rd = bufio.NewReader(rd)
	}
	var s regressorState
	if err := gob.NewDecoder(rd).Decode(&s); err != nil {
		return nil, fmt.Errorf("conformal: decode regressor: %w", err)
	}
	if err := checkFinite("regressor start residual", s.StartRes); err != nil {
		return nil, err
	}
	if err := checkFinite("regressor end residual", s.EndRes); err != nil {
		return nil, err
	}
	// Re-validate through the public constructor (it re-sorts, which is a
	// no-op for well-formed snapshots).
	return NewRegressor(s.Horizon, s.StartRes, s.EndRes)
}

// checkFinite returns an error naming the first NaN or ±Inf in sets, one
// set per event. A snapshot is outside input: a NaN score or residual would
// sort and compare as no calibrated value does.
func checkFinite(what string, sets [][]float64) error {
	for k, set := range sets {
		for i, v := range set {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("conformal: %s %d of event %d is %v", what, i, k, v)
			}
		}
	}
	return nil
}
