// Package metrics implements the evaluation measures of §VI.C: the
// frame-level recall REC (Equation 12), the spillage SPL (Equation 13),
// the component measures REC_c and REC_r, and the monetary expense of
// §VI.G. All of them consume ground-truth records plus per-record
// predictions, so every compared algorithm is scored identically.
package metrics

import (
	"errors"
	"fmt"
	"sort"

	"eventhit/internal/dataset"
	"eventhit/internal/video"
)

// ErrNoPositives is what REC and RECc return for records holding no true
// (record, event) occurrence, on which recall is undefined.
var ErrNoPositives = errors.New("metrics: no positive (record,event) pairs in test set")

// Prediction is one algorithm's output for one record: per task event,
// whether the event is predicted to occur in the horizon and, if so, the
// predicted occurrence interval in 1-based horizon offsets.
type Prediction struct {
	Occur []bool
	OI    []video.Interval
}

// Eta computes η_n^k — the fraction of the true occurrence interval
// covered by the prediction (§VI.C). The true interval must be non-empty.
func Eta(pred, truth video.Interval) float64 {
	if truth.Len() == 0 {
		return 0
	}
	ov, ok := pred.Intersect(truth)
	if !ok {
		return 0
	}
	return float64(ov.Len()) / float64(truth.Len())
}

func checkAligned(recs []dataset.Record, preds []Prediction) error {
	if len(recs) != len(preds) {
		return fmt.Errorf("metrics: %d records but %d predictions", len(recs), len(preds))
	}
	for i := range recs {
		if len(preds[i].Occur) != len(recs[i].Label) || len(preds[i].OI) != len(recs[i].Label) {
			return fmt.Errorf("metrics: record %d has %d events, prediction has %d",
				i, len(recs[i].Label), len(preds[i].Occur))
		}
	}
	return nil
}

// REC computes Equation (12): the mean η over every (record, event) pair
// with a true occurrence. Events predicted not to occur contribute 0.
func REC(recs []dataset.Record, preds []Prediction) (float64, error) {
	if err := checkAligned(recs, preds); err != nil {
		return 0, err
	}
	var num, den float64
	for i, r := range recs {
		for k, lab := range r.Label {
			if !lab {
				continue
			}
			den++
			if preds[i].Occur[k] {
				num += Eta(preds[i].OI[k], r.OI[k])
			}
		}
	}
	if den == 0 {
		return 0, ErrNoPositives
	}
	return num / den, nil
}

// SPL computes Equation (13): across all (record, event) pairs, the
// average fraction of non-event frames that are nevertheless relayed to
// the CI. True-positive predictions waste their excess frames (predicted
// minus true, normalized by the horizon's non-event frames); false
// positives waste their entire predicted interval (normalized by H).
func SPL(recs []dataset.Record, preds []Prediction, horizon int) (float64, error) {
	if err := checkAligned(recs, preds); err != nil {
		return 0, err
	}
	if horizon <= 0 {
		return 0, fmt.Errorf("metrics: horizon %d must be positive", horizon)
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("metrics: empty test set")
	}
	var total float64
	terms := 0
	for i, r := range recs {
		for k, lab := range r.Label {
			terms++
			if !preds[i].Occur[k] {
				continue
			}
			pred := preds[i].OI[k]
			if lab {
				trueLen := r.OI[k].Len()
				nonEvent := horizon - trueLen
				if nonEvent <= 0 {
					continue // event fills the horizon: no frame can be wasted
				}
				excess := pred.Len()
				if ov, ok := pred.Intersect(r.OI[k]); ok {
					excess -= ov.Len()
				}
				total += float64(excess) / float64(nonEvent)
			} else {
				total += float64(pred.Len()) / float64(horizon)
			}
		}
	}
	return total / float64(terms), nil
}

// RECc computes the recall of the existence-prediction stage (§VI.C.2):
// among true positives, the fraction predicted positive.
func RECc(recs []dataset.Record, preds []Prediction) (float64, error) {
	if err := checkAligned(recs, preds); err != nil {
		return 0, err
	}
	var num, den float64
	for i, r := range recs {
		for k, lab := range r.Label {
			if !lab {
				continue
			}
			den++
			if preds[i].Occur[k] {
				num++
			}
		}
	}
	if den == 0 {
		return 0, ErrNoPositives
	}
	return num / den, nil
}

// RECr computes the occurrence-interval recall (§VI.C.2): the mean η over
// (record, event) pairs that are both truly positive and predicted
// positive.
func RECr(recs []dataset.Record, preds []Prediction) (float64, error) {
	if err := checkAligned(recs, preds); err != nil {
		return 0, err
	}
	var num, den float64
	for i, r := range recs {
		for k, lab := range r.Label {
			if !lab || !preds[i].Occur[k] {
				continue
			}
			den++
			num += Eta(preds[i].OI[k], r.OI[k])
		}
	}
	if den == 0 {
		return 0, nil // nothing predicted positive: interval recall undefined, report 0
	}
	return num / den, nil
}

// FramesSent returns the total number of frames the predictions would
// relay to the CI (each event's interval is a separate CI request).
func FramesSent(preds []Prediction) int {
	n := 0
	for _, p := range preds {
		for k, occ := range p.Occur {
			if occ {
				n += p.OI[k].Len()
			}
		}
	}
	return n
}

// Expense returns the CI bill for the predictions at the given per-frame
// price (§VI.G).
func Expense(preds []Prediction, perFrameUSD float64) float64 {
	return float64(FramesSent(preds)) * perFrameUSD
}

// TrueEventFrames returns the total true event frames across records — the
// frames OPT pays for, and the floor of any algorithm's expense at REC=1.
func TrueEventFrames(recs []dataset.Record) int {
	n := 0
	for _, r := range recs {
		for k, lab := range r.Label {
			if lab {
				n += r.OI[k].Len()
			}
		}
	}
	return n
}

// UnionFrames returns the number of distinct frames covered by a set of
// intervals (which may overlap). Intervals must use the same offset base.
func UnionFrames(runs []video.Interval) int {
	if len(runs) == 0 {
		return 0
	}
	sorted := append([]video.Interval(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	total := 0
	cur := sorted[0]
	for _, iv := range sorted[1:] {
		if iv.Start <= cur.End+1 {
			if iv.End > cur.End {
				cur.End = iv.End
			}
			continue
		}
		total += cur.Len()
		cur = iv
	}
	return total + cur.Len()
}

// EtaRuns generalizes Eta to a set of predicted runs against a set of
// true instances: the fraction of all true event frames covered by the
// union of the runs.
func EtaRuns(runs, truths []video.Interval) float64 {
	trueFrames := UnionFrames(truths)
	if trueFrames == 0 {
		return 0
	}
	covered := 0
	for _, truth := range truths {
		var overlaps []video.Interval
		for _, r := range runs {
			if ov, ok := r.Intersect(truth); ok {
				overlaps = append(overlaps, ov)
			}
		}
		covered += UnionFrames(overlaps)
	}
	return float64(covered) / float64(trueFrames)
}

// PerEventREC computes Equation (12) restricted to each task event,
// returning one REC per event (NaN-free: events with no positive test
// records report -1).
func PerEventREC(recs []dataset.Record, preds []Prediction) ([]float64, error) {
	if err := checkAligned(recs, preds); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("metrics: empty test set")
	}
	k := len(recs[0].Label)
	num := make([]float64, k)
	den := make([]float64, k)
	for i, r := range recs {
		for j, lab := range r.Label {
			if !lab {
				continue
			}
			den[j]++
			if preds[i].Occur[j] {
				num[j] += Eta(preds[i].OI[j], r.OI[j])
			}
		}
	}
	out := make([]float64, k)
	for j := 0; j < k; j++ {
		if den[j] == 0 {
			out[j] = -1
			continue
		}
		out[j] = num[j] / den[j]
	}
	return out, nil
}

// PerEventSPL computes Equation (13) restricted to each task event.
func PerEventSPL(recs []dataset.Record, preds []Prediction, horizon int) ([]float64, error) {
	if err := checkAligned(recs, preds); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("metrics: horizon %d must be positive", horizon)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("metrics: empty test set")
	}
	k := len(recs[0].Label)
	total := make([]float64, k)
	for i, r := range recs {
		for j, lab := range r.Label {
			if !preds[i].Occur[j] {
				continue
			}
			pred := preds[i].OI[j]
			if lab {
				trueLen := r.OI[j].Len()
				nonEvent := horizon - trueLen
				if nonEvent <= 0 {
					continue
				}
				excess := pred.Len()
				if ov, ok := pred.Intersect(r.OI[j]); ok {
					excess -= ov.Len()
				}
				total[j] += float64(excess) / float64(nonEvent)
			} else {
				total[j] += float64(pred.Len()) / float64(horizon)
			}
		}
	}
	out := make([]float64, k)
	for j := 0; j < k; j++ {
		out[j] = total[j] / float64(len(recs))
	}
	return out, nil
}
