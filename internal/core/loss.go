package core

import (
	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/nn"
	"eventhit/internal/video"
)

// recordLoss computes L1 + L2 for one record from the per-head logits in
// tp.out and replaces them with their gradients, each logit read before
// its gradient replaces it. Loss terms follow §III:
//
//	L1: cross-entropy between b_k and 1[E_k ∈ L_n], weighted β_k;
//	L2: only for events with E_k ∈ L_n, per-frame cross-entropy where
//	    frames inside the occurrence interval carry weight γ_k/|inside|
//	    and frames outside carry γ_k/|outside|.
//
// The per-record loss is returned, its terms summed head by head and frame
// by frame; the 1/|P| averaging happens in the training loop.
func (m *Model) recordLoss(tp *tape, rec dataset.Record) float64 {
	h := m.cfg.Horizon
	var total float64
	for k := range m.heads {
		beta, gamma := 1.0, 1.0
		if m.cfg.Beta != nil {
			beta = m.cfg.Beta[k]
		}
		if m.cfg.Gamma != nil {
			gamma = m.cfg.Gamma[k]
		}
		lk := tp.out[k]

		// L1: existence.
		yb := 0.0
		if rec.Label[k] {
			yb = 1
		}
		l, d := nn.BCEWithLogitsScalar(lk[0], yb, beta)
		total += l
		lk[0] = d

		// L2: per-frame occurrence, positives only. With multi-instance
		// ground truth (Record.AllOI, §II footnote 1) the per-frame target
		// is the union of all instances; otherwise the first instance's
		// interval, exactly as in the paper.
		if !rec.Label[k] {
			for v := 1; v <= h; v++ {
				lk[v] = 0
			}
			continue
		}
		ivs, inside := rec.OI[k:k+1], rec.OI[k].Len()
		multi := rec.AllOI != nil && len(rec.AllOI[k]) > 0
		if multi {
			ivs = rec.AllOI[k]
		}
		// Offsets 1..h inside some interval of ivs are target 1, the rest 0.
		mathx.Fill(tp.target, 0)
		fillOffsets(tp.target, ivs, 1)
		if multi {
			inside = 0
			for _, y := range tp.target {
				if y == 1 {
					inside++
				}
			}
		}
		outside := h - inside
		wIn := gamma / float64(inside)
		var wOut float64
		if outside > 0 {
			wOut = gamma / float64(outside)
		}
		mathx.Fill(tp.weight, wOut)
		fillOffsets(tp.weight, ivs, wIn)
		total = nn.BCEWithLogitsRow(total, lk[1:], tp.target, tp.weight, lk[1:])
	}
	return total
}

// fillOffsets sets dst[v-1] to x for every horizon offset v in 1..len(dst)
// that one of ivs contains.
func fillOffsets(dst []float64, ivs []video.Interval, x float64) {
	for _, iv := range ivs {
		if lo, hi := max(iv.Start, 1), min(iv.End, len(dst)); lo <= hi {
			mathx.Fill(dst[lo-1:hi], x)
		}
	}
}
