package core

import (
	"eventhit/internal/dataset"
	"eventhit/internal/nn"
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
		contains := rec.OI[k].Contains
		inside := rec.OI[k].Len()
		if rec.AllOI != nil && len(rec.AllOI[k]) > 0 {
			ivs := rec.AllOI[k]
			contains = func(v int) bool {
				for _, iv := range ivs {
					if iv.Contains(v) {
						return true
					}
				}
				return false
			}
			inside = 0
			for v := 1; v <= h; v++ {
				if contains(v) {
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
		for v := 1; v <= h; v++ {
			if contains(v) {
				tp.target[v-1], tp.weight[v-1] = 1, wIn
			} else {
				tp.target[v-1], tp.weight[v-1] = 0, wOut
			}
		}
		total = nn.BCEWithLogitsRow(total, lk[1:], tp.target, tp.weight, lk[1:])
	}
	return total
}

// Loss evaluates L1+L2 on a record with dropout off, touching no
// gradient (used by tests and validation monitoring). Like training it
// computes a head's occurrence logits only when its event is present.
func (m *Model) Loss(rec dataset.Record) float64 {
	if m.lossTape == nil {
		m.lossTape = m.newTape()
		m.lossTape.mask = nil
	}
	m.forward(m.lossTape, rec.X, rec.Label, m.packs())
	return m.recordLoss(m.lossTape, rec)
}
