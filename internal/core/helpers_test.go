package core

import "eventhit/internal/dataset"

// Loss evaluates L1+L2 on a record with dropout off, touching no
// gradient. Like training it computes a head's occurrence logits only when
// its event is present.
func (m *Model) Loss(rec dataset.Record) float64 {
	tp := m.newTape()
	tp.mask = nil
	m.forward(tp, rec.X, rec.Label, m.packs())
	return m.recordLoss(tp, rec)
}

// Logits runs inference and returns the raw per-head logit vectors
// (length 1+H) before the sigmoid, to compare bit for bit against a
// reference forward pass.
func (m *Model) Logits(x [][]float64) [][]float64 {
	logits := make([][]float64, len(m.heads))
	m.hidden(x, 0, &m.sc)
	for k := range logits {
		logits[k] = make([]float64, 1+m.cfg.Horizon)
		m.headLogits(k, &m.sc, 0, logits[k])
	}
	return logits
}

// accumulate adds the gradients of batch's records to the parameters' G
// and takes no step.
func (t *trainer) accumulate(batch []int) {
	t.scale = 0
	t.sum(batch)
}
