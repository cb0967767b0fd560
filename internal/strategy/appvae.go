package strategy

import (
	"fmt"
	"math"

	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/nn"
	"eventhit/internal/video"
)

// AppVAE is the point-process baseline of §VI.B item 9, modelled after
// APP-VAE: it encodes the recent history of action units (which event
// instances ended how long ago inside a large collection window) and
// predicts, per event, whether the next occurrence falls inside the
// horizon and a Gaussian over its arrival time. Predictions are relayed as
// the ±1σ band around the predicted arrival plus the event's typical
// duration. Like the original, it needs a very large window M to see the
// previous arrival at all — the paper runs it at M=200 and M=1500 and only
// on Breakfast, whose actions are dense enough (§VI.D).
type AppVAE struct {
	ex      *features.Extractor
	window  int // history window M (200 or 1500 in the paper)
	horizon int
	heads   []*nn.Dense // per event: history -> (logit, mu, logSigma)
	meanDur []float64   // per event, learned from training positives
}

// AppVAEConfig controls fitting.
type AppVAEConfig struct {
	Window int
	Epochs int
	LR     float64
	Seed   int64
}

// DefaultAppVAEConfig returns the M=200 variant's settings.
func DefaultAppVAEConfig() AppVAEConfig {
	return AppVAEConfig{Window: 200, Epochs: 60, LR: 0.02, Seed: 1}
}

// historyDim is the encoder feature size: per event (elapsed, count) plus
// one global activity channel.
func historyDim(k int) int { return 2*k + 1 }

// encodeHistory builds the point-process history features at anchor frame
// t: per event, the normalized time since the last instance that ended
// inside the window (1 when none is visible — the failure mode that makes
// small windows useless), and the normalized count of instances ending in
// the window.
func encodeHistory(ex *features.Extractor, t, window int) []float64 {
	st := ex.Stream()
	k := ex.NumEvents()
	psi := make([]float64, historyDim(k))
	lo := t - window + 1
	if lo < 0 {
		lo = 0
	}
	win := video.Interval{Start: lo, End: t}
	var totalCount float64
	for ci, evType := range ex.Events() {
		elapsed := 1.0
		count := 0
		for _, in := range st.InstancesOverlapping(evType, win) {
			if in.OI.End <= t {
				count++
				e := float64(t-in.OI.End) / float64(window)
				if e < elapsed {
					elapsed = e
				}
			}
		}
		psi[2*ci] = elapsed
		psi[2*ci+1] = mathx.Clamp(float64(count)/5, 0, 1)
		totalCount += float64(count)
	}
	psi[2*k] = mathx.Clamp(totalCount/10, 0, 1)
	return psi
}

// FitAppVAE trains the arrival model on the training records.
func FitAppVAE(ex *features.Extractor, train []dataset.Record, horizon int, cfg AppVAEConfig) (*AppVAE, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("strategy: empty APP-VAE training set")
	}
	if cfg.Window <= 0 || cfg.Epochs <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("strategy: invalid APP-VAE config %+v", cfg)
	}
	k := ex.NumEvents()
	g := mathx.NewRNG(cfg.Seed)
	a := &AppVAE{
		ex:      ex,
		window:  cfg.Window,
		horizon: horizon,
		heads:   make([]*nn.Dense, k),
		meanDur: make([]float64, k),
	}
	var params []*nn.Param
	for j := 0; j < k; j++ {
		a.heads[j] = nn.NewDense(fmt.Sprintf("appvae%d", j), historyDim(k), 3, g.Split(int64(j)))
		params = append(params, a.heads[j].Params()...)
		var durSum float64
		n := 0
		for _, r := range train {
			if r.Label[j] {
				durSum += float64(r.OI[j].Len())
				n++
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("strategy: event %d has no occurrences in APP-VAE training set", j)
		}
		a.meanDur[j] = durSum / float64(n)
	}
	psis := make([][]float64, len(train))
	for i, r := range train {
		psis[i] = encodeHistory(ex, r.Frame, cfg.Window)
	}
	opt := nn.NewAdam(params, cfg.LR)
	out := make([]float64, 3)
	order := g.Perm(len(train))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		g.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			r := train[i]
			for j := 0; j < k; j++ {
				a.heads[j].ApplyRows(out, psis[i], 0)
				logit, mu, logSigma := out[0], out[1], mathx.Clamp(out[2], -4, 2)
				d := make([]float64, 3)
				y := 0.0
				if r.Label[j] {
					y = 1
				}
				_, d[0] = nn.BCEWithLogitsScalar(logit, y, 1)
				if r.Label[j] {
					// Gaussian NLL on the normalized arrival time.
					s := float64(r.OI[j].Start) / float64(a.horizon)
					sigma := math.Exp(logSigma)
					zn := (s - mu) / sigma
					d[1] = -zn / sigma
					d[2] = 1 - zn*zn
					if out[2] <= -4 || out[2] >= 2 {
						d[2] = 0 // clamped: no gradient through logSigma
					}
				}
				a.heads[j].AccumulateGrads([][]float64{d}, [][]float64{psis[i]}, 0, 3)
			}
			opt.Step()
		}
	}
	return a, nil
}

// Name implements Strategy.
func (a *AppVAE) Name() string { return fmt.Sprintf("APP-VAE%d", a.window) }

// Window returns the history window M.
func (a *AppVAE) Window() int { return a.window }

// Predict implements Strategy.
func (a *AppVAE) Predict(rec dataset.Record) metrics.Prediction {
	psi := encodeHistory(a.ex, rec.Frame, a.window)
	k := len(a.heads)
	p := metrics.Prediction{Occur: make([]bool, k), OI: make([]video.Interval, k)}
	for j := 0; j < k; j++ {
		var out [3]float64
		a.heads[j].ApplyRows(out[:], psi, 0)
		if mathx.Sigmoid(out[0]) < 0.5 {
			continue
		}
		p.Occur[j] = true
		mu := out[1] * float64(a.horizon)
		sigma := math.Exp(mathx.Clamp(out[2], -4, 2)) * float64(a.horizon)
		lo := mathx.ClampInt(int(mu-sigma), 1, a.horizon)
		hi := mathx.ClampInt(int(mu+sigma+a.meanDur[j]), 1, a.horizon)
		if hi < lo {
			hi = lo
		}
		p.OI[j] = video.Interval{Start: lo, End: hi}
	}
	return p
}
