package strategy

import (
	"fmt"
	"math"
	"sort"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/video"
)

// Cox is the survival-regression baseline of §VI.B item 7: a Cox
// proportional-hazards model per event on the record covariates, fit by
// maximizing the Breslow partial likelihood, with a Breslow estimate of
// the cumulative baseline hazard. At prediction time it scans the horizon
// for the first frame whose cumulative event incidence 1-S(t|x) exceeds
// the threshold τ_cox and — as the paper specifies — assumes the event
// runs from that frame to the end of the horizon (the Cox model regresses
// a single variable, the start time).
type Cox struct {
	horizon int
	tau     float64
	models  []coxModel
}

// coxModel is one event's fitted proportional-hazards model.
type coxModel struct {
	beta  []float64
	mean  []float64 // feature standardization
	std   []float64
	cumH0 []float64 // cumulative baseline hazard at t=1..H (index t-1)
}

// Fitting runs coxIters gradient-ascent steps of size coxLR on the partial
// likelihood, with a coxL2 ridge penalty keeping β bounded on separable
// data: settings that converge on the simulated workloads.
const (
	coxIters = 150
	coxLR    = 0.3
	coxL2    = 1e-3
)

// CoxConfig carries no setting: the fit's are the constants above. FitCox
// keeps the parameter only because the repository benchmark calls it with
// DefaultCoxConfig.
type CoxConfig struct{}

// DefaultCoxConfig returns the empty CoxConfig.
func DefaultCoxConfig() CoxConfig { return CoxConfig{} }

// coxFeaturize summarizes a covariate window into the fixed-length vector
// the Cox model regresses on: per-channel window mean concatenated with
// the last frame.
func coxFeaturize(x [][]float64) []float64 {
	d := len(x[0])
	out := make([]float64, 2*d)
	for _, row := range x {
		for j, v := range row {
			out[j] += v
		}
	}
	for j := 0; j < d; j++ {
		out[j] /= float64(len(x))
	}
	copy(out[d:], x[len(x)-1])
	return out
}

// FitCox fits one proportional-hazards model per task event on the
// training records. tau is the incidence threshold τ_cox (the strategy's
// knob); horizon is H.
func FitCox(train []dataset.Record, horizon int, tau float64, _ CoxConfig) (*Cox, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("strategy: empty Cox training set")
	}
	k := len(train[0].Label)
	c := &Cox{horizon: horizon, tau: tau, models: make([]coxModel, k)}
	xs := make([][]float64, len(train))
	for i, r := range train {
		xs[i] = coxFeaturize(r.X)
	}
	for j := 0; j < k; j++ {
		times := make([]int, len(train))
		events := make([]bool, len(train))
		anyEvent := false
		for i, r := range train {
			if r.Label[j] {
				times[i] = r.OI[j].Start
				events[i] = true
				anyEvent = true
			} else {
				times[i] = horizon
			}
		}
		if !anyEvent {
			return nil, fmt.Errorf("strategy: event %d has no occurrences in Cox training set", j)
		}
		m, err := fitCoxModel(xs, times, events, horizon)
		if err != nil {
			return nil, fmt.Errorf("strategy: fitting Cox for event %d: %w", j, err)
		}
		c.models[j] = m
	}
	return c, nil
}

// WithTau returns a copy of the fitted model with a different threshold —
// sweeping τ_cox reuses the fit.
func (c *Cox) WithTau(tau float64) *Cox {
	out := *c
	out.tau = tau
	return &out
}

// Name implements Strategy.
func (c *Cox) Name() string { return "COX" }

// Predict implements Strategy.
func (c *Cox) Predict(rec dataset.Record) metrics.Prediction {
	x := coxFeaturize(rec.X)
	k := len(c.models)
	p := metrics.Prediction{Occur: make([]bool, k), OI: make([]video.Interval, k)}
	for j := 0; j < k; j++ {
		m := &c.models[j]
		eta := m.linearPredictor(x)
		risk := math.Exp(mathx.Clamp(eta, -30, 30))
		for t := 1; t <= c.horizon; t++ {
			incidence := 1 - math.Exp(-m.cumH0[t-1]*risk)
			if incidence >= c.tau {
				p.Occur[j] = true
				p.OI[j] = video.Interval{Start: t, End: c.horizon}
				break
			}
		}
	}
	return p
}

func (m *coxModel) linearPredictor(x []float64) float64 {
	var eta float64
	for j, v := range x {
		eta += m.beta[j] * (v - m.mean[j]) / m.std[j]
	}
	return eta
}

// fitCoxModel maximizes the Breslow partial likelihood by gradient ascent
// and then computes the Breslow cumulative baseline hazard.
func fitCoxModel(xs [][]float64, times []int, events []bool, horizon int) (coxModel, error) {
	n := len(xs)
	d := len(xs[0])
	m := coxModel{
		beta: make([]float64, d),
		mean: make([]float64, d),
		std:  make([]float64, d),
	}
	// Standardize features.
	col := make([]float64, n)
	z := make([][]float64, n)
	for i := range z {
		z[i] = make([]float64, d)
	}
	for j := 0; j < d; j++ {
		for i := range xs {
			col[i] = xs[i][j]
		}
		m.mean[j] = mathx.Mean(col)
		m.std[j] = mathx.Std(col)
		if m.std[j] < 1e-8 {
			m.std[j] = 1
		}
		for i := range xs {
			z[i][j] = (xs[i][j] - m.mean[j]) / m.std[j]
		}
	}
	// Sort indices by time descending so a forward sweep accumulates risk
	// sets R(t) = {j : t_j >= t}.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return times[order[a]] > times[order[b]] })

	eta := make([]float64, n)
	grad := make([]float64, d)
	s1 := make([]float64, d)
	for iter := 0; iter < coxIters; iter++ {
		for i := range z {
			eta[i] = mathx.Clamp(mathx.Dot(m.beta, z[i]), -30, 30)
		}
		mathx.Fill(grad, 0)
		mathx.Fill(s1, 0)
		s0 := 0.0
		idx := 0
		// Process distinct times descending; at each event time the risk
		// set is everything with t_j >= t.
		for idx < n {
			t := times[order[idx]]
			// add all subjects with this time to the risk set
			for idx < n && times[order[idx]] == t {
				i := order[idx]
				w := math.Exp(eta[i])
				s0 += w
				mathx.Axpy(w, z[i], s1)
				idx++
			}
			// gradient contribution of events at this time (Breslow)
			for back := idx - 1; back >= 0 && times[order[back]] == t; back-- {
				i := order[back]
				if !events[i] {
					continue
				}
				for j := 0; j < d; j++ {
					grad[j] += z[i][j] - s1[j]/s0
				}
			}
		}
		for j := 0; j < d; j++ {
			grad[j] -= coxL2 * m.beta[j]
			m.beta[j] += coxLR * grad[j] / float64(n)
		}
	}
	// Breslow baseline hazard on the final fit.
	for i := range z {
		eta[i] = mathx.Clamp(mathx.Dot(m.beta, z[i]), -30, 30)
	}
	hazard := make([]float64, horizon+1)
	s0 := 0.0
	idx := 0
	for idx < n {
		t := times[order[idx]]
		dt := 0
		for idx < n && times[order[idx]] == t {
			i := order[idx]
			s0 += math.Exp(eta[i])
			if events[i] {
				dt++
			}
			idx++
		}
		if dt > 0 && t >= 1 && t <= horizon {
			hazard[t] = float64(dt) / s0
		}
	}
	m.cumH0 = make([]float64, horizon)
	cum := 0.0
	for t := 1; t <= horizon; t++ {
		cum += hazard[t]
		m.cumH0[t-1] = cum
	}
	return m, nil
}
