package harness

import (
	"fmt"
	"io"

	"eventhit/internal/cloud"
	"eventhit/internal/pipeline"
	"eventhit/internal/resilience"
)

// ResiliencePoint is one fault-rate setting of the resilience sweep: the
// marshalling pipeline run end-to-end against a CI misbehaving at that
// rate, with the resilient client (retries + backoff + breaker) and
// graceful degradation engaged.
type ResiliencePoint struct {
	// FaultRate is the per-request transient-failure probability; latency
	// spikes are injected at half this rate, and any non-zero rate also
	// schedules one hard outage window so the breaker is exercised.
	FaultRate float64 `json:"fault_rate"`
	// REC is the model-level recall (every relay assumed to land);
	// RealizedREC zeroes out deferred relays — the recall the operator
	// actually got. Their gap is the price of the faults that degradation
	// absorbed.
	REC         float64 `json:"rec"`
	RealizedREC float64 `json:"realized_rec"`
	// SpentUSD is the CI bill (deferred relays are unbilled), FPS the
	// simulated throughput with failed attempts and backoff charged.
	SpentUSD float64 `json:"spent_usd"`
	FPS      float64 `json:"fps"`
	CIMS     float64 `json:"ci_ms"`
	// Relay bookkeeping.
	Relays         int     `json:"relays"`
	Deferred       int     `json:"deferred"`
	Retried        int     `json:"retried"`
	FailedAttempts int64   `json:"failed_attempts"`
	BackoffMS      float64 `json:"backoff_ms"`
	BreakerTrips   int64   `json:"breaker_trips"`
}

// ResilienceResult is the machine-readable record emitted as
// BENCH_resilience.json. Same seed + options => byte-identical JSON at any
// harness parallelism.
type ResilienceResult struct {
	Task       string            `json:"task"`
	Seed       int64             `json:"seed"`
	Confidence float64           `json:"confidence"`
	Coverage   float64           `json:"coverage"`
	Points     []ResiliencePoint `json:"points"`
}

// ResilienceRates returns the default fault-rate sweep.
func ResilienceRates() []float64 { return []float64{0, 0.05, 0.1, 0.2, 0.4} }

// resiliencePlan builds the fault plan for one sweep setting. Rate zero is
// the control: an inactive plan whose pipeline results must be
// byte-identical to the un-wrapped CI.
func resiliencePlan(seed int64, rate float64) cloud.FaultPlan {
	if rate <= 0 {
		return cloud.FaultPlan{}
	}
	return cloud.FaultPlan{
		Seed:          seed,
		TransientRate: rate,
		SpikeRate:     rate / 2,
		SpikeMS:       8000,
		FailLatencyMS: 25,
		// One hard outage early in the run: long enough (35 consecutive
		// failing requests) to trip any sane breaker and exercise the
		// half-open recovery path, and early enough that even quick runs
		// with few relays reach it.
		Outages: []cloud.ReqWindow{{Start: 25, End: 60}},
	}
}

// Resilience sweeps CI fault rates on one task: train once per cell (same
// seed, so every cell sees the identical model), then marshal the test
// region with EHCR(0.9, 0.9) against a fault-injected CI with the
// resilient client and degradation on. It reports recall/cost/latency
// versus fault rate plus the breaker and retry counters.
func Resilience(task Task, opt Options, rates []float64, seed int64, w io.Writer) (*ResilienceResult, error) {
	points, err := cells(len(rates), func(i int) (ResiliencePoint, error) {
		env, err := NewEnv(task, opt, seed)
		if err != nil {
			return ResiliencePoint{}, err
		}
		return resilienceCell(env, rates[i], seed)
	})
	if err != nil {
		return nil, err
	}
	res := &ResilienceResult{Task: task.Name, Seed: seed, Confidence: opLevel, Coverage: opLevel, Points: points}
	t := NewTable(fmt.Sprintf("Resilience — %s, EHCR(c=α=%.2f) vs CI fault rate", task.Name, opLevel),
		"fault rate", "REC", "realized REC", "deferred", "retried", "failed attempts", "trips", "FPS", "spent $")
	for _, p := range res.Points {
		t.Addf(p.FaultRate, p.REC, p.RealizedREC, p.Deferred, p.Retried,
			p.FailedAttempts, p.BreakerTrips, fmt.Sprintf("%.1f", p.FPS), fmt.Sprintf("%.2f", p.SpentUSD))
	}
	t.Render(w)
	fmt.Fprintln(w, "realized REC drops only by what degradation deferred; the run itself never aborts")
	fmt.Fprintln(w)
	return res, nil
}

// resilienceCell runs one fault-rate setting over env's test region.
func resilienceCell(env *Env, rate float64, seed int64) (ResiliencePoint, error) {
	costs := pipeline.EventHitCosts(env.Cfg.Window)
	rcfg := resilience.DefaultConfig(seed)
	costs.Resilience = &rcfg
	costs.Degrade = true
	run, err := env.marshal(env.ehcr90(), costs, cloud.Inject(env.ci(), resiliencePlan(seed+101, rate)))
	return ResiliencePoint{
		FaultRate:      rate,
		REC:            run.REC,
		RealizedREC:    run.RealizedREC,
		SpentUSD:       run.SpentUSD,
		FPS:            run.FPS(),
		CIMS:           run.CIMS,
		Relays:         run.Relays,
		Deferred:       run.CIDeferred,
		Retried:        run.CIRetried,
		FailedAttempts: run.CIFailedAttempts,
		BackoffMS:      run.CIBackoffMS,
		BreakerTrips:   run.BreakerTrips,
	}, err
}
