package main

// The names in this file are the benchmark's contract: BENCHMARK.json at
// the repository root declares exactly these workloads and metrics (a test
// compares the two), and later issues refer to them by name.

// Task and operating point every workload runs: TA9 is the three-event
// VIRAT task (K=3, M=25, H=500, D=12) at c = α = 0.9.
const (
	taskName   = "TA9"
	confidence = 0.9
	coverage   = 0.9
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wlServePredict   = "serve_predict"
	wlServeIngest    = "serve_ingest"
	wlPacedRelay     = "paced_relay"
	wlClusterPredict = "cluster_predict"
	wlOfflineRepro   = "offline_repro"
)

var workloadSpecs = []workloadSpec{
	{wlServePredict, "closed loop, push 1 frame + predict on one bare server: the predict kernel under predictMu dominates, so kernel, lock and handler work must show here"},
	{wlServeIngest, "closed loop, two 250-frame pushes + one predict per horizon: JSON decode and the frame ring dominate, the kernel is the bypassed part"},
	{wlPacedRelay, "open loop at 30 fps per camera, server-owned relay with cache, arbiter and adaptation: the only place relay-path queueing reaches a latency"},
	{wlClusterPredict, "the serve_predict traffic through front + 2 workers + coordinator: the difference to serve_predict is the cluster tier"},
	{wlOfflineRepro, "no HTTP: train, score, fleet.Run, pipeline.Marshaller and cascade in rounds; guards every non-serve runner"},
}

// Every workload reports every end-to-end metric; what one operation is
// differs per workload and is stated in README.md.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rec", "ratio", "higher", 0.25},
	{"cost_ratio", "ratio", "lower", 0.25},
}

// Per-layer metrics, printed by the traced run. The prefix before the
// first dot is the internal/ package the number belongs to; http, loadgen,
// proc and trace are the benchmark's own boundaries.
var perLayerSpecs = []metricSpec{
	{Name: "http.loopback_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.predict_handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.predict_allocs", Unit: "count", Better: "lower"},
	{Name: "serve.predict_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.relay_handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.frames_handler_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "serve.frames_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "serve.lock_scaling", Unit: "ratio", Better: "higher"},
	{Name: "serve.stats_us", Unit: "us", Better: "lower"},
	{Name: "obs.scrape_us", Unit: "us", Better: "lower"},
	{Name: "serve.session_create_us", Unit: "us", Better: "lower"},
	{Name: "serve.heap_per_session_kb", Unit: "kB", Better: "lower"},
	{Name: "strategy.predict_us", Unit: "us", Better: "lower"},
	{Name: "strategy.predict_allocs", Unit: "count", Better: "lower"},
	{Name: "strategy.predict_scored_us", Unit: "us", Better: "lower"},
	{Name: "strategy.predict_quant_us", Unit: "us", Better: "lower"},
	{Name: "core.forward_us", Unit: "us", Better: "lower"},
	{Name: "core.forward_quant_us", Unit: "us", Better: "lower"},
	{Name: "core.forward_quant_frame_us", Unit: "us", Better: "lower"},
	{Name: "conformal.decide_us", Unit: "us", Better: "lower"},
	{Name: "core.train_s", Unit: "s", Better: "lower"},
	{Name: "core.train_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "dataset.build_s", Unit: "s", Better: "lower"},
	{Name: "strategy.calibrate_s", Unit: "s", Better: "lower"},
	{Name: "strategy.baselines_fit_s", Unit: "s", Better: "lower"},
	{Name: "features.frame_vector_us", Unit: "us", Better: "lower"},
	{Name: "features.window_us", Unit: "us", Better: "lower"},
	{Name: "features.window_cached_us", Unit: "us", Better: "lower"},
	{Name: "features.window_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dataset.build_record_us", Unit: "us", Better: "lower"},
	{Name: "cicache.sign_us", Unit: "us", Better: "lower"},
	{Name: "cicache.get_hit_us", Unit: "us", Better: "lower"},
	{Name: "cicache.get_miss_us", Unit: "us", Better: "lower"},
	{Name: "cicache.put_us", Unit: "us", Better: "lower"},
	{Name: "cicache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cicache.evictions", Unit: "count", Better: "lower"},
	{Name: "fleet.admit_us", Unit: "us", Better: "lower"},
	{Name: "fleet.admit_decline_us", Unit: "us", Better: "lower"},
	{Name: "fleet.run_s", Unit: "s", Better: "lower"},
	{Name: "fleet.served_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fleet.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "resilience.detect_us", Unit: "us", Better: "lower"},
	{Name: "resilience.detect_hit_us", Unit: "us", Better: "lower"},
	{Name: "resilience.retries", Unit: "count", Better: "lower"},
	{Name: "resilience.breaker_trips", Unit: "count", Better: "lower"},
	{Name: "cloud.detect_us", Unit: "us", Better: "lower"},
	{Name: "cluster.front_hop_us", Unit: "us", Better: "lower"},
	{Name: "cluster.route_us", Unit: "us", Better: "lower"},
	{Name: "cluster.route_skew", Unit: "ratio", Better: "lower"},
	{Name: "cluster.lease_rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.remote_cache_get_rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.remote_cache_put_rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.stats_fanout_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.run_horizons_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pipeline.collect_horizons_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cascade.build_s", Unit: "s", Better: "lower"},
	{Name: "cascade.predict_us", Unit: "us", Better: "lower"},
	{Name: "cascade.tiny_exit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.client_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.tick_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.deadline_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "proc.alloc_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number. N is the sample count behind a
// timing (0 when the value is not a sample statistic).
type metricValue struct {
	Value float64
	Unit  string
	N     int
}

// metricSet keeps reported values by name.
type metricSet map[string]metricValue

func (m metricSet) set(specs []metricSpec, name string, v float64, n int) {
	for _, s := range specs {
		if s.Name == name {
			m[name] = metricValue{Value: v, Unit: s.Unit, N: n}
			return
		}
	}
	panic("bench: undeclared metric " + name) // a bug in the benchmark, not in its input
}
