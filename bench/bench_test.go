package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"eventhit/internal/harness"
)

// testEnv trains the bundle once for every test that needs a server.
var testEnv *harness.Env

func env(t *testing.T) *harness.Env {
	t.Helper()
	if testEnv == nil {
		e, err := trainEnv()
		if err != nil {
			t.Fatal(err)
		}
		testEnv = e
	}
	return testEnv
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if got := medianFloat([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of 1,5,9 = %v", got)
	}
}

func TestIQM(t *testing.T) {
	// Ten values: the two lowest and two highest go, the middle six average.
	if got := iqm([]float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}); got != 4.5 {
		t.Errorf("iqm = %v, want 4.5", got)
	}
	if got := iqm([]float64{7}); got != 7 {
		t.Errorf("iqm of one value = %v", got)
	}
	if got := iqm(nil); got != 0 {
		t.Errorf("iqm of nothing = %v", got)
	}
}

// TestSummarizeSlices builds 1000 operations at exactly 1000/s with 1 ms
// latency, then stalls two of the ten slices: the estimators drop them.
// Then it halves the machine's speed for the second half of the run: the
// raw numbers move, the normalized ones do not.
func TestSummarizeSlices(t *testing.T) {
	build := func() []sample {
		var s []sample
		for i := 0; i < 1000; i++ {
			s = append(s, sample{done: int64(i+1) * int64(time.Millisecond), lat: int64(time.Millisecond)})
		}
		return s
	}
	check := func(what string, tm timing) {
		t.Helper()
		if tm.n != 1000 || math.Abs(tm.perSec-1000) > 1e-6 || math.Abs(tm.p50ms-1) > 1e-9 || math.Abs(tm.p90ms-1) > 1e-9 || math.Abs(tm.p99ms-1) > 1e-9 {
			t.Errorf("%s: %+v, want n=1000 1000/s p50=p90=p99=1", what, tm)
		}
	}
	s := build()
	norm, raw, speed := summarize(s, nil, 0)
	check("uniform, raw", raw)
	check("uniform, no readings", norm)
	if speed != 1 {
		t.Errorf("speed index without readings = %v, want 1", speed)
	}
	// Slices four and eight stall: their operations are slow and everything
	// after them completes half a second later.
	for _, from := range []int{300, 700} {
		for i := from; i < from+100; i++ {
			s[i].lat = int64(50 * time.Millisecond)
		}
		for i := from; i < 1000; i++ {
			s[i].done += int64(500 * time.Millisecond)
		}
	}
	_, raw, _ = summarize(s, nil, 0)
	check("two stalled slices", raw)

	// From 500 ms on the machine runs at half speed: operations take 2 ms
	// and so does each one's share of the clock; the reference kernel takes
	// twice its nominal time.
	s = build()
	var readings []sample
	at := int64(0)
	for i := range s {
		step, kernel := int64(time.Millisecond), int64(refNominal)
		if i >= 500 {
			step, kernel = 2*step, 2*kernel
		}
		at += step
		s[i] = sample{done: at, lat: step}
		if i%10 == 0 {
			readings = append(readings, sample{done: at, lat: kernel})
		}
	}
	norm, raw, speed = summarize(s, readings, 0)
	check("half speed for half the run, normalized", norm)
	if raw.perSec > 900 || raw.p50ms < 1.2 {
		t.Errorf("raw timing did not see the slow half: %+v", raw)
	}
	if speed < 1.4 || speed > 2 {
		t.Errorf("speed index over the whole run = %v, want between the two states", speed)
	}
}

func TestReferenceKernel(t *testing.T) {
	var m refMeter
	origin := time.Now()
	m.tick(origin) // first tick is always due
	m.tick(origin) // not due again yet
	if len(m.readings) != 1 || m.readings[0].lat <= 0 {
		t.Fatalf("readings after two ticks: %+v, want exactly one positive reading", m.readings)
	}
	if idx := speedIndex(m.readings, 0, math.MaxInt64); !(idx > 0) {
		t.Errorf("speed index = %v", idx)
	}
	if idx := speedIndex(m.readings, -10, -5); idx != 0 {
		t.Errorf("speed index of an interval without readings = %v, want 0", idx)
	}
}

func TestSelfTimes(t *testing.T) {
	// Two operations: op 1 is root 100 -> child 60 -> grandchild 25, plus a
	// second child 10; op 2 is a bare root of 40.
	spans := []span{
		{Name: "loadgen.op", Start: 0, End: 100, ID: 1, Parent: 0, Op: 1},
		{Name: "http.roundtrip", Start: 10, End: 70, ID: 2, Parent: 1, Op: 1},
		{Name: "serve.predict_handler", Start: 200, End: 225, ID: 3, Parent: 2, Op: 1},
		{Name: "http.roundtrip", Start: 80, End: 90, ID: 4, Parent: 1, Op: 1},
		{Name: "loadgen.op", Start: 300, End: 340, ID: 5, Parent: 0, Op: 2},
	}
	per, ops := selfTimes(spans)
	if ops != 2 {
		t.Fatalf("ops = %d, want 2", ops)
	}
	// Per op: loadgen 30 and 40; http 45 and 0; serve 25 and 0.
	want := map[string]float64{"loadgen": 35, "http": 22.5, "serve": 12.5}
	for l, w := range want {
		if per[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, per[l], w)
		}
	}
	if layerOf("cluster.front_roundtrip") != "cluster" || layerOf("plain") != "plain" {
		t.Error("layerOf does not cut at the first dot")
	}
}

func TestWorsening(t *testing.T) {
	lower := metricSpec{Better: "lower"}
	higher := metricSpec{Better: "higher"}
	if got := worsening(lower, 10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10 -> 11 worsens by %v", got)
	}
	if got := worsening(higher, 10, 11); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 11 worsens by %v", got)
	}
}

// TestRequestStreamFollowsSeed: same seed, same bytes; another seed, other
// bytes; and the cluster workload sends serve_predict's traffic.
func TestRequestStreamFollowsSeed(t *testing.T) {
	hash := func(name string, seed int64) uint64 {
		t.Helper()
		b, err := newBaseWith(env(t), seed)
		if err != nil {
			t.Fatal(err)
		}
		l, err := newHTTPLoad(b, name, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		defer l.close()
		return l.requestHash
	}
	a := hash(wlServePredict, 1)
	if again := hash(wlServePredict, 1); again != a {
		t.Errorf("seed 1 built %016x, then %016x", a, again)
	}
	if other := hash(wlServePredict, 2); other == a {
		t.Errorf("seeds 1 and 2 built the same request stream %016x", a)
	}
	if cl := hash(wlClusterPredict, 1); cl != a {
		t.Errorf("cluster_predict sends %016x, serve_predict %016x", cl, a)
	}
}

// TestWorkloadsEndToEnd runs every workload at a fraction of its size and
// expects every check to pass and every end-to-end metric to be reported.
func TestWorkloadsEndToEnd(t *testing.T) {
	digests := map[string]uint64{}
	for _, spec := range workloadSpecs {
		b, err := newBaseWith(env(t), 7)
		if err != nil {
			t.Fatal(err)
		}
		var w workload
		seconds := 0.4
		if spec.Name == wlOfflineRepro {
			w, err = newOfflineLoad(b, 7)
		} else {
			w, err = newHTTPLoad(b, spec.Name, seconds)
		}
		if err != nil {
			t.Fatalf("%s: set-up: %v", spec.Name, err)
		}
		res := w.run(seconds)
		w.close()
		for _, p := range res.problems {
			t.Errorf("%s: check failed: %s", spec.Name, p)
		}
		if res.attempted < 1 || res.failed != 0 {
			t.Errorf("%s: attempted %d failed %d", spec.Name, res.attempted, res.failed)
		}
		for _, m := range endToEndSpecs {
			if m.Name == "setup_s" {
				continue // measured around set-up by runOne
			}
			if v, ok := res.metrics[m.Name]; !ok || !(v.Value > 0) {
				t.Errorf("%s: %s = %v (reported %t), want a positive reading", spec.Name, m.Name, v.Value, ok)
			}
		}
		digests[spec.Name] = res.digest
	}
	if digests[wlServePredict] != digests[wlClusterPredict] {
		t.Errorf("serve_predict served %016x, cluster_predict %016x", digests[wlServePredict], digests[wlClusterPredict])
	}
}

// TestTracedReplay drives the nested probes through the relay and the
// cluster configurations and checks the span tree they leave.
func TestTracedReplay(t *testing.T) {
	for _, name := range []string{wlPacedRelay, wlClusterPredict} {
		b, err := newBaseWith(env(t), 3)
		if err != nil {
			t.Fatal(err)
		}
		l, err := newHTTPLoad(b, name, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracer{t0: time.Now()}
		res, err := tracedReplay(l, tr, 0.15)
		l.close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range res.problems {
			t.Errorf("%s: check failed: %s", name, p)
		}
		byID := map[int64]span{}
		names := map[string]int{}
		for _, s := range tr.spans {
			byID[s.ID] = s
			names[s.Name]++
		}
		for _, s := range tr.spans {
			if s.End < s.Start {
				t.Fatalf("%s: span %+v ends before it starts", name, s)
			}
			if s.Parent != 0 && byID[s.Parent].Op != s.Op {
				t.Fatalf("%s: span %+v hangs under a span of operation %d", name, s, byID[s.Parent].Op)
			}
		}
		want := []string{"loadgen.op", "serve.frames_handler", "serve.predict_handler", "strategy.predict", "core.forward"}
		if name == wlClusterPredict {
			want = append(want, "cluster.front_roundtrip", "http.roundtrip")
		} else {
			want = append(want, "http.roundtrip", "cicache.sign", "fleet.admit", "resilience.detect", "cloud.detect")
		}
		for _, n := range want {
			if names[n] == 0 {
				t.Errorf("%s: no %s span among %v", name, n, names)
			}
		}
		if v := res.metrics["trace.overhead_ratio"].Value; !(v > 0) {
			t.Errorf("%s: trace.overhead_ratio = %v", name, v)
		}
	}
}

// TestNamesMatchBenchmarkJSON holds names.go against BENCHMARK.json and
// both against the contract's limits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadSpecs) || len(doc.EndToEnd) != len(endToEndSpecs) || len(doc.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, %d end-to-end, %d per-layer; names.go %d, %d, %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloadSpecs), len(endToEndSpecs), len(perLayerSpecs))
	}
	for i, w := range workloadSpecs {
		if doc.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json %+v, names.go %+v", i, doc.Workloads[i], w)
		}
	}
	for i, m := range endToEndSpecs {
		if doc.EndToEnd[i] != m {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, names.go %+v", i, doc.EndToEnd[i], m)
		}
	}
	for i, m := range perLayerSpecs {
		if doc.PerLayer[i] != m {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, names.go %+v", i, doc.PerLayer[i], m)
		}
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEndSpecs {
		use(m.Name)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricSpec{}, endToEndSpecs...), perLayerSpecs...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayerSpecs {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}
