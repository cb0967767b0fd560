// Command bench is the repository's benchmark: it times the real
// marshalling path end to end (loopback HTTP through serve and the cluster
// tier, and the offline runners) and, in a separate traced run, layer by
// layer. BENCHMARK.json at the repository root declares its workloads and
// metrics; README.md in this directory explains them.
//
//	go run ./bench -workload serve_predict -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload serve_predict -seed 1 -seconds 10 -trace 1 -spans spans.json
//	go run ./bench -selfcheck
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRepeats is how many times set-up is performed and timed per run;
// setup_s is the median. The last set-up is the one the run uses.
const setupRepeats = 3

// workload is one named traffic mix, set up and ready to run.
type workload interface {
	run(seconds float64) *result
	close()
}

// setUp builds everything workload name needs before its timed region:
// the trained bundle, the camera stream, the running servers with their
// sessions, and every request body.
func setUp(name string, seed int64, seconds float64) (workload, *base, error) {
	b, err := newBase(seed)
	if err != nil {
		return nil, nil, err
	}
	if name == wlOfflineRepro {
		w, err := newOfflineLoad(b, seed)
		return w, b, err
	}
	w, err := newHTTPLoad(b, name, seconds)
	if err != nil {
		return nil, nil, err
	}
	return w, b, nil
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	spans     string
	selfcheck bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all five in turn)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of one timed region")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer run instead of the end-to-end run")
	flag.StringVar(&o.spans, "spans", "", "traced run: write the spans to this file as JSON")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end suite twice and compare the two against each metric's bound")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 || trace < 0 || trace > 1 || !(o.seconds >= 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-selfcheck]")
		os.Exit(2)
	}
	os.Exit(realMain(o, os.Stdout, os.Stderr))
}

// realMain runs what the options ask for and returns the exit code: 0 when
// every run was correct and valid, 1 otherwise.
func realMain(o options, out, errw io.Writer) int {
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	} else if !knownWorkload(o.workload) {
		fmt.Fprintf(errw, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	printHeader(out, o)
	if runtime.GOMAXPROCS(0) != nproc() {
		// The load is sized to nproc; with fewer Ps the generator and the
		// server would share them differently and no number would compare.
		fmt.Fprintf(out, "invalid: GOMAXPROCS %d != nproc %d\n", runtime.GOMAXPROCS(0), nproc())
		return 1
	}
	if o.selfcheck {
		return selfcheck(o, names, out, errw)
	}
	code := 0
	digests := map[string]uint64{}
	for _, name := range names {
		res, err := runOne(name, o)
		if err != nil {
			fmt.Fprintf(errw, "bench: %s: %v\n", name, err)
			return 1
		}
		digests[name] = res.digest
		if !report(out, name, res, o.trace) {
			code = 1
		}
	}
	if a, ok := digests[wlServePredict]; ok && !o.trace {
		if b, ok := digests[wlClusterPredict]; ok && a != b {
			fmt.Fprintf(out, "check failed: served decisions differ between %s (%016x) and %s (%016x)\n", wlServePredict, a, wlClusterPredict, b)
			code = 1
		}
	}
	return code
}

func knownWorkload(name string) bool {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// printHeader records what produced the numbers below it.
func printHeader(out io.Writer, o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	warm, timed := pacedTicks(o.seconds)
	fmt.Fprintf(out, "bench nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d seconds=%g trace=%t gateways=%d paced_ticks=%d+%d setup_repeats=%d\n",
		nproc(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.seed, o.seconds, o.trace, nproc(), warm, timed, setupRepeats)
}

// runOne sets a workload up (setupRepeats times, timing each), runs its
// timed region once and returns the result.
func runOne(name string, o options) (*result, error) {
	if o.trace {
		return tracedRun(name, o)
	}
	var w workload
	var setups, raw []float64
	var ref refMeter
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC() // each set-up starts from a collected heap, not from the last one's garbage
		// The machine's speed is read right before and right after.
		ref.readings = ref.readings[:0]
		t0 := time.Now()
		ref.read(t0)
		t1 := time.Now()
		var err error
		if w, _, err = setUp(name, o.seed, o.seconds); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t1).Seconds()
		ref.read(t0)
		raw = append(raw, took)
		setups = append(setups, took/speedIndex(ref.readings, 0, math.MaxInt64))
	}
	defer w.close()
	runtime.GC() // the discarded set-ups' garbage is not the workload's
	res := w.run(o.seconds)
	res.metrics.set(endToEndSpecs, "setup_s", medianFloat(setups), len(setups))
	res.info = append(res.info, fmt.Sprintf("raw_setup_s %.6g s", medianFloat(raw)))
	return res, nil
}

// report prints one run: every metric as "workload metric value unit",
// the checks, and the JSON result line. It returns whether the run was
// correct and valid.
func report(out io.Writer, name string, res *result, traced bool) bool {
	specs := endToEndSpecs
	if traced {
		specs = perLayerSpecs
	}
	for _, line := range res.info {
		fmt.Fprintf(out, "%s %s\n", name, line)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	// Print everything measured; the JSON line carries exactly the declared
	// set for this kind of run.
	var names []string
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := res.metrics[n]
		if mv.N > 0 {
			fmt.Fprintf(out, "%s %s %.6g %s n=%d\n", name, n, mv.Value, mv.Unit, mv.N)
		} else {
			fmt.Fprintf(out, "%s %s %.6g %s\n", name, n, mv.Value, mv.Unit)
		}
	}
	for _, s := range specs {
		mv, ok := res.metrics[s.Name]
		if !ok {
			res.problemf("metric %s was not measured", s.Name)
			continue
		}
		metrics[s.Name] = jsonMetric{Value: mv.Value, Unit: mv.Unit}
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "%s check failed: %s\n", name, p)
	}
	for _, p := range res.invalid {
		fmt.Fprintf(out, "%s invalid: %s\n", name, p)
	}
	ok := len(res.problems) == 0 && len(res.invalid) == 0
	if len(res.invalid) > 0 {
		// An invalid run measured the generator, not the system: no numbers.
		metrics = map[string]jsonMetric{}
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{ok, attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(out, "%s check failed: encoding the result: %v\n", name, err)
		return false
	}
	fmt.Fprintf(out, "%s\n", line)
	return ok
}
