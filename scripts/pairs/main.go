// Command pairs runs the alternated-pair protocol of the repository
// benchmark as one command. It builds ./bench at two revisions, runs one
// workload on each for N pairs of runs (one fresh seed per pair, the side
// that runs first alternating), and prints, for every end-to-end metric
// BENCHMARK.json declares, each side's median and quartiles, the paired
// wins and a verdict, on the normalized and on the raw readings:
//
//	go run ./scripts/pairs -base REV [-head REV] -workload W -pairs N -seeds FROM
//
// -head defaults to the working tree as it stands. Each revision is built
// from a `git archive` copy under a temporary directory, removed
// afterwards. Pair i runs seed FROM+i for BENCHMARK.json's run_seconds.
//
// The verdict is "better" when the head is better on at least 9 of 10
// pairs and its median is better by more than the base's interquartile
// range; "worse" when its median is worse by more than the metric's bound
// (a fraction of the base median); "unresolved" when the base's own
// interquartile range is wider than that bound and the head does not beat
// the base in every pair, so the runs cannot tell a regression within the
// bound from none; "noise" otherwise.
//
// Behaviour must not move with speed: for every pair the command also
// compares the two sides' decisions_digest, request_stream_hash, rec and
// cost_ratio lines as printed, and reports each as equal in N/N pairs or
// lists the seeds where they differ. The normalizing
// reference kernel reads about 10 % slower when the linker places
// main.(*refMeter).kernel at 32 rather than 0 mod 64, so the command prints
// each binary's placement (go tool nm), and when the two differ the
// normalized column reads "not comparable".
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmark struct {
	RunSeconds float64  `json:"run_seconds"`
	EndToEnd   []metric `json:"end_to_end"`
}

// side is one revision: its binary and every run's readings by name, as
// numbers and as printed.
type side struct {
	label, bin string
	align      int64
	runs       []map[string]float64
	printed    []map[string]string
}

// behaviour names the lines that must read the same on both sides of a
// pair: digests of the decisions made and of the requests sent, and the
// model metrics.
var behaviour = []string{"decisions_digest", "request_stream_hash", "rec", "cost_ratio"}

func main() {
	base := flag.String("base", "", "base revision (required)")
	head := flag.String("head", "", "head revision (default: the working tree)")
	workload := flag.String("workload", "", "workload to run (required)")
	pairs := flag.Int("pairs", 10, "pairs of runs")
	seeds := flag.Int64("seeds", 1000, "seed of the first pair; pair i runs seed FROM+i")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *head, *workload, *pairs, *seeds); err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
}

func run(baseRev, headRev, workload string, pairs int, seeds int64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bm benchmark
	if err := json.Unmarshal(raw, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	tmp, err := os.MkdirTemp("", "pairs")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	sides := []*side{{label: "base " + baseRev}, {label: "head " + headRev}}
	if headRev == "" {
		sides[1].label = "head (working tree)"
	}
	for i, rev := range []string{baseRev, headRev} {
		s := sides[i]
		s.bin = filepath.Join(tmp, fmt.Sprintf("bench%d", i))
		if err := build(tmp, rev, s.bin, i); err != nil {
			return err
		}
		if s.align, err = kernelAlign(s.bin); err != nil {
			return err
		}
	}
	for p := 0; p < pairs; p++ {
		seed := seeds + int64(p)
		order := []*side{sides[0], sides[1]}
		if p%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, s := range order {
			got, printed, err := runOnce(s.bin, workload, seed, bm.RunSeconds)
			if err != nil {
				return fmt.Errorf("%s, seed %d: %w", s.label, seed, err)
			}
			s.runs = append(s.runs, got)
			s.printed = append(s.printed, printed)
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d (seed %d) done\n", p+1, pairs, seed)
	}
	report(os.Stdout, bm, workload, sides, seeds)
	return nil
}

// build compiles ./bench at rev (the working tree when rev is empty) into
// bin.
func build(tmp, rev, bin string, i int) error {
	dir := "."
	if rev != "" {
		dir = filepath.Join(tmp, fmt.Sprintf("tree%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		archive := exec.Command("sh", "-c", `git archive "$0" | tar -x -C "$1"`, rev, dir)
		if out, err := archive.CombinedOutput(); err != nil {
			return fmt.Errorf("git archive %s: %v\n%s", rev, err, out)
		}
	}
	cmd := exec.Command("go", "build", "-o", bin, "./bench")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building %s: %v\n%s", dir, err, out)
	}
	return nil
}

// kernelAlign is the address of main.(*refMeter).kernel in bin, mod 64.
func kernelAlign(bin string) (int64, error) {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		return 0, fmt.Errorf("go tool nm %s: %w", bin, err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[len(f)-1] == "main.(*refMeter).kernel" {
			addr, err := strconv.ParseInt(f[0], 16, 64)
			return addr % 64, err
		}
	}
	return 0, fmt.Errorf("%s has no main.(*refMeter).kernel", bin)
}

// runOnce runs one workload and returns its metric lines, "WORKLOAD NAME
// VALUE UNIT ...", by name: the values that parse as numbers, and every
// value as printed (a digest is hex, which may or may not parse). A run
// that fails or reports itself incorrect is an error.
func runOnce(bin, workload string, seed int64, seconds float64) (map[string]float64, map[string]string, error) {
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%v\n%s", err, stderr.Bytes())
	}
	got, printed := map[string]float64{}, map[string]string{}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		if len(f) < 3 || f[0] != workload {
			continue
		}
		printed[f[1]] = f[2]
		if strings.HasSuffix(f[1], "_digest") || strings.HasSuffix(f[1], "_hash") {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			got[f[1]] = v
		}
	}
	var tail struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(last), &tail); err != nil || !tail.Correct || tail.Failed != 0 {
		return nil, nil, fmt.Errorf("run not correct: %s", last)
	}
	return got, printed, nil
}

func report(w *os.File, bm benchmark, workload string, sides []*side, seeds int64) {
	n := len(sides[0].runs)
	fmt.Fprintf(w, "workload %s, %d pairs, seeds %d..%d, %gs runs\n", workload, n, seeds, seeds+int64(n)-1, bm.RunSeconds)
	for _, s := range sides {
		fmt.Fprintf(w, "%-28s refMeter.kernel at %2d mod 64, machine_speed_index median %.4f\n",
			s.label, s.align, median(column(s, "machine_speed_index")))
	}
	comparable := sides[0].align == sides[1].align
	fmt.Fprintf(w, "%-14s %-10s %24s %24s %7s %6s  %s\n", "metric", "reading", "base median [q1 q3]", "head median [q1 q3]", "ratio", "wins", "verdict")
	for _, m := range bm.EndToEnd {
		// A metric with a raw_ twin is normalized by the reference kernel;
		// one without (rec, cost_ratio) reads the same either way.
		readings := [][2]string{{"both", m.Name}}
		if _, ok := sides[0].runs[0]["raw_"+m.Name]; ok {
			readings = [][2]string{{"normalized", m.Name}, {"raw", "raw_" + m.Name}}
		}
		for _, rd := range readings {
			b, h := column(sides[0], rd[1]), column(sides[1], rd[1])
			if len(b) < n || len(h) < n {
				continue
			}
			verdict := judge(m, b, h)
			if rd[0] == "normalized" && !comparable {
				verdict = "not comparable"
			}
			bq, hq := quartiles(b), quartiles(h)
			fmt.Fprintf(w, "%-14s %-10s %24s %24s %7.3f %3d/%-2d  %s\n", m.Name, rd[0],
				fmt.Sprintf("%.4g [%.4g %.4g]", bq[1], bq[0], bq[2]), fmt.Sprintf("%.4g [%.4g %.4g]", hq[1], hq[0], hq[2]),
				hq[1]/bq[1], wins(m, b, h), n, verdict)
		}
	}
	for _, name := range behaviour {
		var differ []string
		seen := 0
		for i := 0; i < n; i++ {
			bv, ok := sides[0].printed[i][name]
			if !ok {
				continue
			}
			seen++
			if hv := sides[1].printed[i][name]; hv != bv {
				differ = append(differ, strconv.FormatInt(seeds+int64(i), 10))
			}
		}
		switch {
		case seen == 0:
		case len(differ) == 0:
			fmt.Fprintf(w, "%-20s equal in %d/%d pairs\n", name, seen, n)
		default:
			fmt.Fprintf(w, "%-20s DIFFERS at seeds %s\n", name, strings.Join(differ, " "))
		}
	}
}

// judge gives the verdict on one metric's paired readings.
func judge(m metric, b, h []float64) string {
	bq, hm := quartiles(b), median(h)
	gain := hm - bq[1] // positive is better
	if m.Better == "lower" {
		gain = -gain
	}
	bound := m.Bound * math.Abs(bq[1])
	switch {
	case wins(m, b, h)*10 >= 9*len(b) && gain > bq[2]-bq[0]:
		return "better"
	case -gain > bound:
		return "worse"
	case bq[2]-bq[0] > bound && wins(m, b, h) < len(b):
		return "unresolved"
	}
	return "noise"
}

// wins counts the pairs in which the head reads better than the base.
func wins(m metric, b, h []float64) int {
	n := 0
	for i := range b {
		if m.Better == "lower" && h[i] < b[i] || m.Better != "lower" && h[i] > b[i] {
			n++
		}
	}
	return n
}

func column(s *side, name string) []float64 {
	var out []float64
	for _, r := range s.runs {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func median(x []float64) float64 { return quartiles(x)[1] }

// quartiles returns the first quartile, the median and the third quartile
// of x, by linear interpolation between order statistics.
func quartiles(x []float64) [3]float64 {
	if len(x) == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}
