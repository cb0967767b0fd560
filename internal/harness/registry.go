package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// The experiment registry: every table, figure, extension and committed
// BENCH_*.json artifact is one row of Experiments, and everything that used
// to restate the list — cmd/eventhitbench's dispatch, its usage text and
// package doc, `-exp all`, scripts/check.sh's regeneration gates, the
// artifact schema and bounds tests, the root benchmarks — iterates it.
//
// The rule the registry enforces: BENCH_*.json files hold deterministic
// bytes only, produced by `eventhitbench -exp NAME` with no other flag and
// byte-identical at any -parallelism; every wall-clock number lives in
// bench/ (see DESIGN.md "Experiment registry").

// Params is what eventhitbench's flags can vary about an experiment. Sizes
// no flag reaches (stream counts, frame counts, budgets, sweep grids) are
// constants of the entry's Run.
type Params struct {
	// Task is the Table II task for single-task experiments.
	Task string
	// Trials is the number of independent trials averaged.
	Trials int
	Seed   int64
	// Quick selects the reduced dataset/epoch sizes of Quick().
	Quick bool
	// Window and Horizon override the dataset's M and H (0 = default).
	Window, Horizon int
}

// Options returns the trial sizing p selects.
func (p Params) Options() Options {
	opt := DefaultOptions()
	if p.Quick {
		opt = Quick()
	}
	opt.Window, opt.Horizon = p.Window, p.Horizon
	return opt
}

// Experiment is one registry row.
type Experiment struct {
	Name string
	// Doc is the one-line description `-list` prints.
	Doc string
	// Params is the canonical configuration: what `-exp Name` runs when no
	// other flag is given. For an entry with an Artifact it is the
	// configuration that reproduces the committed bytes.
	Params Params
	// Artifact is the committed file at the repository root the result is
	// written to, "" when there is none. Entries with an Artifact publish
	// their result: its indented JSON is byte-identical run to run and at
	// any parallelism, and scripts/check.sh regenerates it and compares. The
	// others are stdout-only: the tables Run prints are the output.
	Artifact string
	// InAll marks the entries `-exp all` runs.
	InAll bool
	// Run executes the experiment, rendering its tables to w, and returns
	// its typed result.
	Run func(p Params, w io.Writer) (interface{}, error)
	// Check decodes a result's JSON strictly (unknown fields are errors)
	// and applies the entry's acceptance bounds; nil when there are none.
	// Produce refuses to write a result that fails it, and the artifact
	// tests hold the committed files to it.
	Check func(raw []byte) error
}

var (
	paperParams = Params{Task: "TA1", Trials: 3, Seed: 1}
	quickTA1    = Params{Task: "TA1", Trials: 3, Seed: 1, Quick: true}
)

// onTask is how every row runs: Params are validated and p.Task resolved
// here, once, so an experiment starts from a Task value and a positive trial
// count whatever the command line said.
func onTask(run func(t Task, p Params, w io.Writer) (interface{}, error)) func(Params, io.Writer) (interface{}, error) {
	return func(p Params, w io.Writer) (interface{}, error) {
		if p.Trials <= 0 {
			return nil, fmt.Errorf("harness: trials must be positive, got %d", p.Trials)
		}
		t, err := TaskByName(p.Task)
		if err != nil {
			return nil, err
		}
		return run(t, p, w)
	}
}

// Experiments returns the registry in listing order; the InAll entries are
// in the order `-exp all` runs them.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "table1", Doc: "Table I: dataset statistics", Params: paperParams, InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) { return Table1(p.Trials, p.Seed, w) })},
		{Name: "table2", Doc: "Table II: task definitions", Params: paperParams, InAll: true,
			Run: onTask(func(_ Task, _ Params, w io.Writer) (interface{}, error) { return Table2(w), nil })},
		{Name: "fig4", Doc: "Figure 4: REC vs SPL of every strategy on one task", Params: paperParams, InAll: true,
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) {
				return Fig4(t, p.Options(), p.Trials, p.Seed, w)
			})},
		{Name: "fig4all", Doc: "Figure 4 on all sixteen tasks", Params: paperParams,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) {
				var all []*Fig4Result
				for _, t := range Tasks() {
					res, err := Fig4(t, p.Options(), p.Trials, p.Seed, w)
					if err != nil {
						return nil, err
					}
					all = append(all, res)
				}
				return all, nil
			})},
		{Name: "fig5", Doc: "Figure 5: EHC sweep of the confidence c", Params: paperParams, InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) {
				return Fig5(p.Options(), p.Trials, p.Seed, w)
			})},
		{Name: "fig6", Doc: "Figure 6: EHR sweep of the coverage alpha", Params: paperParams, InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) {
				return Fig6(p.Options(), p.Trials, p.Seed, w)
			})},
		{Name: "fig7", Doc: "Figure 7: sensitivity to window M and horizon H", Params: paperParams, InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) {
				byWindow, err := Fig7(p.Options(), true, Fig7Windows(), p.Trials, p.Seed, w)
				if err != nil {
					return nil, err
				}
				byHorizon, err := Fig7(p.Options(), false, Fig7Horizons(), p.Trials, p.Seed, w)
				return append(byWindow, byHorizon...), err
			})},
		{Name: "fig8", Doc: "Figure 8: monetary case study", Params: paperParams, InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) {
				return Fig8(p.Options(), p.Trials, p.Seed, w)
			})},
		{Name: "fig9", Doc: "Figure 9: REC vs end-to-end FPS", Params: paperParams, InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) { return Fig9(p.Options(), p.Seed, w) })},
		{Name: "fig10", Doc: "Figure 10: stage time shares", Params: paperParams, InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) { return Fig10(p.Options(), 0.9, p.Seed, w) })},
		{Name: "resources", Doc: "model size and training-job size", Params: paperParams, InAll: true,
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) { return Resources(t, p.Options(), p.Seed, w) })},
		{Name: "loss", Doc: "training loss curve", Params: paperParams,
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) {
				return TrainLossCurve(t, p.Options(), p.Seed, w)
			})},
		{Name: "ablation", Doc: "design-choice ablations", Params: paperParams, InAll: true,
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) { return Ablations(t, p.Options(), p.Seed, w) })},
		{Name: "multi", Doc: "multi-instance horizons on the industrial stream", Params: paperParams, InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) {
				return MultiExperiment(p.Options(), p.Seed, w)
			})},
		{Name: "validity", Doc: "empirical check of Theorems 4.2 and 5.2", Params: paperParams, InAll: true,
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) {
				return Validity(t, p.Options(), p.Trials, p.Seed, w)
			})},
		{Name: "density", Doc: "event-density sensitivity", Params: paperParams,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) { return Density(p.Options(), nil, p.Seed, w) })},
		{Name: "tune", Doc: "operating-point tuner", Params: paperParams,
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) {
				return TuneExperiment(t, p.Options(), p.Seed, w)
			})},
		{Name: "summary", Doc: "headline table over all sixteen tasks", Params: paperParams,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) { return Summary(p.Options(), p.Seed, w) })},

		{Name: "cascade", Doc: "early-inference ladder x exit-policy sweep", Params: quickTA1,
			Artifact: "BENCH_cascade.json", Check: checked(cascadeBounds),
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) {
				return CascadeSweep(t, p.Options(), p.Seed, w)
			})},
	}
}

// Select resolves an -exp value: one entry by name, or the InAll entries
// for "all". An unknown name's error enumerates the registry.
func Select(name string) ([]Experiment, error) {
	exps := Experiments()
	var sel []Experiment
	names := make([]string, 0, len(exps)+1)
	for _, e := range exps {
		names = append(names, e.Name)
		if e.Name == name || (name == "all" && e.InAll) {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(append(names, "all"), ", "))
	}
	return sel, nil
}

// ListExperiments prints the registry as the table `eventhitbench -list`
// shows and scripts/check.sh reads (first two columns: name, artifact or
// "-"; CONFIG is the canonical task, seed and sizing).
func ListExperiments(w io.Writer) {
	mark := func(on bool, s string) string {
		if on {
			return s
		}
		return "-"
	}
	fmt.Fprintf(w, "%-12s %-22s %-4s %-18s %s\n", "NAME", "ARTIFACT", "ALL", "CONFIG", "DESCRIPTION")
	for _, e := range Experiments() {
		cfg := fmt.Sprintf("%s,seed=%d", e.Params.Task, e.Params.Seed)
		if e.Params.Quick {
			cfg += ",quick"
		}
		fmt.Fprintf(w, "%-12s %-22s %-4s %-18s %s\n", e.Name,
			mark(e.Artifact != "", e.Artifact), mark(e.InAll, "all"), cfg, e.Doc)
	}
}

// MarshalResult is the one encoding of an experiment result: two-space
// indented JSON and a trailing newline — the bytes of every BENCH_*.json.
func MarshalResult(v interface{}) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Produce runs e under p with tables rendered to w and, for an entry with
// an Artifact, writes the result as JSON to the file out, or to e.Artifact
// when out is empty. A result that fails e.Check is not written. It returns
// the path written, "" for none.
func (e Experiment) Produce(p Params, out string, w io.Writer) (string, error) {
	if out != "" && e.Artifact == "" {
		return "", fmt.Errorf("-out given, but %s only prints tables", e.Name)
	}
	res, err := e.Run(p, w)
	if err != nil || e.Artifact == "" {
		return "", err
	}
	raw, err := MarshalResult(res)
	if err != nil {
		return "", err
	}
	if e.Check != nil {
		if err := e.Check(raw); err != nil {
			return "", fmt.Errorf("result outside its acceptance bounds, not written: %w", err)
		}
	}
	if out == "" {
		out = e.Artifact
	}
	// os.WriteFile reports the Close error: a short write must not pass for
	// a regenerated artifact.
	return out, os.WriteFile(out, raw, 0o644)
}
