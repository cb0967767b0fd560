package harness

import (
	"fmt"
	"io"
	"strings"
)

// The experiment registry: every table, figure and extension is one row of
// Experiments, and everything that used to restate the list —
// cmd/eventhitbench's dispatch, its usage text and package doc, `-exp all`,
// the root benchmarks — iterates it.
//
// Every row prints tables only, byte-identical at any GOMAXPROCS; every
// wall-clock number lives in bench/ (see DESIGN.md "Experiment registry").

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
	// InAll marks the entries `-exp all` runs.
	InAll bool
	// Run executes the experiment, rendering its tables to w, and returns
	// its typed result.
	Run func(p Params, w io.Writer) (interface{}, error)
}

// DefaultParams is what every row runs when no flag overrides it.
var DefaultParams = Params{Task: "TA1", Trials: 3, Seed: 1}

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
		{Name: "table1", Doc: "Table I: dataset statistics", InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) { return Table1(p.Trials, p.Seed, w) })},
		{Name: "table2", Doc: "Table II: task definitions", InAll: true,
			Run: onTask(func(_ Task, _ Params, w io.Writer) (interface{}, error) { return Table2(w), nil })},
		{Name: "fig4", Doc: "Figure 4: REC vs SPL of every strategy on one task", InAll: true,
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) {
				return Fig4(t, p.Options(), p.Trials, p.Seed, w)
			})},
		{Name: "fig4all", Doc: "Figure 4 on all sixteen tasks",
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
		{Name: "fig5", Doc: "Figure 5: EHC sweep of the confidence c", InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) {
				return Fig5(p.Options(), p.Trials, p.Seed, w)
			})},
		{Name: "fig6", Doc: "Figure 6: EHR sweep of the coverage alpha", InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) {
				return Fig6(p.Options(), p.Trials, p.Seed, w)
			})},
		{Name: "fig7", Doc: "Figure 7: sensitivity to window M and horizon H", InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) {
				byWindow, err := Fig7(p.Options(), true, Fig7Windows(), p.Trials, p.Seed, w)
				if err != nil {
					return nil, err
				}
				byHorizon, err := Fig7(p.Options(), false, Fig7Horizons(), p.Trials, p.Seed, w)
				return append(byWindow, byHorizon...), err
			})},
		{Name: "fig8", Doc: "Figure 8: monetary case study", InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) {
				return Fig8(p.Options(), p.Trials, p.Seed, w)
			})},
		{Name: "fig9", Doc: "Figure 9: REC vs end-to-end FPS", InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) { return Fig9(p.Options(), p.Seed, w) })},
		{Name: "fig10", Doc: "Figure 10: stage time shares", InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) { return Fig10(p.Options(), 0.9, p.Seed, w) })},
		{Name: "resources", Doc: "model size and training-job size", InAll: true,
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) { return Resources(t, p.Options(), p.Seed, w) })},
		{Name: "loss", Doc: "training loss curve",
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) {
				return TrainLossCurve(t, p.Options(), p.Seed, w)
			})},
		{Name: "ablation", Doc: "design-choice ablations", InAll: true,
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) { return Ablations(t, p.Options(), p.Seed, w) })},
		{Name: "multi", Doc: "multi-instance horizons on the industrial stream", InAll: true,
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) {
				return MultiExperiment(p.Options(), p.Seed, w)
			})},
		{Name: "validity", Doc: "empirical check of Theorems 4.2 and 5.2", InAll: true,
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) {
				return Validity(t, p.Options(), p.Trials, p.Seed, w)
			})},
		{Name: "density", Doc: "event-density sensitivity",
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) { return Density(p.Options(), nil, p.Seed, w) })},
		{Name: "tune", Doc: "operating-point tuner",
			Run: onTask(func(t Task, p Params, w io.Writer) (interface{}, error) {
				return TuneExperiment(t, p.Options(), p.Seed, w)
			})},
		{Name: "summary", Doc: "headline table over all sixteen tasks",
			Run: onTask(func(_ Task, p Params, w io.Writer) (interface{}, error) { return Summary(p.Options(), p.Seed, w) })},
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
// shows.
func ListExperiments(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-4s %s\n", "NAME", "ALL", "DESCRIPTION")
	for _, e := range Experiments() {
		all := "-"
		if e.InAll {
			all = "all"
		}
		fmt.Fprintf(w, "%-12s %-4s %s\n", e.Name, all, e.Doc)
	}
}
