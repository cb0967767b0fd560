// Package harness defines the sixteen prediction tasks of Table II and the
// experiment drivers that regenerate every table and figure of §VI. Each
// driver prints the same rows/series the paper reports and returns the
// numbers in structured form for the benchmark suite.
//
// An experiment file contains only what is particular to its experiment.
// What recurs is said once: the grid of independent cells (cells and
// trialCells, pool.go), the training recipe (NewEnv over trainOn, env.go,
// with the scoring and curve reductions in curves.go), the deployed camera
// (Env.camera) and the scored pipeline run over the test region
// (Env.marshal, deploy.go). Decisions go through strategy.Bundle.Decide, the
// path the server runs. Registry rows validate their Params and resolve the
// task once (onTask); an experiment takes a Task and always renders to the
// writer it is given — pass io.Discard for none.
package harness

import (
	"fmt"

	"eventhit/internal/video"
)

// Task is one prediction task of Table II: a named subset of the event
// types of one dataset.
type Task struct {
	// Name is the paper's task label, e.g. "TA7".
	Name string
	// EventIDs are the paper's global event IDs (E1..E12).
	EventIDs []int
	// Dataset is the dataset containing the events.
	Dataset video.DatasetSpec
	// EventIdx are the corresponding indices within Dataset.Events.
	EventIdx []int
}

// NumEvents returns the number of events K in the task.
func (t Task) NumEvents() int { return len(t.EventIDs) }

// eventSet renders the task's events the way Table II does: "{E1,E5}".
func (t Task) eventSet() string {
	s := "{"
	for i, id := range t.EventIDs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("E%d", id)
	}
	return s + "}"
}

// String implements fmt.Stringer.
func (t Task) String() string { return t.Name + " " + t.eventSet() + " on " + t.Dataset.Name }

// taskEventIDs encodes Table II.
var taskEventIDs = map[string][]int{
	"TA1": {1}, "TA2": {2}, "TA3": {3}, "TA4": {4},
	"TA5": {5}, "TA6": {6}, "TA7": {1, 5}, "TA8": {5, 6},
	"TA9": {1, 5, 6}, "TA10": {7}, "TA11": {8}, "TA12": {9},
	"TA13": {10}, "TA14": {11}, "TA15": {11, 12}, "TA16": {10, 12},
}

// taskOrder lists tasks in the paper's order.
var taskOrder = []string{
	"TA1", "TA2", "TA3", "TA4", "TA5", "TA6", "TA7", "TA8",
	"TA9", "TA10", "TA11", "TA12", "TA13", "TA14", "TA15", "TA16",
}

// TaskByName resolves a Table II task label.
func TaskByName(name string) (Task, error) {
	ids, ok := taskEventIDs[name]
	if !ok {
		return Task{}, fmt.Errorf("harness: unknown task %q (want TA1..TA16)", name)
	}
	spec, err := video.SpecByEventID(ids[0])
	if err != nil {
		return Task{}, err
	}
	t := Task{Name: name, EventIDs: ids, Dataset: spec}
	for _, id := range ids {
		idx, err := spec.EventIndexByID(id)
		if err != nil {
			return Task{}, err
		}
		t.EventIdx = append(t.EventIdx, idx)
	}
	return t, nil
}

// mustTask resolves a label written in this package — the tasks the paper
// fixes a figure to — against the static table.
func mustTask(name string) Task {
	t, err := TaskByName(name)
	if err != nil {
		panic(err) // static table, cannot fail
	}
	return t
}

// Tasks returns all sixteen tasks in paper order.
func Tasks() []Task {
	out := make([]Task, 0, len(taskOrder))
	for _, name := range taskOrder {
		out = append(out, mustTask(name))
	}
	return out
}
