package scenario

import (
	"embed"
	"fmt"
	"sort"
	"strings"
)

// The committed corpus: one spec per workload regime the paper's claims
// must keep holding across, each pinned to a golden report under testdata/.
// Both sets are embedded so cmd/eventhitscenario runs the whole suite from
// any working directory; the package tests read the same goldens from disk
// so a -regen is visible without recompiling.

//go:embed corpus/*.json
var corpusFS embed.FS

//go:embed testdata/*.golden.json
var goldenFS embed.FS

// Entry is one corpus scenario: its name and the parsed, validated spec of
// corpus/<name>.json.
type Entry struct {
	Name string
	Spec *Spec
}

// Corpus returns the committed scenarios sorted by name. Every file must
// parse and must be named after its spec ("<name>.json") — a corpus that
// fails this is a build artifact bug, caught by the package tests.
func Corpus() ([]Entry, error) {
	files, err := corpusFS.ReadDir("corpus")
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, f := range files {
		raw, err := corpusFS.ReadFile("corpus/" + f.Name())
		if err != nil {
			return nil, err
		}
		spec, err := Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", f.Name(), err)
		}
		if want := spec.Name + ".json"; f.Name() != want {
			return nil, fmt.Errorf("corpus %s: spec is named %q (file should be %s)", f.Name(), spec.Name, want)
		}
		out = append(out, Entry{Name: spec.Name, Spec: spec})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Golden returns the embedded golden report for a corpus scenario.
func Golden(name string) ([]byte, error) {
	if strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("scenario: invalid corpus name %q", name)
	}
	return goldenFS.ReadFile("testdata/" + name + ".golden.json")
}
