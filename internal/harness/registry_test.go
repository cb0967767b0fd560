package harness

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistryInvariants: names are unique and usable as -exp values, every
// row rejects a non-positive trial count and an unknown task, no BENCH_*.json
// lies at the repository root without an owner, and Select, "all" and the
// -list table are views of the same table.
func TestRegistryInvariants(t *testing.T) {
	exps := Experiments()
	seen := make(map[string]bool)
	var list bytes.Buffer
	ListExperiments(&list)
	lines := strings.Split(strings.TrimSpace(list.String()), "\n")
	if len(lines) != len(exps)+1 {
		t.Fatalf("-list prints %d lines for %d entries plus a header", len(lines), len(exps))
	}
	var inAll []string
	for i, e := range exps {
		if e.Name == "" || e.Name == "all" || strings.ContainsAny(e.Name, " \t") || seen[e.Name] {
			t.Fatalf("entry %d has an empty, reserved or repeated name %q", i, e.Name)
		}
		seen[e.Name] = true
		if e.Doc == "" || e.Run == nil {
			t.Fatalf("entry %q is missing its doc or Run", e.Name)
		}
		if e.InAll {
			inAll = append(inAll, e.Name)
		}
		fields := strings.Fields(lines[i+1])
		if fields[0] != e.Name || (fields[1] == "all") != e.InAll {
			t.Fatalf("-list row %q does not describe entry %q", lines[i+1], e.Name)
		}
		sel, err := Select(e.Name)
		if err != nil || len(sel) != 1 || sel[0].Name != e.Name {
			t.Fatalf("Select(%q) = %v, %v", e.Name, sel, err)
		}
		// Params are validated once, in the row, before any work starts.
		for _, bad := range []func(*Params){
			func(p *Params) { p.Trials = 0 },
			func(p *Params) { p.Task = "TA99" },
		} {
			p := DefaultParams
			bad(&p)
			if _, err := e.Run(p, io.Discard); err == nil {
				t.Fatalf("entry %q ran with %+v", e.Name, p)
			}
		}
	}
	// Every committed BENCH_*.json has an owner.
	committed, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		if !seen[name] {
			t.Fatalf("%s has no registry entry", filepath.Base(path))
		}
	}
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range all {
		got = append(got, e.Name)
	}
	if strings.Join(got, ",") != strings.Join(inAll, ",") || len(got) == 0 {
		t.Fatalf("Select(all) = %v, InAll entries = %v", got, inAll)
	}
	_, err = Select("nosuch")
	if err == nil {
		t.Fatal("Select accepted an unknown experiment")
	}
	for name := range seen {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-experiment error does not list %q: %v", name, err)
		}
	}
}
