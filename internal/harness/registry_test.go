package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// schemaFixtures holds one hand-built result per artifact entry, keyed by
// experiment name. Values are fixed so testdata/NAME_golden.json only moves
// when the schema — field names, order, nesting — does.
func schemaFixtures() map[string]interface{} {
	cascadePoint := CascadePoint{
		Ladder: "tiny+medium", ExitConfidence: 0.95, MaxWidthFrac: 0.8,
		REC: 0.82, SPL: 0.09, RECDelta: 0, SPLDelta: 0,
		Horizons: 200, MeanPredictMS: 0.3, ComputeFrac: 0.15, ComputeCut: 0.85,
		Rungs: []CascadeRungStat{
			{
				Name: "tiny", HiddenScale: 0.25, WindowStride: 4,
				CostMS: 0.035, Exits: 172, ExitRate: 0.86, ComputeShare: 0.12,
			},
			{
				Name: "full", HiddenScale: 1, WindowStride: 1,
				CostMS: 2, Exits: 28, ExitRate: 0.14, ComputeShare: 0.88,
			},
		},
	}
	return map[string]interface{}{
		"cascade": CascadeResult{
			Task: "TA1", Window: 25, Horizon: 500, Seed: 1,
			Confidence: 0.9, Coverage: 0.9,
			RECTol: 0.02, MinComputeCut: 0.3,
			BaselineREC: 0.82, BaselineSPL: 0.09,
			Points:   []CascadePoint{cascadePoint},
			Selected: cascadePoint,
		},
	}
}

// artifactEntries returns the registry rows that own a committed file.
func artifactEntries(t *testing.T) []Experiment {
	t.Helper()
	var out []Experiment
	for _, e := range Experiments() {
		if e.Artifact != "" {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		t.Fatal("registry has no artifact entries")
	}
	return out
}

// TestArtifactSchemas pins every artifact's JSON schema: the entry's
// fixture, encoded by the one producer encoding, must equal
// testdata/NAME_golden.json byte for byte.
func TestArtifactSchemas(t *testing.T) {
	fixtures := schemaFixtures()
	for _, e := range artifactEntries(t) {
		t.Run(e.Name, func(t *testing.T) {
			fix, ok := fixtures[e.Name]
			if !ok {
				t.Fatalf("no schema fixture for artifact entry %q", e.Name)
			}
			got, err := MarshalResult(fix)
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", e.Name+"_golden.json")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s schema drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", e.Artifact, golden, got, want)
			}
		})
	}
	if len(fixtures) != len(artifactEntries(t)) {
		t.Fatalf("%d schema fixtures for %d artifact entries", len(fixtures), len(artifactEntries(t)))
	}
}

// TestArtifactBounds holds every committed BENCH_*.json to its entry's
// Check: it must decode strictly into the result type and satisfy the
// acceptance bounds. Regenerate a stale file with `go run
// ./cmd/eventhitbench -exp NAME` from the repository root.
func TestArtifactBounds(t *testing.T) {
	for _, e := range artifactEntries(t) {
		t.Run(e.Name, func(t *testing.T) {
			if e.Check == nil {
				t.Fatalf("artifact entry %q has no Check", e.Name)
			}
			raw, err := os.ReadFile(filepath.Join("..", "..", e.Artifact))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Check(raw); err != nil {
				t.Fatalf("%s: %v", e.Artifact, err)
			}
		})
	}
}

// TestArtifactBoundsReject: each Check turns down a file of another schema
// (strict decode) and a result that breaks its bounds.
func TestArtifactBoundsReject(t *testing.T) {
	for _, e := range artifactEntries(t) {
		if err := e.Check([]byte(`{"no_such_field": 1}`)); err == nil {
			t.Errorf("%s: Check accepted an unknown field", e.Name)
		}
	}
	broken := map[string]interface{}{
		"cascade": CascadeResult{RECTol: CascadeRECTol, MinComputeCut: CascadeMinComputeCut},
	}
	for _, e := range artifactEntries(t) {
		raw, err := MarshalResult(broken[e.Name])
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Check(raw); err == nil {
			t.Errorf("%s: Check accepted %s", e.Name, raw)
		}
	}
}

// TestRegistryInvariants: names are unique and usable as -exp values, every
// artifact is committed at the repository root, every row
// rejects a non-positive trial count and an unknown task, and Select, "all"
// and the -list table are views of the same table.
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
		if e.Doc == "" || e.Run == nil || e.Params.Task == "" {
			t.Fatalf("entry %q is missing its doc, Run or canonical task", e.Name)
		}
		if e.Artifact != "" {
			if e.Artifact != "BENCH_"+e.Name+".json" {
				t.Fatalf("entry %q writes %s, want BENCH_%s.json", e.Name, e.Artifact, e.Name)
			}
			if _, err := os.Stat(filepath.Join("..", "..", e.Artifact)); err != nil {
				t.Fatalf("entry %q: committed artifact missing: %v", e.Name, err)
			}
		}
		if e.InAll {
			inAll = append(inAll, e.Name)
		}
		fields := strings.Fields(lines[i+1])
		if fields[0] != e.Name || (fields[1] != "-") != (e.Artifact != "") || (fields[2] == "all") != e.InAll {
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
			p := e.Params
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

// TestProduce drives the producer on cheap entries: a tables-only entry
// writes no JSON and rejects -out, and a result that fails its Check is
// refused before anything reaches the disk.
func TestProduce(t *testing.T) {
	table2, err := Select("table2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if wrote, err := table2[0].Produce(table2[0].Params, "", &buf); err != nil || wrote != "" || buf.Len() == 0 {
		t.Fatalf("table2: wrote %q, err %v, %d bytes of tables", wrote, err, buf.Len())
	}
	out := filepath.Join(t.TempDir(), "x.json")
	if _, err := table2[0].Produce(table2[0].Params, out, io.Discard); err == nil {
		t.Fatal("tables-only entry accepted -out")
	}
	e := Experiment{
		Name: "fake", Artifact: "BENCH_fake.json",
		Run: func(Params, io.Writer) (interface{}, error) {
			return CascadeResult{RECTol: CascadeRECTol, MinComputeCut: CascadeMinComputeCut}, nil
		},
		Check: checked(cascadeBounds),
	}
	if _, err := e.Produce(Params{}, out, io.Discard); err == nil {
		t.Fatal("Produce wrote a result outside its bounds")
	}
	if _, err := os.Stat(out); err == nil {
		t.Fatal("refused result still reached the disk")
	}
	e.Check = nil
	wrote, err := e.Produce(Params{}, out, io.Discard)
	if err != nil || wrote != out {
		t.Fatalf("Produce = %q, %v", wrote, err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := MarshalResult(CascadeResult{RECTol: CascadeRECTol, MinComputeCut: CascadeMinComputeCut}); !bytes.Equal(raw, want) {
		t.Fatalf("Produce wrote %s", raw)
	}
}
