package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The fixture module under testdata/ holds one declaration of each class.
const fixture = "testdata/fixture"

// TestFixtureClassification: every class the gate tells apart, on the
// fixture. Reached declarations (cmd/app's calls, a method only fmt.Stringer
// reaches, an assembly stub, fields encoding/json and fmt read, an iota
// group of which one member is used) are not findings at all; nor are the
// fields cmd/app writes by assignment, composite-literal key, ++, &, a
// sub-field, an element or encoding/json's decoder.
func TestFixtureClassification(t *testing.T) {
	p, err := load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, f := range p.analyze() {
		got[f.Name] = strings.TrimPrefix(f.String(), f.Pos.Filename+":")
	}
	want := map[string]string{
		"lib.DeadExported":     "10 lib.DeadExported: nothing reaches it",
		"lib.deadUnexported":   "12 lib.deadUnexported: nothing reaches it",
		"lib.ownTestHelper":    "14 lib.ownTestHelper: only the tests of lib reach it",
		"lib.SharedTestHelper": "17 lib.SharedTestHelper: only the tests of other reach it",
		"lib.BenchOnly":        "20 lib.BenchOnly: only bench/ reaches it",
		"lib.Shape.Unused":     "31 lib.Shape.Unused: nothing reaches it",
		"lib.Report.Unread":    "36 lib.Report.Unread: nothing reads it",
		"lib.Knobs.Zero":       "63 lib.Knobs.Zero: nothing writes it",
		"lib.Knobs.BenchSet":   "70 lib.Knobs.BenchSet: only bench/ writes it",
		"lib.Knobs.TestSet":    "71 lib.Knobs.TestSet: only the tests of lib write it",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", lines(got), lines(want))
	}
}

// TestFixtureGate: the fixture's allowlist holds the bench-only function
// and field and the other-package helper; the gate exits 1 naming exactly
// the rest.
func TestFixtureGate(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(fixture, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errb.String())
	}
	for _, allowed := range []string{
		"lib.SharedTestHelper: only the tests of other reach it  [allowed: test helper for other]",
		"lib.BenchOnly: only bench/ reaches it  [allowed: bench-held: ROADMAP item 1]",
		"lib.Knobs.BenchSet: only bench/ writes it  [allowed: bench-held: ROADMAP item 1]",
	} {
		if !strings.Contains(out.String(), allowed) {
			t.Errorf("stdout lacks %q:\n%s", allowed, out.String())
		}
	}
	var failed []string
	for _, l := range strings.Split(strings.TrimSpace(errb.String()), "\n") {
		failed = append(failed, strings.Fields(l)[2])
	}
	want := []string{"lib.DeadExported", "lib.deadUnexported", "lib.ownTestHelper", "lib.Shape.Unused", "lib.Report.Unread",
		"lib.Knobs.Zero", "lib.Knobs.TestSet"}
	if !reflect.DeepEqual(failed, want) {
		t.Errorf("failed on %v, want %v", failed, want)
	}
}

// TestGateAllowlist: what an allowlist line may not do.
func TestGateAllowlist(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "scripts"), 0o755); err != nil {
		t.Fatal(err)
	}
	allow := `# comment
lib.Bench          bench-held: ROADMAP item 1
lib.Bench          bench-held: ROADMAP item 4
lib.Own            test helper for lib
lib.Other          test helper for core
lib.T.Field        test helper for lib (TestAccounting)
lib.Gone           bench-held: ROADMAP item 1
lib.Vague          used somewhere
`
	if err := os.WriteFile(filepath.Join(dir, allowPath), []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := readAllowlist(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings := []finding{
		{Name: "lib.Bench", Bench: true, own: "lib"},
		{Name: "lib.Own", Testers: []string{"lib"}, own: "lib"},
		{Name: "lib.Other", Testers: []string{"serve"}, own: "lib"},
		{Name: "lib.T.Field", Field: true, Testers: []string{"lib"}, own: "lib"},
		{Name: "lib.Vague", own: "lib"},
	}
	got := gate(findings, a)
	want := []string{
		"lib.Bench is already listed on line 2",
		"lib.Gone is reached (or gone)",
		"lib.Other: the tests of core do not use it",
		"lib.Own: only its own package's tests use it",
		"lib.Vague: the reason must be",
		"lib.Vague is not on " + allowPath,
	}
	if len(got) != len(want) {
		t.Fatalf("problems:\n%s\nwant %d", strings.Join(got, "\n"), len(want))
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			found = found || strings.Contains(g, w)
		}
		if !found {
			t.Errorf("no problem says %q:\n%s", w, strings.Join(got, "\n"))
		}
	}
}

func lines(m map[string]string) string {
	var b strings.Builder
	for _, v := range m {
		b.WriteString("\t" + v + "\n")
	}
	return b.String()
}
