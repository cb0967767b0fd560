package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"eventhit/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the experiment table in doc.go from the registry")

// TestPackageDocTable keeps the package doc's experiment table equal to the
// registry's own listing, so the documentation cannot name an experiment
// the binary does not run or miss one it does.
func TestPackageDocTable(t *testing.T) {
	const begin, end = "when it drifts):\n//\n", "package main\n"
	raw, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.LastIndex(doc, end)
	if i < 0 || j < i {
		t.Fatal("doc.go lost the markers around its experiment table")
	}
	i += len(begin)

	var list bytes.Buffer
	harness.ListExperiments(&list)
	var want strings.Builder
	for _, line := range strings.Split(strings.TrimRight(list.String(), "\n"), "\n") {
		want.WriteString("//\t" + strings.TrimRight(line, " ") + "\n")
	}
	if doc[i:j] == want.String() {
		return
	}
	if !*update {
		t.Fatalf("doc.go's experiment table drifted from the registry; run `go test ./cmd/eventhitbench -update`\n--- doc.go ---\n%s--- registry ---\n%s", doc[i:j], want.String())
	}
	if err := os.WriteFile("doc.go", []byte(doc[:i]+want.String()+doc[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}
