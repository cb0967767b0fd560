package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// -update-fuzz-seeds rewrites the checked-in fuzz seed corpus under
// testdata/fuzz/FuzzScenarioParse (run after editing corpus specs).
var updateFuzzSeeds = flag.Bool("update-fuzz-seeds", false, "rewrite the FuzzScenarioParse seed corpus")

// fuzzSeeds is the named seed set: every committed scenario spec plus
// crafted inputs covering the parser's syntax error paths and quoting.
func fuzzSeeds(t testing.TB) map[string][]byte {
	entries, err := Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	seeds := map[string][]byte{
		"minimal":             yamlSrc(headOK, streamsOK, stagesOK),
		"stage-timeout":       yamlSrc(headOK, streamsOK, timeoutStages),
		"removed-keys":        removedKeysSpec,
		"huge-count":          hugeCountSpec("nosuch"),
		"quoted-description":  yamlSrc([]string{"name: x", `description: "café #1: \"quoted\""`, "task: TA1"}, streamsOK, stagesOK),
		"invalid-tab":         []byte("name: x\n\tbad: 1\n"),
		"invalid-dup-key":     []byte("name: x\nname: y\n"),
		"invalid-unknown":     yamlSrc(headOK, []string{"bogus: 1"}, streamsOK, stagesOK),
		"invalid-missing-val": []byte("name: x\ntask:\nquick: true\n"),
		"invalid-indent":      []byte("name: x\n      task: TA1\n"),
		"invalid-top-list":    []byte("- a\n"),
	}
	for _, e := range entries {
		seeds["corpus-"+e.Name] = corpusRaw(e)
	}
	return seeds
}

// encodeFuzzSeed renders one input in the go-fuzz v1 corpus file format.
func encodeFuzzSeed(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
}

// TestFuzzSeedCorpus pins the checked-in seed files to the current corpus:
// editing a scenario spec without regenerating the seeds
// (-update-fuzz-seeds) fails here, so the fuzz suite never runs on stale
// regimes.
func TestFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzScenarioParse")
	seeds := fuzzSeeds(t)
	if *updateFuzzSeeds {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for name, data := range seeds {
			if err := os.WriteFile(filepath.Join(dir, name), encodeFuzzSeed(data), 0o644); err != nil {
				t.Fatalf("write seed %s: %v", name, err)
			}
		}
	}
	for name, data := range seeds {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("seed %s: %v (regenerate with -update-fuzz-seeds)", name, err)
		}
		if want := encodeFuzzSeed(data); !bytes.Equal(got, want) {
			t.Errorf("seed %s is stale; regenerate with -update-fuzz-seeds", name)
		}
	}
}

// FuzzScenarioParse holds the parser to its contract on arbitrary input: it
// must never panic, it returns a spec or an error but not both, errors carry
// the "scenario:" positional prefix, and accepted bytes parse to the same
// spec a second time.
func FuzzScenarioParse(f *testing.F) {
	for _, data := range fuzzSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			if spec != nil {
				t.Fatalf("Parse returned both a spec and error %v", err)
			}
			if !strings.HasPrefix(err.Error(), "scenario:") {
				t.Fatalf("error without scenario prefix: %v", err)
			}
			return
		}
		if spec == nil {
			t.Fatal("Parse returned neither a spec nor an error")
		}
		again, err := Parse(data)
		if err != nil || !reflect.DeepEqual(spec, again) {
			t.Fatalf("second parse differs (err %v)\ninput:\n%s\nfirst:  %+v\nsecond: %+v", err, data, spec, again)
		}
	})
}
