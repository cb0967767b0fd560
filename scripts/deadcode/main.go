// Command deadcode is the repository's dead-code gate. It lists every
// declaration in internal/ that no binary reaches, every exported struct
// field that no binary reads, and every one the binaries read but never
// write (so they see only its zero value), and fails on any that
// scripts/deadcode.allow does not name. Run it from the module root; it
// takes no flags:
//
//	go run ./scripts/deadcode
//
// It resolves objects, not names: `go list -deps -json ./...` names the
// module's packages, go/parser reads them once, and go/types checks each
// against the others (the standard library through the source importer).
// Every reference to a module declaration is then an edge, and the tool
// walks the edges from three kinds of root:
//
//   - binaries: main and init of every main package under cmd/ and
//     examples/, plus, in every package those link, init functions, blank
//     (_) variables and assembly-backed declarations (a func without a
//     body);
//   - bench/: the same for the benchmark binary;
//   - tests: every declaration in one package's _test.go files.
//
// A method is reached when its receiver type is reached and the type
// implements an interface that has the method: one the standard library
// names, or one that reached code spells. A field is read when reached
// code selects it outside an assignment's left side, or passes a value of
// a type that holds it to encoding/json, encoding/gob, fmt or log
// (directly, or through a function that hands its interface-typed
// parameter on). A field is written when reached code assigns, increments
// or decrements it or a sub-field or element of it, names it as a
// composite-literal key, takes its address, or hands a value of a type
// that holds it to json.Unmarshal or a json or gob Decoder's Decode.
//
// Each finding prints as `file:line name: why`, where why is one of
// "nothing reaches it", "only bench/ reaches it", "only the tests of P
// reach it" (fields: "... reads it", or "... writes it" for a field the
// binaries read). A finding whose name the allowlist
// holds prints its reason after it. The exit status is 1 when a finding is
// not on the allowlist, or an allowlist line is malformed, names nothing
// found, or gives a reason the finding contradicts; 2 when the module does
// not load.
package main

import (
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(".", os.Stdout, os.Stderr))
}

// run gates the module rooted at dir against dir/scripts/deadcode.allow.
func run(dir string, stdout, stderr io.Writer) int {
	prog, err := load(dir)
	if err != nil {
		fmt.Fprintln(stderr, "deadcode:", err)
		return 2
	}
	findings := prog.analyze()
	allow, err := readAllowlist(dir)
	if err != nil {
		fmt.Fprintln(stderr, "deadcode:", err)
		return 2
	}
	problems := gate(findings, allow)
	for _, f := range findings {
		line := f.String()
		if e, ok := allow.entries[f.Name]; ok {
			line += "  [allowed: " + e.reason + "]"
		}
		fmt.Fprintln(stdout, line)
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "deadcode:", p)
	}
	if len(problems) > 0 {
		return 1
	}
	return 0
}
