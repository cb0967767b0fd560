package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// allowPath is the allowlist, relative to the module root. Each line is
//
//	SYMBOL REASON
//
// where SYMBOL is a finding's name (pkg.Name, pkg.Type.Method or
// pkg.Type.Field) and REASON is one of
//
//	bench-held: ROADMAP item N
//	test helper for PKG [(note)]
//
// Blank lines and lines starting with # are comments.
const allowPath = "scripts/deadcode.allow"

var (
	benchHeld  = regexp.MustCompile(`^bench-held: ROADMAP item [0-9]+$`)
	testHelper = regexp.MustCompile(`^test helper for ([A-Za-z0-9_]+)( \(.+\))?$`)
)

type entry struct {
	line   int
	reason string
	tester string // the PKG of a test-helper reason
}

// allowlist is the parsed allowlist and what was wrong with its lines.
type allowlist struct {
	entries  map[string]entry
	problems []string
}

// readAllowlist reads dir's allowlist; a module without one allows nothing.
func readAllowlist(dir string) (allowlist, error) {
	a := allowlist{entries: map[string]entry{}}
	f, err := os.Open(filepath.Join(dir, allowPath))
	if errors.Is(err, fs.ErrNotExist) {
		return a, nil
	}
	if err != nil {
		return a, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(text, " ")
		e := entry{line: n, reason: strings.TrimSpace(reason)}
		if m := testHelper.FindStringSubmatch(e.reason); m != nil {
			e.tester = m[1]
		} else if !benchHeld.MatchString(e.reason) {
			a.problems = append(a.problems, fmt.Sprintf("%s:%d: %s: the reason must be %q or %q", allowPath, n, sym, "bench-held: ROADMAP item N", "test helper for PKG"))
			continue
		}
		if old, dup := a.entries[sym]; dup {
			a.problems = append(a.problems, fmt.Sprintf("%s:%d: %s is already listed on line %d", allowPath, n, sym, old.line))
			continue
		}
		a.entries[sym] = e
	}
	return a, sc.Err()
}

// gate returns what fails: a finding the allowlist does not hold, an entry
// whose reason the finding contradicts, and an entry that names no finding.
func gate(findings []finding, a allowlist) []string {
	problems := append([]string{}, a.problems...)
	used := map[string]bool{}
	for _, f := range findings {
		e, ok := a.entries[f.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s:%d %s is not on %s: delete it, move it into a _test.go file, or allowlist it", f.Pos.Filename, f.Pos.Line, f.Name, allowPath))
			continue
		}
		used[f.Name] = true
		if e.tester == "" {
			continue
		}
		switch {
		case !slices.Contains(f.Testers, e.tester):
			problems = append(problems, fmt.Sprintf("%s:%d: %s: the tests of %s do not use it (%s)", allowPath, e.line, f.Name, e.tester, f))
		case !f.Field && len(f.Testers) == 1 && f.Testers[0] == f.own:
			problems = append(problems, fmt.Sprintf("%s:%d: %s: only its own package's tests use it: move it into a _test.go file", allowPath, e.line, f.Name))
		}
	}
	for sym, e := range a.entries {
		if !used[sym] {
			problems = append(problems, fmt.Sprintf("%s:%d: %s is reached (or gone): remove the line", allowPath, e.line, sym))
		}
	}
	slices.Sort(problems)
	return problems
}
