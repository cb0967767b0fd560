// Command eventhitscenario runs declarative workload scenarios (see
// internal/scenario): a JSON spec describing streams, scene mixes,
// arrival surges, drift schedules, fault plans, budgets and cache settings,
// compiled onto the harness/fleet/pipeline machinery by a staged runner.
//
//	eventhitscenario -list
//	eventhitscenario -spec my-scenario.json -out report.json
//	eventhitscenario -corpus                # run the committed corpus against its goldens
//	eventhitscenario -corpus -regen         # regenerate the committed goldens
//
// Parallel stage groups, camera builds and fleet timelines use every core
// (set GOMAXPROCS to limit them). Reports are byte-identical at any
// GOMAXPROCS (the fleet's two-phase determinism contract, extended to
// parallel stage groups), which is what makes the corpus a golden-pinned
// regression suite: -corpus exits non-zero if any report drifts from
// internal/scenario/testdata.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"eventhit/internal/scenario"
)

func main() {
	var (
		spec     = flag.String("spec", "", "run one scenario spec file")
		corpus   = flag.Bool("corpus", false, "run the committed corpus and compare against the goldens")
		regen    = flag.Bool("regen", false, "with -corpus: rewrite the goldens instead of comparing")
		list     = flag.Bool("list", false, "list the committed corpus scenarios")
		out      = flag.String("out", "", "with -spec: write the report JSON here (default stdout)")
		testdata = flag.String("testdata", filepath.Join("internal", "scenario", "testdata"), "golden directory for -corpus -regen")
	)
	flag.Parse()

	switch {
	case *list:
		entries, err := scenario.Corpus()
		if err != nil {
			fatal(err)
		}
		for _, e := range entries {
			fmt.Printf("%-20s %s\n", e.Name, e.Spec.Description)
		}
	case *spec != "":
		raw, err := os.ReadFile(*spec)
		if err != nil {
			fatal(err)
		}
		s, err := scenario.Parse(raw)
		if err != nil {
			fatal(err)
		}
		t0 := time.Now()
		rep, err := scenario.Run(s)
		if err != nil {
			fatal(err)
		}
		data, err := scenario.MarshalReport(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %s]\n", s.Name, time.Since(t0).Round(time.Millisecond))
		if *out == "" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
		}
	case *corpus:
		entries, err := scenario.Corpus()
		if err != nil {
			fatal(err)
		}
		drifted := 0
		for _, e := range entries {
			t0 := time.Now()
			rep, err := scenario.Run(e.Spec)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", e.Name, err))
			}
			data, err := scenario.MarshalReport(rep)
			if err != nil {
				fatal(err)
			}
			if *regen {
				path := filepath.Join(*testdata, e.Name+".golden.json")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "[%s done in %s] wrote %s\n", e.Name, time.Since(t0).Round(time.Millisecond), path)
				continue
			}
			golden, err := scenario.Golden(e.Name)
			if err != nil {
				fatal(fmt.Errorf("%s: missing golden (run eventhitscenario -corpus -regen): %w", e.Name, err))
			}
			if bytes.Equal(data, golden) {
				fmt.Fprintf(os.Stderr, "[%s ok in %s]\n", e.Name, time.Since(t0).Round(time.Millisecond))
			} else {
				drifted++
				fmt.Fprintf(os.Stderr, "[%s DRIFTED in %s]\n", e.Name, time.Since(t0).Round(time.Millisecond))
			}
		}
		if drifted > 0 {
			fatal(fmt.Errorf("%d corpus golden(s) drifted; if intended, regenerate with: eventhitscenario -corpus -regen", drifted))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eventhitscenario:", err)
	os.Exit(1)
}
