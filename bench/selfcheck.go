package main

import (
	"fmt"
	"io"
	"math"
)

// selfcheck runs the end-to-end suite twice with the same binary and seed
// and holds the second run against the first the way a later change is
// held against its parent: per workload and end-to-end metric it prints
// both values, the relative worsening, and PASS or FAIL against the
// metric's bound. It is the tool for "is this benchmark steady here?".
func selfcheck(o options, names []string, out, errw io.Writer) int {
	var runs [2]map[string]*result
	for i := range runs {
		runs[i] = map[string]*result{}
		for _, name := range names {
			res, err := runOne(name, o)
			if err != nil {
				fmt.Fprintf(errw, "bench: %s: %v\n", name, err)
				return 1
			}
			if !report(out, name, res, false) {
				return 1
			}
			runs[i][name] = res
		}
	}
	code := 0
	fmt.Fprintf(out, "selfcheck %-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, name := range names {
		for _, spec := range endToEndSpecs {
			a, b := runs[0][name].metrics[spec.Name].Value, runs[1][name].metrics[spec.Name].Value
			worse := worsening(spec, a, b)
			verdict := "PASS"
			if worse > spec.Bound {
				verdict, code = "FAIL", 1
			}
			fmt.Fprintf(out, "selfcheck %-16s %-14s %14.6g %14.6g %+8.2f%% %6.0f%% %s\n",
				name, spec.Name, a, b, 100*worse, 100*spec.Bound, verdict)
		}
	}
	return code
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
