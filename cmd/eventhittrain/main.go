// Command eventhittrain trains an EventHit model for one Table II task on
// a freshly generated stream and saves the weights, printing the loss
// trajectory and calibration diagnostics.
//
// Usage:
//
//	eventhittrain -task TA1 -out ta1.model -epochs 12
package main

import (
	"flag"
	"fmt"
	"os"

	"eventhit/internal/harness"
	"eventhit/internal/strategy"
)

func main() {
	var (
		task   = flag.String("task", "TA1", "Table II task to train")
		out    = flag.String("out", "", "output model file (optional)")
		epochs = flag.Int("epochs", 12, "training epochs")
		seed   = flag.Int64("seed", 1, "random seed")
		quick  = flag.Bool("quick", false, "use reduced dataset sizes")
	)
	flag.Parse()

	t, err := harness.TaskByName(*task)
	if err != nil {
		fatal(err)
	}
	opt := harness.Params{Quick: *quick}.Options()
	opt.Epochs = *epochs

	fmt.Printf("task %s: %s\n", t.Name, t.String())
	env, err := harness.NewEnv(t, opt, *seed)
	if err != nil {
		fatal(err)
	}
	m := env.Bundle.Model
	fmt.Printf("model: %d parameters (%.1f KiB)\n", m.NumParams(), float64(m.NumParams()*8)/1024)

	for _, s := range []struct {
		name string
		st   strategy.Strategy
	}{
		{"EHO", env.Bundle.EHO()},
		{"EHC(c=0.9)", env.Bundle.EHC(0.9)},
		{"EHCR(0.9,0.9)", env.Bundle.EHCR(0.9, 0.9)},
	} {
		p, err := env.Eval(s.st, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s REC=%.3f SPL=%.3f REC_c=%.3f REC_r=%.3f\n",
			s.name, p.REC, p.SPL, p.RECc, p.RECr)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		// The bundle is the deployable unit: weights + both conformal
		// calibrations + decoding thresholds.
		if err := env.Bundle.Save(f); err != nil {
			fatal(err)
		}
		fmt.Printf("saved bundle to %s\n", *out)
		rf, err := os.Open(*out)
		if err != nil {
			fatal(err)
		}
		defer rf.Close()
		fi, err := rf.Stat()
		if err != nil {
			fatal(err)
		}
		if _, err := strategy.LoadBundle(rf, fi.Size()); err != nil {
			fatal(fmt.Errorf("saved bundle does not load back: %w", err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eventhittrain:", err)
	os.Exit(1)
}
