package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"eventhit/internal/harness"
)

func main() {
	d := harness.DefaultParams
	var (
		exp     = flag.String("exp", "", "experiment to run: a name from -list, or \"all\"")
		list    = flag.Bool("list", false, "print the experiment registry and exit")
		task    = flag.String("task", d.Task, "Table II task of single-task experiments")
		trials  = flag.Int("trials", d.Trials, "independent trials averaged (the paper uses 10)")
		seed    = flag.Int64("seed", d.Seed, "base random seed")
		quick   = flag.Bool("quick", d.Quick, "reduced dataset/epoch sizes")
		window  = flag.Int("window", d.Window, "collection window M (0 = dataset default)")
		horizon = flag.Int("horizon", d.Horizon, "time horizon H (0 = dataset default)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage: eventhitbench -exp NAME [flags]\n\n")
		harness.ListExperiments(flag.CommandLine.Output())
		fmt.Fprintf(flag.CommandLine.Output(), "\nExperiments use every core (set GOMAXPROCS to limit them); tables are\nbyte-identical at any GOMAXPROCS.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		harness.ListExperiments(os.Stdout)
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	exps, err := harness.Select(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eventhitbench: %v\n", err)
		os.Exit(1)
	}
	p := harness.Params{Task: *task, Trials: *trials, Seed: *seed, Quick: *quick, Window: *window, Horizon: *horizon}
	for _, e := range exps {
		t0 := time.Now()
		_, err := e.Run(p, os.Stdout)
		fmt.Fprintf(os.Stderr, "[%s done in %s]\n", e.Name, time.Since(t0).Round(time.Millisecond))
		if err != nil {
			fmt.Fprintf(os.Stderr, "eventhitbench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
}
