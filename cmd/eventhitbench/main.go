package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"eventhit/internal/harness"
)

func main() {
	var (
		exp         = flag.String("exp", "", "experiment to run: a name from -list, or \"all\"")
		list        = flag.Bool("list", false, "print the experiment registry and exit")
		task        = flag.String("task", "", "override the experiment's task")
		trials      = flag.Int("trials", 0, "override the independent trials averaged (the paper uses 10)")
		seed        = flag.Int64("seed", 0, "override the base random seed")
		quick       = flag.Bool("quick", false, "override the experiment's sizing: reduced dataset/epoch sizes")
		window      = flag.Int("window", 0, "override collection window M (0 = dataset default)")
		horizon     = flag.Int("horizon", 0, "override time horizon H (0 = dataset default)")
		parallelism = flag.Int("parallelism", runtime.NumCPU(), "concurrent experiment cells (trials/tasks/settings); results are identical at any value")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage: eventhitbench -exp NAME [overrides]\n\n")
		harness.ListExperiments(flag.CommandLine.Output())
		fmt.Fprintf(flag.CommandLine.Output(), "\nWith no other flag an experiment runs its CONFIG; -task, -seed, -quick, -trials,\n-window and -horizon override it only when given.\n\n")
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
	harness.SetParallelism(*parallelism)

	// Only flags given on the command line override an entry's canonical
	// configuration.
	overrides := map[string]func(*harness.Params){
		"task":    func(p *harness.Params) { p.Task = *task },
		"trials":  func(p *harness.Params) { p.Trials = *trials },
		"seed":    func(p *harness.Params) { p.Seed = *seed },
		"quick":   func(p *harness.Params) { p.Quick = *quick },
		"window":  func(p *harness.Params) { p.Window = *window },
		"horizon": func(p *harness.Params) { p.Horizon = *horizon },
	}
	for _, e := range exps {
		p := e.Params
		flag.Visit(func(f *flag.Flag) {
			if set := overrides[f.Name]; set != nil {
				set(&p)
			}
		})
		t0 := time.Now()
		_, err := e.Run(p, os.Stdout)
		fmt.Fprintf(os.Stderr, "[%s done in %s]\n", e.Name, time.Since(t0).Round(time.Millisecond))
		if err != nil {
			fmt.Fprintf(os.Stderr, "eventhitbench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
}
