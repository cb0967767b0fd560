// Command eventhitbench runs entries of the experiment registry
// (internal/harness.Experiments): the tables and figures of the paper's
// evaluation (§VI) and this repository's extensions. Fleet-scale workloads
// — cap, cache and CI-fault sweeps — are scenario specs instead
// (cmd/eventhitscenario).
//
// Usage:
//
//	eventhitbench -list
//	eventhitbench -exp table1
//	eventhitbench -exp fig4 -task TA5 -trials 5
//	eventhitbench -exp all -quick
//
// Every entry runs harness.DefaultParams (TA1, 3 trials, seed 1, full
// sizes); -task, -seed, -quick, -trials, -window and -horizon override it,
// and sizes no flag reaches — sweep grids, stream counts — are constants of
// the registry entry. "all" runs the entries marked all, in table order.
//
// Every entry prints tables to stdout and writes no file. Independent
// trials, tasks and sweep settings run on every core (set GOMAXPROCS to
// limit them); the tables are byte-identical run to run and at any
// GOMAXPROCS. No entry reports a wall-clock number: those come from
// `go run ./bench` (BENCHMARK.json).
//
// The registry (this table is generated: `go test ./cmd/eventhitbench
// -update` rewrites it from the code, and the test fails when it drifts):
//
//	NAME         ALL  DESCRIPTION
//	table1       all  Table I: dataset statistics
//	table2       all  Table II: task definitions
//	fig4         all  Figure 4: REC vs SPL of every strategy on one task
//	fig4all      -    Figure 4 on all sixteen tasks
//	fig5         all  Figure 5: EHC sweep of the confidence c
//	fig6         all  Figure 6: EHR sweep of the coverage alpha
//	fig7         all  Figure 7: sensitivity to window M and horizon H
//	fig8         all  Figure 8: monetary case study
//	fig9         all  Figure 9: REC vs end-to-end FPS
//	fig10        all  Figure 10: stage time shares
//	resources    all  model size and training-job size
//	loss         -    training loss curve
//	ablation     all  design-choice ablations
//	multi        all  multi-instance horizons on the industrial stream
//	validity     all  empirical check of Theorems 4.2 and 5.2
//	density      -    event-density sensitivity
//	tune         -    operating-point tuner
//	summary      -    headline table over all sixteen tasks
package main
