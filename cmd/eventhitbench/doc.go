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
// With no other flag an experiment runs its canonical configuration (the
// CONFIG column below); -task, -seed, -quick, -trials, -window and -horizon
// override it only when given, and sizes no flag reaches — sweep grids,
// stream counts — are constants of the registry entry. "all" runs the
// entries marked all, in table order.
//
// Every entry prints tables to stdout and writes no file; the tables are
// byte-identical run to run and at any -parallelism. No entry reports a
// wall-clock number: those come from `go run ./bench` (BENCHMARK.json).
//
// Experiments whose trials (or tasks, or sweep settings) are independent
// run them on -parallelism concurrent workers; results are bit-identical at
// any setting. -metricsout dumps the process metrics registry after the
// run.
//
// The registry (this table is generated: `go test ./cmd/eventhitbench
// -update` rewrites it from the code, and the test fails when it drifts):
//
//	NAME         ALL  CONFIG      DESCRIPTION
//	table1       all  TA1,seed=1  Table I: dataset statistics
//	table2       all  TA1,seed=1  Table II: task definitions
//	fig4         all  TA1,seed=1  Figure 4: REC vs SPL of every strategy on one task
//	fig4all      -    TA1,seed=1  Figure 4 on all sixteen tasks
//	fig5         all  TA1,seed=1  Figure 5: EHC sweep of the confidence c
//	fig6         all  TA1,seed=1  Figure 6: EHR sweep of the coverage alpha
//	fig7         all  TA1,seed=1  Figure 7: sensitivity to window M and horizon H
//	fig8         all  TA1,seed=1  Figure 8: monetary case study
//	fig9         all  TA1,seed=1  Figure 9: REC vs end-to-end FPS
//	fig10        all  TA1,seed=1  Figure 10: stage time shares
//	resources    all  TA1,seed=1  model size and training-job size
//	loss         -    TA1,seed=1  training loss curve
//	ablation     all  TA1,seed=1  design-choice ablations
//	multi        all  TA1,seed=1  multi-instance horizons on the industrial stream
//	validity     all  TA1,seed=1  empirical check of Theorems 4.2 and 5.2
//	density      -    TA1,seed=1  event-density sensitivity
//	tune         -    TA1,seed=1  operating-point tuner
//	summary      -    TA1,seed=1  headline table over all sixteen tasks
package main
