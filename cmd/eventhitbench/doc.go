// Command eventhitbench runs entries of the experiment registry
// (internal/harness.Experiments): the tables and figures of the paper's
// evaluation (§VI), this repository's extensions, and the producers of the
// committed BENCH_*.json artifacts. Fleet-scale workloads — cap, cache and
// CI-fault sweeps — are scenario specs instead (cmd/eventhitscenario).
//
// Usage:
//
//	eventhitbench -list
//	eventhitbench -exp table1
//	eventhitbench -exp fig4 -task TA5 -trials 5
//	eventhitbench -exp all -quick
//	eventhitbench -exp cascade
//	eventhitbench -exp cascade -parallelism 1 -out /tmp/cascade.json
//
// With no other flag an experiment runs its canonical configuration (the
// CONFIG column below); -task, -seed, -quick, -trials, -window and -horizon
// override it only when given, and sizes no flag reaches — ladder shapes,
// sweep grids — are constants of the registry entry. "all" runs the entries
// marked all, in table order.
//
// An entry with an ARTIFACT writes its JSON result to that file in the
// working directory (-out redirects it) and refuses to write a result
// outside the entry's acceptance bounds. The result is byte-identical run
// to run and at any -parallelism, so `eventhitbench -exp cascade` rewrites
// the committed BENCH_cascade.json byte for byte; scripts/check.sh
// regenerates every artifact entry and compares. No entry reports a wall-clock number: those come from `go run
// ./bench` (BENCHMARK.json).
//
// Experiments whose trials (or tasks, or sweep settings) are independent
// run them on -parallelism concurrent workers; results are bit-identical at
// any setting. -metricsout dumps the process metrics registry after the
// run.
//
// The registry (this table is generated: `go test ./cmd/eventhitbench
// -update` rewrites it from the code, and the test fails when it drifts):
//
//	NAME         ARTIFACT               ALL  CONFIG             DESCRIPTION
//	table1       -                      all  TA1,seed=1         Table I: dataset statistics
//	table2       -                      all  TA1,seed=1         Table II: task definitions
//	fig4         -                      all  TA1,seed=1         Figure 4: REC vs SPL of every strategy on one task
//	fig4all      -                      -    TA1,seed=1         Figure 4 on all sixteen tasks
//	fig5         -                      all  TA1,seed=1         Figure 5: EHC sweep of the confidence c
//	fig6         -                      all  TA1,seed=1         Figure 6: EHR sweep of the coverage alpha
//	fig7         -                      all  TA1,seed=1         Figure 7: sensitivity to window M and horizon H
//	fig8         -                      all  TA1,seed=1         Figure 8: monetary case study
//	fig9         -                      all  TA1,seed=1         Figure 9: REC vs end-to-end FPS
//	fig10        -                      all  TA1,seed=1         Figure 10: stage time shares
//	resources    -                      all  TA1,seed=1         model size and training-job size
//	loss         -                      -    TA1,seed=1         training loss curve
//	ablation     -                      all  TA1,seed=1         design-choice ablations
//	multi        -                      all  TA1,seed=1         multi-instance horizons on the industrial stream
//	geom         -                      all  TA1,seed=1         covariate-family comparison
//	validity     -                      all  TA1,seed=1         empirical check of Theorems 4.2 and 5.2
//	density      -                      -    TA1,seed=1         event-density sensitivity
//	tune         -                      -    TA1,seed=1         operating-point tuner
//	summary      -                      -    TA1,seed=1         headline table over all sixteen tasks
//	cascade      BENCH_cascade.json     -    TA1,seed=1,quick   early-inference ladder x exit-policy sweep
package main
