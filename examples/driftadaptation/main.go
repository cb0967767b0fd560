// Driftadaptation: the conformal guarantees of C-CLASSIFY hold only while
// new data stays exchangeable with the calibration set. This example — the
// paper's §VIII future-work direction — simulates a camera knocked off its
// framing mid-stream (the detector's cue signal washes out), shows the
// silent coverage collapse of a stale calibration, the coverage monitor
// raising the alarm, and the recovery after recalibrating from fresh
// outcomes.
//
//	go run ./examples/driftadaptation
package main

import (
	"fmt"
	"log"
	"os"

	"eventhit/internal/harness"
)

func main() {
	fmt.Println("training EventHit on a clean stream, then degrading the detector mid-stream...")
	task, err := harness.TaskByName("TA10")
	if err != nil {
		log.Fatal(err)
	}
	res, err := harness.DriftExperiment(task, harness.DefaultOptions(), 0.9, 7, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("what happened: coverage promised %.0f%%, delivered %.0f%% pre-shift — then the\n",
		100*res.Confidence, 100*res.CoverageBefore)
	fmt.Printf("camera moved and the stale calibration silently delivered %.0f%%. The adaptation\n",
		100*res.CoverageAfter)
	fmt.Println("loop serve ships then walked the shift, labelled only by the CI:")
	for _, a := range res.Arms {
		fmt.Printf("  auditing %.0f%% of skips (%d audits): ", 100*a.AuditRate, a.Audits)
		switch {
		case a.Recalibrations > 0:
			fmt.Printf("alarmed after %d labelled positives, recalibrated after %d, coverage restored to %.0f%%.\n",
				a.OutcomesToAlarm, a.OutcomesToRecalibration, 100*a.CoverageRestored)
		case a.Episodes > 0:
			fmt.Printf("alarmed after %d labelled positives but never buffered enough to recalibrate.\n",
				a.OutcomesToAlarm)
		default:
			fmt.Printf("only %d labelled positives reached the monitor — no alarm: the shift went unseen.\n",
				a.Observations)
		}
	}
}
