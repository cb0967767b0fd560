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
	fmt.Printf("camera moved and the stale calibration silently delivered %.0f%%. The monitor\n",
		100*res.CoverageAfter)
	if res.AlarmRaised {
		fmt.Printf("alarmed after %d realized positives; recalibrating from post-shift outcomes\n",
			res.OutcomesToAlarm)
		fmt.Printf("restored coverage to %.0f%% at the same confidence level.\n",
			100*res.CoverageRestored)
	} else {
		fmt.Println("did not alarm on this seed — rerun with another -seed to see the alarm fire.")
	}
}
