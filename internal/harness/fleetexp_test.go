package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

func TestFleetExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var buf bytes.Buffer
	fcfg := quickFleetPolicy()
	res, err := Fleet(mustTask("TA10"), Quick(), 3, 20_000, fcfg, 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Streams) != 3 || res.Task != "TA10" {
		t.Fatalf("result = %+v", res)
	}
	rep := res.Report
	for _, s := range rep.Streams {
		if s.Relays == 0 {
			t.Fatalf("stream %s released no relays", s.ID)
		}
		if s.Served+s.Deferred+s.Shed != s.Relays {
			t.Fatalf("stream %s accounting does not partition: %+v", s.ID, s)
		}
		if s.RealizedREC > s.REC+1e-12 {
			t.Fatalf("stream %s realized REC %v above model REC %v", s.ID, s.RealizedREC, s.REC)
		}
	}
	// The acceptance property: total billed frames never exceed the cap.
	if rep.TotalSpentUSD > fcfg.GlobalBudgetUSD {
		t.Fatalf("spent %v over cap %v", rep.TotalSpentUSD, fcfg.GlobalBudgetUSD)
	}
	if got := float64(rep.TotalFrames) * fcfg.Pricing.PerFrameUSD; got > fcfg.GlobalBudgetUSD {
		t.Fatalf("billed frames %d (%v USD) over cap %v", rep.TotalFrames, got, fcfg.GlobalBudgetUSD)
	}
	if rep.Deferred == 0 {
		t.Fatalf("cap sized below unconstrained spend engaged no deferrals: %+v", rep)
	}
	if len(res.Metrics) == 0 || res.Metrics["eventhit_fleet_served_relays_total"] != float64(rep.Served) {
		t.Fatalf("metrics digest inconsistent with report: %v vs served %d", res.Metrics, rep.Served)
	}
	if buf.Len() == 0 {
		t.Fatal("experiment rendered no table")
	}
}

// TestFleetExperimentDeterministicAcrossParallelism is the acceptance
// property: byte-identical JSON whether stream envs and timelines are built
// on one worker or many.
func TestFleetExperimentDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models twice")
	}
	run := func(cells, fleetPar int) []byte {
		old := SetParallelism(cells)
		defer SetParallelism(old)
		fcfg := quickFleetPolicy()
		fcfg.Parallelism = fleetPar
		res, err := Fleet(mustTask("TA10"), Quick(), 2, 10_000, fcfg, 5, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1, 1)
	parallel := run(4, 6)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("fleet run differs across parallelism:\n p=1: %s\n p>1: %s", serial, parallel)
	}
}
