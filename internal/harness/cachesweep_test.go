package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// TestCacheSweepQuick runs the full sweep on a short paired workload and
// checks the acceptance properties: the exact-match control saves real
// money at exactly zero recall cost, and billed + saved frames partition
// the baseline's bill.
func TestCacheSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var buf bytes.Buffer
	res, err := CacheSweep(mustTask("TA10"), Quick(), 4, 12_000, CacheFleetPolicy(1), 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenes != 2 || len(res.Points) != len(CacheEpsilons())*len(CacheTTLs()) {
		t.Fatalf("result shape = %+v", res)
	}
	if res.BaselineFrames == 0 {
		t.Fatal("baseline relayed nothing; the sweep needs relays")
	}
	for _, p := range res.Points {
		if p.Served+p.Deferred+p.Shed == 0 {
			t.Fatalf("point %+v served nothing", p)
		}
		if p.Epsilon != 0 {
			continue
		}
		// The exact-match control: twin-scene coalescing is pure profit.
		if p.Hits == 0 || p.SavedFrames == 0 || p.SavedUSD <= 0 {
			t.Fatalf("eps=0 produced no savings over a paired workload: %+v", p)
		}
		if p.Frames+p.SavedFrames != res.BaselineFrames {
			t.Fatalf("eps=0 frames don't partition: billed %d + saved %d != baseline %d",
				p.Frames, p.SavedFrames, res.BaselineFrames)
		}
		if p.RECDelta != 0 || p.BadHits != 0 {
			t.Fatalf("eps=0 cost recall: %+v", p)
		}
	}
	if buf.Len() == 0 {
		t.Fatal("experiment rendered no table")
	}
}

// TestCacheSweepDeterministicAcrossParallelism: byte-identical JSON
// whether cells run on one worker or many and whatever the fleet
// scheduler's phase-A parallelism is.
func TestCacheSweepDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models twice")
	}
	run := func(cells, fleetPar int) []byte {
		old := SetParallelism(cells)
		defer SetParallelism(old)
		res, err := CacheSweep(mustTask("TA10"), Quick(), 4, 8_000, CacheFleetPolicy(fleetPar), 5, io.Discard)
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
		t.Fatalf("cache sweep differs across parallelism:\n p=1: %s\n p>1: %s", serial, parallel)
	}
}
