package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/pipeline"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

func testDatasetConfig() dataset.Config { return dataset.Config{Window: 10, Horizon: 200} }

// testStream builds one cheap stream (no training: the OPT strategy reads
// ground truth) over a freshly generated THUMOS stream.
func testStream(t testing.TB, id string, seed int64, end int) Stream {
	t.Helper()
	st := video.Generate(video.THUMOS(), mathx.NewRNG(seed))
	ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testDatasetConfig()
	return Stream{
		ID:       id,
		Source:   ex,
		Strategy: strategy.Opt{},
		Cfg:      cfg,
		Costs:    pipeline.EventHitCosts(cfg.Window),
		Start:    0,
		End:      end,
	}
}

func testStreams(t testing.TB, n, end int) []Stream {
	out := make([]Stream, n)
	for i := range out {
		out[i] = testStream(t, fmt.Sprintf("cam-%d", i), int64(i+1), end)
	}
	return out
}

// TestFleetDeterministicAcrossParallelism is the acceptance property: the
// same stream set yields a byte-identical report (JSON and metrics digest)
// whether timelines are computed on 1 worker or many.
func TestFleetDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) ([]byte, map[string]float64) {
		streams := testStreams(t, 4, 30_000)
		cfg := DefaultConfig()
		cfg.Parallelism = par
		cfg.StreamRatePerSec = 400
		cfg.StreamBurst = 2000
		cfg.GlobalBudgetUSD = 10
		rep, err := Run(streams, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b, rep.MetricsSummary()
	}
	serial, sm := run(1)
	parallel, pm := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("report differs across parallelism:\n p=1: %s\n p=8: %s", serial, parallel)
	}
	if !reflect.DeepEqual(sm, pm) {
		t.Fatalf("metrics summary differs across parallelism:\n p=1: %v\n p=8: %v", sm, pm)
	}
}

// TestFleetServesEverythingWhenUnconstrained: with no budgets and an
// unbounded queue every relay is served, realized recall equals model
// recall, and the accounting partitions exactly.
func TestFleetServesEverythingWhenUnconstrained(t *testing.T) {
	streams := testStreams(t, 3, 30_000)
	cfg := DefaultConfig()
	cfg.QueueMax = 0
	rep, err := Run(streams, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Streams {
		if s.Relays == 0 {
			t.Fatalf("stream %s released no relays", s.ID)
		}
		if s.Served != s.Relays || s.Deferred != 0 || s.Shed != 0 {
			t.Fatalf("stream %s not fully served: %+v", s.ID, s)
		}
		if s.RealizedREC != s.REC {
			t.Fatalf("stream %s realized REC %v != REC %v with everything served", s.ID, s.RealizedREC, s.REC)
		}
		if s.REC != 1 {
			t.Fatalf("OPT stream %s REC = %v", s.ID, s.REC)
		}
		if s.Frames == 0 || s.SpentUSD == 0 {
			t.Fatalf("stream %s billed nothing: %+v", s.ID, s)
		}
	}
	if rep.Batches == 0 || rep.AvgBatchSize < 1 {
		t.Fatalf("no batching recorded: %+v", rep)
	}
	if rep.MakespanMS <= 0 {
		t.Fatalf("makespan %v", rep.MakespanMS)
	}
}

// TestFleetIdleStream: a stream whose region holds no event occurrence has
// no recall to score. The fleet still runs, reports that stream's REC and
// RealizedREC as UndefinedREC, and scores the other streams as usual.
func TestFleetIdleStream(t *testing.T) {
	streams := testStreams(t, 3, 30_000)
	idle := testStream(t, "cam-idle", 9, 30_000)
	// Erase the ground truth: no event ever occurs on this camera.
	gt := idle.Source.(*features.Extractor).Stream()
	for k := range gt.ByType {
		gt.ByType[k] = nil
	}
	streams = append(streams[:1], idle, streams[1], streams[2])
	rep, err := Run(streams, DefaultConfig())
	if err != nil {
		t.Fatalf("fleet with an idle stream failed: %v", err)
	}
	for _, s := range rep.Streams {
		if s.ID == "cam-idle" {
			if s.REC != UndefinedREC || s.RealizedREC != UndefinedREC {
				t.Fatalf("idle stream REC %v, realized %v; want both %v", s.REC, s.RealizedREC, UndefinedREC)
			}
			if s.Horizons == 0 {
				t.Fatal("idle stream scanned no horizons")
			}
			continue
		}
		if s.REC != 1 {
			t.Fatalf("OPT stream %s REC = %v", s.ID, s.REC)
		}
	}
}

// TestFleetGlobalBudgetCap is the acceptance property: total billed CI
// frames never exceed the configured global cap, and the overflow is
// recorded as deferred rather than silently dropped.
func TestFleetGlobalBudgetCap(t *testing.T) {
	streams := testStreams(t, 3, 40_000)
	cfg := DefaultConfig()
	cfg.GlobalBudgetUSD = 0.5 // far below the unconstrained spend
	rep, err := Run(streams, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalSpentUSD > cfg.GlobalBudgetUSD {
		t.Fatalf("spent %v over cap %v", rep.TotalSpentUSD, cfg.GlobalBudgetUSD)
	}
	if got := float64(rep.TotalFrames) * cfg.Pricing.PerFrameUSD; got > cfg.GlobalBudgetUSD {
		t.Fatalf("billed frames %d (%v USD) over cap %v", rep.TotalFrames, got, cfg.GlobalBudgetUSD)
	}
	if rep.Deferred == 0 {
		t.Fatalf("cap engaged no deferrals: %+v", rep)
	}
	for _, s := range rep.Streams {
		if s.Served+s.Deferred+s.Shed != s.Relays {
			t.Fatalf("stream %s accounting does not partition: %+v", s.ID, s)
		}
		if s.Deferred > 0 && s.RealizedREC > s.REC {
			t.Fatalf("stream %s realized REC above model REC: %+v", s.ID, s)
		}
	}
}

// TestFleetStreamBucketMeters: a tight per-stream token bucket defers part
// of one stream's traffic without touching the global accounting.
func TestFleetStreamBucketMeters(t *testing.T) {
	streams := testStreams(t, 2, 30_000)
	cfg := DefaultConfig()
	cfg.StreamRatePerSec = 20 // frames/s: well under the relay demand
	cfg.StreamBurst = 100
	rep, err := Run(streams, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deferred == 0 {
		t.Fatalf("tight bucket deferred nothing: %+v", rep)
	}
	for _, s := range rep.Streams {
		if s.Served+s.Deferred+s.Shed != s.Relays {
			t.Fatalf("stream %s accounting does not partition: %+v", s.ID, s)
		}
	}
}

// TestFleetValidation: malformed stream sets and configs are rejected.
func TestFleetValidation(t *testing.T) {
	if _, err := Run(nil, DefaultConfig()); err == nil {
		t.Fatal("empty stream set accepted")
	}
	s := testStream(t, "a", 1, 5_000)
	bad := s
	bad.ID = ""
	if _, err := Run([]Stream{bad}, DefaultConfig()); err == nil {
		t.Fatal("empty stream ID accepted")
	}
	if _, err := Run([]Stream{s, s}, DefaultConfig()); err == nil {
		t.Fatal("duplicate stream ID accepted")
	}
	cfg := DefaultConfig()
	cfg.BatchMax = 0
	if _, err := Run([]Stream{s}, cfg); err == nil {
		t.Fatal("BatchMax 0 accepted")
	}
	cfg = DefaultConfig()
	cfg.FramePeriodMS = 0
	if _, err := Run([]Stream{s}, cfg); err == nil {
		t.Fatal("FramePeriodMS 0 accepted")
	}
}

// TestFleetRunRaceUnderConcurrentAdmission exists for the race detector:
// many streams admitted on many workers, twice, while a second goroutine
// scrapes the run registry. Failures here are data races, not assertions.
func TestFleetRunRaceUnderConcurrentAdmission(t *testing.T) {
	streams := testStreams(t, 6, 15_000)
	cfg := DefaultConfig()
	cfg.Parallelism = 6
	done := make(chan *Report, 1)
	go func() {
		rep, err := Run(streams, cfg)
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	rep := <-done
	var buf bytes.Buffer
	if err := rep.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("run registry exposed nothing")
	}
}
