package fleet

import (
	"testing"

	"eventhit/internal/cloud"
	"eventhit/internal/mathx"
	"eventhit/internal/pipeline"
	"eventhit/internal/video"
)

// synthetic timelines drive the scheduler directly: full control over
// release times and slack without building real pipelines.

func synthTimeline(n int, slack int, releaseStepMS float64, frames int) pipeline.Timeline {
	var tl pipeline.Timeline
	for i := 0; i < n; i++ {
		tl.Requests = append(tl.Requests, pipeline.RelayRequest{
			Seq: i, Horizon: i, Event: 0, EventType: 0,
			Win:         video.Interval{Start: i * 100, End: i*100 + frames - 1},
			SlackFrames: slack,
			ReleaseMS:   float64(i+1) * releaseStepMS,
		})
	}
	tl.Horizons = n
	return tl
}

func synthScheduler(t *testing.T, cfg Config) (*scheduler, *cloud.Service) {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	st := video.Generate(video.THUMOS(), mathx.NewRNG(1))
	svc := cloud.NewService(st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	return newScheduler(cfg, nil), svc
}

// TestSchedulerStarvationRegression: a flood of zero-slack relays from one
// stream must not lock out a low-urgency stream. Aging (waiting shrinks
// effective slack) guarantees the parked stream is served mid-run; with
// aging effectively disabled (a huge framePeriodMS makes slack decay
// negligible) the same workload parks it until the flood drains. The
// regression pins that the aged wait is strictly — and substantially —
// smaller.
func TestSchedulerStarvationRegression(t *testing.T) {
	run := func(period float64) (floodMax, parkedMax float64) {
		cfg := DefaultConfig()
		cfg.QueueMax = 0 // no shedding: starvation must be solved by ordering
		sch, svc := synthScheduler(t, cfg)
		sch.framePeriodMS = period
		sch.batchMax = 1 // serial channel: maximal contention
		sch.callOverheadMS = 0
		// Flood: 300 urgent relays, 40 frames each, released at exactly the
		// channel's service rate (40 x 40 ms = 1.6 s per relay): a fresh
		// zero-slack arrival is pending at every dispatch for 480 s. Parked:
		// 10 low-urgency relays released early. A static priority serves the
		// parked stream only after the whole flood; aging lets it cut in
		// once its slack (500 frames ~ 16.7 s) has decayed away.
		sch.addStream("flood", svc, synthTimeline(300, 0, 1600, 40))
		sch.addStream("parked", svc, synthTimeline(10, 500, 20, 40))
		sch.run()
		flood, parked := sch.streams[0], sch.streams[1]
		if flood.served != 300 || parked.served != 10 {
			t.Fatalf("not everything served: flood %d/300, parked %d/10", flood.served, parked.served)
		}
		return flood.maxWaitMS, parked.maxWaitMS
	}
	_, agedWait := run(framePeriodMS)
	_, starvedWait := run(1e12) // slack decay ~0: pure static priority
	if agedWait >= starvedWait {
		t.Fatalf("aging did not help: aged max wait %v >= static %v", agedWait, starvedWait)
	}
	if agedWait > starvedWait/2 {
		t.Fatalf("aged max wait %v not substantially under static %v", agedWait, starvedWait)
	}
}

// TestSchedulerShedsLowestUrgencyFirst: when the bounded queue overflows,
// the shed victims are the least urgent relays, not the most urgent.
func TestSchedulerShedsLowestUrgencyFirst(t *testing.T) {
	cfg := DefaultConfig()
	// The bound must exceed one stream's backlog (20) for "sheds only the
	// lazy stream" to be satisfiable: 40 simultaneous arrivals against a
	// smaller bound force shedding urgent relays too.
	cfg.QueueMax = 24
	sch, svc := synthScheduler(t, cfg)
	sch.batchMax = 1
	sch.callOverheadMS = 0
	// Both streams release everything at once; the channel (40ms/frame x
	// 40 frames) drains far slower than arrivals, so the queue overflows
	// immediately.
	sch.addStream("urgent", svc, synthTimeline(20, 0, 0.001, 40))
	sch.addStream("lazy", svc, synthTimeline(20, 1000, 0.001, 40))
	sch.run()
	urgent, lazy := sch.streams[0], sch.streams[1]
	if urgent.shed+lazy.shed == 0 {
		t.Fatal("queue bound shed nothing")
	}
	if urgent.shed != 0 {
		t.Fatalf("urgent relays shed (%d) while lazy ones existed (lazy shed %d)", urgent.shed, lazy.shed)
	}
	if lazy.shed == 0 {
		t.Fatalf("no lazy relays shed: urgent %d, lazy %d", urgent.shed, lazy.shed)
	}
}

// TestSchedulerBatchingAmortizesOverhead: with batching the makespan is
// shorter than serial dispatch of the same workload, by the per-call
// overhead saved.
func TestSchedulerBatchingAmortizesOverhead(t *testing.T) {
	run := func(batch int) (float64, int) {
		cfg := DefaultConfig()
		cfg.QueueMax = 0
		sch, svc := synthScheduler(t, cfg)
		sch.batchMax = batch
		sch.callOverheadMS = 500
		sch.addStream("a", svc, synthTimeline(16, 10, 0.001, 10))
		sch.run()
		if sch.streams[0].served != 16 {
			t.Fatalf("served %d/16", sch.streams[0].served)
		}
		return sch.ciFreeMS, sch.batches
	}
	serialMS, serialBatches := run(1)
	batchedMS, batchedBatches := run(8)
	if serialBatches != 16 {
		t.Fatalf("serial dispatch made %d calls, want 16", serialBatches)
	}
	if batchedBatches >= serialBatches {
		t.Fatalf("batching made %d calls, serial made %d", batchedBatches, serialBatches)
	}
	saved := float64(serialBatches-batchedBatches) * 500
	if got := serialMS - batchedMS; got != saved {
		t.Fatalf("batching saved %v ms, want %v (overhead x calls saved)", got, saved)
	}
}

// TestSchedulerDeterministicReplay: the same synthetic workload scheduled
// twice produces identical counters, spend and makespan.
func TestSchedulerDeterministicReplay(t *testing.T) {
	run := func() (float64, float64, int, int, int) {
		cfg := DefaultConfig()
		cfg.GlobalBudgetUSD = 2
		cfg.StreamRatePerSec = 300
		cfg.StreamBurst = 500
		cfg.QueueMax = 16
		sch, svc := synthScheduler(t, cfg)
		sch.addStream("a", svc, synthTimeline(60, 5, 15, 30))
		sch.addStream("b", svc, synthTimeline(60, 50, 10, 25))
		sch.run()
		a, b := sch.streams[0], sch.streams[1]
		return sch.ciFreeMS, sch.spentUSD, a.served + b.served, a.deferred + b.deferred, a.shed + b.shed
	}
	m1, s1, sv1, d1, sh1 := run()
	m2, s2, sv2, d2, sh2 := run()
	if m1 != m2 || s1 != s2 || sv1 != sv2 || d1 != d2 || sh1 != sh2 {
		t.Fatalf("replay diverged: (%v %v %d %d %d) vs (%v %v %d %d %d)", m1, s1, sv1, d1, sh1, m2, s2, sv2, d2, sh2)
	}
}
