package cloud

import (
	"math"
	"sync"
	"testing"

	"eventhit/internal/video"
)

func testStream() *video.Stream {
	return &video.Stream{
		Spec: video.DatasetSpec{Events: make([]video.EventSpec, 1)},
		N:    10000,
		ByType: [][]video.Instance{{
			{OI: video.Interval{Start: 100, End: 199}},
			{OI: video.Interval{Start: 500, End: 549}},
		}},
	}
}

func TestDetectFindsExactOverlaps(t *testing.T) {
	s := NewService(testStream(), RekognitionPricing(), DefaultLatency())
	det, err := s.Detect(0, video.Interval{Start: 150, End: 520})
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Found) != 2 {
		t.Fatalf("Found = %v", det.Found)
	}
	if det.Found[0] != (video.Interval{Start: 150, End: 199}) ||
		det.Found[1] != (video.Interval{Start: 500, End: 520}) {
		t.Fatalf("Found = %v", det.Found)
	}
}

func TestDetectMeters(t *testing.T) {
	s := NewService(testStream(), RekognitionPricing(), DefaultLatency())
	if _, err := s.Detect(0, video.Interval{Start: 0, End: 999}); err != nil {
		t.Fatal(err)
	}
	u := s.Usage()
	if u.Frames != 1000 || u.Requests != 1 {
		t.Fatalf("usage %+v", u)
	}
	if math.Abs(u.SpentUSD-1.0) > 1e-9 {
		t.Fatalf("spent %v, want 1.0", u.SpentUSD)
	}
	if math.Abs(u.BusyMS-40000) > 1e-9 {
		t.Fatalf("busy %v, want 40000", u.BusyMS)
	}
	if u.HitFrames != 100+50 {
		t.Fatalf("hit frames %d, want 150", u.HitFrames)
	}
}

func TestDetectEmptyAndInvalid(t *testing.T) {
	s := NewService(testStream(), RekognitionPricing(), DefaultLatency())
	det, err := s.Detect(0, video.Interval{Start: 10, End: 5})
	if err != nil || len(det.Found) != 0 {
		t.Fatalf("empty range: %v %v", det, err)
	}
	if u := s.Usage(); u.Frames != 0 {
		t.Fatal("empty range must not be charged")
	}
	if _, err := s.Detect(3, video.Interval{Start: 0, End: 1}); err == nil {
		t.Fatal("expected error for unknown event type")
	}
}

func TestDetectNoEventStillCharged(t *testing.T) {
	s := NewService(testStream(), RekognitionPricing(), DefaultLatency())
	det, _ := s.Detect(0, video.Interval{Start: 1000, End: 1099})
	if len(det.Found) != 0 {
		t.Fatal("no event expected")
	}
	if u := s.Usage(); u.Frames != 100 || u.HitFrames != 0 {
		t.Fatalf("usage %+v", u)
	}
}

func TestCostOf(t *testing.T) {
	s := NewService(testStream(), Pricing{PerFrameUSD: 0.002}, DefaultLatency())
	if c := s.CostOf(500); math.Abs(c-1.0) > 1e-12 {
		t.Fatalf("CostOf = %v", c)
	}
	if s.PerFrameMS() != 40 {
		t.Fatal("PerFrameMS")
	}
}

func TestConcurrentMetering(t *testing.T) {
	s := NewService(testStream(), RekognitionPricing(), DefaultLatency())
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Detect(0, video.Interval{Start: 0, End: 9})
			}
		}()
	}
	wg.Wait()
	if u := s.Usage(); u.Frames != 20*50*10 {
		t.Fatalf("frames = %d, want %d", u.Frames, 20*50*10)
	}
}
