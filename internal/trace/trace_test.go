package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"eventhit/internal/video"
)

func entry(anchor int, relay bool, start, end int) Entry {
	return Entry{
		Anchor: anchor, Horizon: 100, Event: "E", EventIndex: 0,
		Relay: relay, Start: start, End: end,
		Confidence: 0.9, Coverage: 0.9,
	}
}

func TestEntryValidate(t *testing.T) {
	good := entry(10, true, 20, 60)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Entry{
		{Horizon: 0},
		entry(10, true, 60, 20),  // inverted
		entry(10, true, 5, 60),   // starts before anchor
		entry(10, true, 20, 200), // ends past horizon
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("bad entry %d validated", i)
		}
	}
	skip := entry(10, false, 0, 0)
	if err := skip.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Entry{
		entry(0, true, 10, 50),
		entry(100, false, 0, 0),
		entry(200, true, 250, 300),
	}
	for _, e := range want {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d entries", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestAppendRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(entry(10, true, 5, 60)); err == nil {
		t.Fatal("expected validation error")
	}
	if buf.Len() != 0 {
		t.Fatal("invalid entry written")
	}
}

func TestReadAllRejectsGarbage(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("not json\n")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ReadAll(strings.NewReader(`{"horizon":0}` + "\n")); err == nil {
		t.Fatal("expected validation error")
	}
	// Blank lines are tolerated.
	got, err := ReadAll(strings.NewReader("\n\n"))
	if err != nil || len(got) != 0 {
		t.Fatalf("blank trace: %v %v", got, err)
	}
}

func TestWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				w.Append(entry(base*1000+j, false, 0, 0))
			}
		}(i)
	}
	wg.Wait()
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("read %d entries, want 200", len(got))
	}
}

// scoreStream is a hand-authored Truth.
type scoreStream struct{ ins []video.Instance }

func (s scoreStream) InstancesOverlapping(k int, win video.Interval) []video.Instance {
	var out []video.Instance
	for _, in := range s.ins {
		if in.OI.Overlaps(win) {
			out = append(out, in)
		}
	}
	return out
}

func TestScore(t *testing.T) {
	truth := scoreStream{ins: []video.Instance{
		{OI: video.Interval{Start: 30, End: 49}},   // 20 frames in horizon of anchor 0
		{OI: video.Interval{Start: 250, End: 269}}, // in horizon of anchor 200
	}}
	entries := []Entry{
		entry(0, true, 25, 60),     // covers first fully, wastes 16 frames
		entry(100, true, 120, 140), // false positive: 21 wasted
		entry(200, false, 0, 0),    // misses the second event
		entry(300, false, 0, 0),    // correct skip
	}
	a, err := Score(entries, truth, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Decisions != 4 || a.Positives != 2 {
		t.Fatalf("audit = %+v", a)
	}
	if a.TrueFrames != 40 || a.CoveredFrames != 20 {
		t.Fatalf("coverage accounting: %+v", a)
	}
	if a.Recall() != 0.5 {
		t.Fatalf("Recall = %v", a.Recall())
	}
	if a.RelayedFrames != 36+21 || a.WastedFrames != 16+21 {
		t.Fatalf("cost accounting: %+v", a)
	}
	if a.MissedHorizons != 1 {
		t.Fatalf("missed = %d", a.MissedHorizons)
	}
	if a.Waste() <= 0.5 || a.Waste() >= 0.7 {
		t.Fatalf("Waste = %v", a.Waste())
	}
}

func TestScoreValidation(t *testing.T) {
	bad := []Entry{{Anchor: 0, Horizon: 10, EventIndex: 3}}
	if _, err := Score(bad, scoreStream{}, []int{0}); err == nil {
		t.Fatal("expected event-index error")
	}
	a, err := Score(nil, scoreStream{}, []int{0})
	if err != nil || a.Decisions != 0 || a.Recall() != 0 || a.Waste() != 0 {
		t.Fatalf("empty trace: %+v %v", a, err)
	}
}

func TestScoreAgainstGeneratedStream(t *testing.T) {
	// Integration: trace scoring consumes a video.Stream directly (the
	// Truth interface) — a perfect-relay trace must score recall 1, waste 0.
	st := video.Stream{
		Spec: video.DatasetSpec{Events: make([]video.EventSpec, 1)},
		N:    10000,
		ByType: [][]video.Instance{{
			{OI: video.Interval{Start: 120, End: 160}},
			{OI: video.Interval{Start: 700, End: 750}},
		}},
	}
	entries := []Entry{
		{Anchor: 100, Horizon: 200, EventIndex: 0, Relay: true, Start: 120, End: 160},
		{Anchor: 600, Horizon: 200, EventIndex: 0, Relay: true, Start: 700, End: 750},
	}
	a, err := Score(entries, &st, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Recall() != 1 || a.Waste() != 0 || a.MissedHorizons != 0 {
		t.Fatalf("perfect trace scored %+v", a)
	}
}
