package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"eventhit/internal/dataset"
	"eventhit/internal/video"
)

func rec1(label bool, oi video.Interval) dataset.Record {
	return dataset.Record{
		Label:    []bool{label},
		OI:       []video.Interval{oi},
		Censored: []bool{false},
	}
}

func pred1(occur bool, oi video.Interval) Prediction {
	return Prediction{Occur: []bool{occur}, OI: []video.Interval{oi}}
}

func TestEta(t *testing.T) {
	truth := video.Interval{Start: 10, End: 19} // 10 frames
	cases := []struct {
		pred video.Interval
		want float64
	}{
		{video.Interval{Start: 10, End: 19}, 1},
		{video.Interval{Start: 1, End: 100}, 1},
		{video.Interval{Start: 15, End: 19}, 0.5},
		{video.Interval{Start: 1, End: 9}, 0},
		{video.Interval{Start: 20, End: 30}, 0},
	}
	for _, c := range cases {
		if got := Eta(c.pred, truth); got != c.want {
			t.Errorf("Eta(%v) = %v, want %v", c.pred, got, c.want)
		}
	}
	if Eta(video.Interval{Start: 1, End: 5}, video.Interval{}) != 0 {
		t.Error("empty truth must give 0")
	}
}

func TestEtaBounds(t *testing.T) {
	f := func(p1, p2, t1 int8, tlen uint8) bool {
		truth := video.Interval{Start: int(t1), End: int(t1) + int(tlen%50)}
		pred := video.Interval{Start: int(p1), End: int(p2)}
		e := Eta(pred, truth)
		return e >= 0 && e <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRECPerfectAndMiss(t *testing.T) {
	recs := []dataset.Record{
		rec1(true, video.Interval{Start: 10, End: 19}),
		rec1(true, video.Interval{Start: 50, End: 59}),
		rec1(false, video.Interval{}),
	}
	perfect := []Prediction{
		pred1(true, video.Interval{Start: 10, End: 19}),
		pred1(true, video.Interval{Start: 50, End: 59}),
		pred1(false, video.Interval{}),
	}
	if r, err := REC(recs, perfect); err != nil || r != 1 {
		t.Fatalf("REC = %v, %v", r, err)
	}
	missed := []Prediction{
		pred1(false, video.Interval{}),
		pred1(true, video.Interval{Start: 50, End: 54}),
		pred1(false, video.Interval{}),
	}
	// (0 + 0.5) / 2
	if r, _ := REC(recs, missed); math.Abs(r-0.25) > 1e-12 {
		t.Fatalf("REC = %v, want 0.25", r)
	}
}

func TestRECErrors(t *testing.T) {
	if _, err := REC([]dataset.Record{rec1(false, video.Interval{})},
		[]Prediction{pred1(false, video.Interval{})}); err == nil {
		t.Fatal("expected error with no positives")
	}
	if _, err := REC([]dataset.Record{rec1(true, video.Interval{Start: 1, End: 2})}, nil); err == nil {
		t.Fatal("expected alignment error")
	}
	if _, err := REC([]dataset.Record{rec1(true, video.Interval{Start: 1, End: 2})},
		[]Prediction{{Occur: []bool{true, false}, OI: make([]video.Interval, 2)}}); err == nil {
		t.Fatal("expected event-count error")
	}
}

func TestSPLBruteForceIsOne(t *testing.T) {
	h := 100
	recs := []dataset.Record{
		rec1(true, video.Interval{Start: 10, End: 19}),
		rec1(false, video.Interval{}),
	}
	bf := []Prediction{
		pred1(true, video.Interval{Start: 1, End: h}),
		pred1(true, video.Interval{Start: 1, End: h}),
	}
	// positive record: (100-10)/(100-10) = 1; negative record: 100/100 = 1.
	if s, err := SPL(recs, bf, h); err != nil || math.Abs(s-1) > 1e-12 {
		t.Fatalf("SPL = %v, %v; want 1", s, err)
	}
}

func TestSPLOptimalIsZero(t *testing.T) {
	h := 100
	recs := []dataset.Record{
		rec1(true, video.Interval{Start: 10, End: 19}),
		rec1(false, video.Interval{}),
	}
	opt := []Prediction{
		pred1(true, video.Interval{Start: 10, End: 19}),
		pred1(false, video.Interval{}),
	}
	if s, err := SPL(recs, opt, h); err != nil || s != 0 {
		t.Fatalf("SPL = %v, %v; want 0", s, err)
	}
}

func TestSPLPartial(t *testing.T) {
	h := 100
	recs := []dataset.Record{rec1(true, video.Interval{Start: 41, End: 60})} // 20 true frames
	preds := []Prediction{pred1(true, video.Interval{Start: 31, End: 70})}   // 40 predicted
	// excess = 20, non-event = 80 -> 0.25
	if s, _ := SPL(recs, preds, h); math.Abs(s-0.25) > 1e-12 {
		t.Fatalf("SPL = %v, want 0.25", s)
	}
	// False positive record: whole predicted interval wasted.
	recs = append(recs, rec1(false, video.Interval{}))
	preds = append(preds, pred1(true, video.Interval{Start: 1, End: 50}))
	// (0.25 + 0.5)/2
	if s, _ := SPL(recs, preds, h); math.Abs(s-0.375) > 1e-12 {
		t.Fatalf("SPL = %v, want 0.375", s)
	}
}

func TestSPLEventFillsHorizon(t *testing.T) {
	h := 50
	recs := []dataset.Record{rec1(true, video.Interval{Start: 1, End: 50})}
	preds := []Prediction{pred1(true, video.Interval{Start: 1, End: 50})}
	s, err := SPL(recs, preds, h)
	if err != nil || s != 0 {
		t.Fatalf("SPL = %v, %v; want 0 (no wasteable frames)", s, err)
	}
}

func TestSPLErrors(t *testing.T) {
	if _, err := SPL(nil, nil, 100); err == nil {
		t.Fatal("expected error on empty test set")
	}
	if _, err := SPL([]dataset.Record{rec1(true, video.Interval{Start: 1, End: 2})},
		[]Prediction{pred1(true, video.Interval{Start: 1, End: 2})}, 0); err == nil {
		t.Fatal("expected error on zero horizon")
	}
}

func TestRECcAndRECr(t *testing.T) {
	recs := []dataset.Record{
		rec1(true, video.Interval{Start: 10, End: 19}),
		rec1(true, video.Interval{Start: 30, End: 39}),
		rec1(false, video.Interval{}),
	}
	preds := []Prediction{
		pred1(true, video.Interval{Start: 15, End: 19}), // eta 0.5
		pred1(false, video.Interval{}),
		pred1(true, video.Interval{Start: 1, End: 9}),
	}
	rc, err := RECc(recs, preds)
	if err != nil || math.Abs(rc-0.5) > 1e-12 {
		t.Fatalf("RECc = %v, %v", rc, err)
	}
	rr, err := RECr(recs, preds)
	if err != nil || math.Abs(rr-0.5) > 1e-12 {
		t.Fatalf("RECr = %v, %v", rr, err)
	}
	// Nothing predicted positive: RECr defined as 0, no error.
	none := []Prediction{
		pred1(false, video.Interval{}),
		pred1(false, video.Interval{}),
		pred1(false, video.Interval{}),
	}
	if rr, err := RECr(recs, none); err != nil || rr != 0 {
		t.Fatalf("RECr(none) = %v, %v", rr, err)
	}
}

func TestFramesSent(t *testing.T) {
	preds := []Prediction{
		{Occur: []bool{true, false}, OI: []video.Interval{{Start: 1, End: 10}, {}}},
		{Occur: []bool{true, true}, OI: []video.Interval{{Start: 5, End: 9}, {Start: 1, End: 100}}},
	}
	if n := FramesSent(preds); n != 10+5+100 {
		t.Fatalf("FramesSent = %d", n)
	}
}

func TestTrueEventFrames(t *testing.T) {
	recs := []dataset.Record{
		rec1(true, video.Interval{Start: 1, End: 10}),
		rec1(false, video.Interval{}),
		rec1(true, video.Interval{Start: 5, End: 6}),
	}
	if n := TrueEventFrames(recs); n != 12 {
		t.Fatalf("TrueEventFrames = %d", n)
	}
}

// REC and RECr relationship: REC = RECc-weighted RECr in aggregate; at
// least REC <= RECr * RECc + epsilon never holds in general, but REC must
// never exceed RECc (coverage cannot beat detection).
func TestRECNeverExceedsRECc(t *testing.T) {
	f := func(seed int64) bool {
		// random small scenario
		g := seed
		next := func(n int) int {
			g = g*6364136223846793005 + 1442695040888963407
			v := int((g >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		recs := make([]dataset.Record, 5)
		preds := make([]Prediction, 5)
		anyPos := false
		for i := range recs {
			lab := next(2) == 1
			if lab {
				anyPos = true
			}
			s := 1 + next(50)
			recs[i] = rec1(lab, video.Interval{Start: s, End: s + next(30)})
			ps := 1 + next(50)
			preds[i] = pred1(next(2) == 1, video.Interval{Start: ps, End: ps + next(30)})
		}
		if !anyPos {
			return true
		}
		rec, err1 := REC(recs, preds)
		recc, err2 := RECc(recs, preds)
		if err1 != nil || err2 != nil {
			return false
		}
		return rec <= recc+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionFrames(t *testing.T) {
	cases := []struct {
		runs []video.Interval
		want int
	}{
		{nil, 0},
		{[]video.Interval{{Start: 1, End: 10}}, 10},
		{[]video.Interval{{Start: 1, End: 10}, {Start: 5, End: 15}}, 15},
		{[]video.Interval{{Start: 1, End: 5}, {Start: 10, End: 12}}, 8},
		{[]video.Interval{{Start: 10, End: 12}, {Start: 1, End: 5}}, 8}, // unsorted
		{[]video.Interval{{Start: 1, End: 5}, {Start: 6, End: 8}}, 8},   // adjacent
		{[]video.Interval{{Start: 1, End: 3}, {Start: 1, End: 3}}, 3},   // duplicate
	}
	for _, c := range cases {
		if got := UnionFrames(c.runs); got != c.want {
			t.Errorf("UnionFrames(%v) = %d, want %d", c.runs, got, c.want)
		}
	}
}

func TestEtaRuns(t *testing.T) {
	truths := []video.Interval{{Start: 10, End: 19}, {Start: 50, End: 59}} // 20 frames
	// Single span covering everything between: full coverage.
	if e := EtaRuns([]video.Interval{{Start: 1, End: 100}}, truths); e != 1 {
		t.Fatalf("span EtaRuns = %v", e)
	}
	// Two tight runs: also full coverage.
	if e := EtaRuns([]video.Interval{{Start: 10, End: 19}, {Start: 50, End: 59}}, truths); e != 1 {
		t.Fatalf("tight EtaRuns = %v", e)
	}
	// One instance missed: half coverage.
	if e := EtaRuns([]video.Interval{{Start: 10, End: 19}}, truths); e != 0.5 {
		t.Fatalf("half EtaRuns = %v", e)
	}
	// No truths.
	if e := EtaRuns([]video.Interval{{Start: 1, End: 5}}, nil); e != 0 {
		t.Fatalf("empty-truth EtaRuns = %v", e)
	}
	// Overlapping runs must not double count.
	if e := EtaRuns([]video.Interval{{Start: 10, End: 15}, {Start: 12, End: 19}}, truths[:1]); e != 1 {
		t.Fatalf("overlapping-run EtaRuns = %v", e)
	}
}

func TestMultiRunBeatsSpanOnFramesSent(t *testing.T) {
	// Two instances far apart in one horizon: equal coverage, far fewer
	// frames with per-run relays than with the Eq. (6) span.
	truths := []video.Interval{{Start: 10, End: 19}, {Start: 480, End: 489}}
	runs := []video.Interval{{Start: 8, End: 21}, {Start: 478, End: 491}}
	span := []video.Interval{{Start: 8, End: 491}}
	if EtaRuns(runs, truths) != 1 || EtaRuns(span, truths) != 1 {
		t.Fatal("both must fully cover")
	}
	if UnionFrames(runs) >= UnionFrames(span)/5 {
		t.Fatalf("runs %d frames, span %d — expected >5x saving",
			UnionFrames(runs), UnionFrames(span))
	}
}

func TestPerEventRECAndSPL(t *testing.T) {
	recs := []dataset.Record{
		{Label: []bool{true, false}, OI: []video.Interval{{Start: 10, End: 19}, {}}, Censored: []bool{false, false}},
		{Label: []bool{false, true}, OI: []video.Interval{{}, {Start: 30, End: 39}}, Censored: []bool{false, false}},
	}
	preds := []Prediction{
		{Occur: []bool{true, false}, OI: []video.Interval{{Start: 10, End: 19}, {}}},
		{Occur: []bool{false, true}, OI: []video.Interval{{}, {Start: 35, End: 39}}},
	}
	per, err := PerEventREC(recs, preds)
	if err != nil {
		t.Fatal(err)
	}
	if per[0] != 1 || per[1] != 0.5 {
		t.Fatalf("PerEventREC = %v", per)
	}
	// Aggregate REC must equal the positive-count-weighted mean of
	// per-event values.
	agg, _ := REC(recs, preds)
	if math.Abs(agg-(per[0]+per[1])/2) > 1e-12 {
		t.Fatalf("aggregate %v inconsistent with per-event %v", agg, per)
	}
	spl, err := PerEventSPL(recs, preds, 100)
	if err != nil {
		t.Fatal(err)
	}
	if spl[0] != 0 || spl[1] != 0 {
		t.Fatalf("PerEventSPL = %v", spl)
	}
	// An event with no positives reports -1.
	noPos := []dataset.Record{{Label: []bool{false}, OI: make([]video.Interval, 1), Censored: make([]bool, 1)}}
	noPreds := []Prediction{{Occur: []bool{false}, OI: make([]video.Interval, 1)}}
	per, err = PerEventREC(noPos, noPreds)
	if err != nil || per[0] != -1 {
		t.Fatalf("no-positive event: %v %v", per, err)
	}
}

func TestSPLBounded(t *testing.T) {
	f := func(seed int64) bool {
		g := seed
		next := func(n int) int {
			g = g*6364136223846793005 + 1442695040888963407
			v := int((g >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		h := 60
		recs := make([]dataset.Record, 4)
		preds := make([]Prediction, 4)
		for i := range recs {
			lab := next(2) == 1
			s := 1 + next(h-5)
			e := s + next(h-s)
			recs[i] = rec1(lab, video.Interval{Start: s, End: e})
			ps := 1 + next(h-5)
			pe := ps + next(h-ps)
			preds[i] = pred1(next(3) > 0, video.Interval{Start: ps, End: pe})
		}
		spl, err := SPL(recs, preds, h)
		if err != nil {
			return false
		}
		return spl >= 0 && spl <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
