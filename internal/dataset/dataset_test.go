package dataset

import (
	"testing"

	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

// fixedStream builds a hand-authored stream so labels can be asserted
// exactly.
func fixedStream(t *testing.T) (*video.Stream, *features.Extractor) {
	t.Helper()
	spec := video.DatasetSpec{
		Name:      "fixed",
		StreamLen: 5000,
		Window:    5,
		Horizon:   100,
		Events: []video.EventSpec{
			{Name: "A", ID: 1, Occurrences: 1, MeanDur: 10, StdDur: 1},
			{Name: "B", ID: 2, Occurrences: 1, MeanDur: 10, StdDur: 1},
		},
	}
	s := &video.Stream{
		Spec: spec,
		N:    spec.StreamLen,
		ByType: [][]video.Instance{
			{
				{OI: video.Interval{Start: 1050, End: 1099}, PrecursorStart: 1000},
				{OI: video.Interval{Start: 2000, End: 2300}, PrecursorStart: 1900},
			},
			{
				{OI: video.Interval{Start: 1060, End: 1080}, PrecursorStart: 1020},
			},
		},
	}
	ex, err := features.NewExtractor(s, []int{0, 1}, features.DefaultDetector(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return s, ex
}

func TestBuildRecordLabelsAndOffsets(t *testing.T) {
	_, ex := fixedStream(t)
	cfg := Config{Window: 5, Horizon: 100}
	r, err := BuildRecord(ex, 1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Horizon is (1000, 1100]; instance A [1050,1099] inside, B [1060,1080].
	if !r.Label[0] || !r.Label[1] {
		t.Fatalf("labels = %v", r.Label)
	}
	if r.OI[0] != (video.Interval{Start: 50, End: 99}) {
		t.Fatalf("OI A = %v", r.OI[0])
	}
	if r.OI[1] != (video.Interval{Start: 60, End: 80}) {
		t.Fatalf("OI B = %v", r.OI[1])
	}
	if r.Censored[0] || r.Censored[1] {
		t.Fatal("nothing should be censored")
	}
	if len(r.X) != 5 || r.Frame != 1000 {
		t.Fatalf("X rows = %d frame = %d", len(r.X), r.Frame)
	}
	if r.NumPositive() != 2 {
		t.Fatalf("NumPositive = %d", r.NumPositive())
	}
}

func TestBuildRecordCensoring(t *testing.T) {
	_, ex := fixedStream(t)
	cfg := Config{Window: 5, Horizon: 100}
	// Horizon (1950, 2050]; instance A2 [2000,2300] runs past the end.
	r, err := BuildRecord(ex, 1950, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Label[0] || r.Label[1] {
		t.Fatalf("labels = %v", r.Label)
	}
	if !r.Censored[0] {
		t.Fatal("A must be censored")
	}
	if r.OI[0] != (video.Interval{Start: 50, End: 100}) {
		t.Fatalf("censored OI = %v, want [50,100]", r.OI[0])
	}
}

func TestBuildRecordOngoingEventClipsToOne(t *testing.T) {
	_, ex := fixedStream(t)
	cfg := Config{Window: 5, Horizon: 100}
	// Anchor inside instance A [1050,1099]: start offset clips to 1.
	r, err := BuildRecord(ex, 1060, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Label[0] {
		t.Fatal("ongoing event must be labeled")
	}
	if r.OI[0].Start != 1 {
		t.Fatalf("ongoing start offset = %d, want 1", r.OI[0].Start)
	}
	if r.OI[0].End != 39 {
		t.Fatalf("ongoing end offset = %d, want 39", r.OI[0].End)
	}
}

func TestBuildRecordNegative(t *testing.T) {
	_, ex := fixedStream(t)
	r, err := BuildRecord(ex, 3000, Config{Window: 5, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if r.Label[0] || r.Label[1] || r.NumPositive() != 0 {
		t.Fatalf("expected all-negative record, got %v", r.Label)
	}
}

func TestBuildRecordBoundsChecked(t *testing.T) {
	_, ex := fixedStream(t)
	cfg := Config{Window: 5, Horizon: 100}
	if _, err := BuildRecord(ex, 3, cfg); err == nil {
		t.Fatal("expected error: window before stream start")
	}
	if _, err := BuildRecord(ex, 4950, cfg); err == nil {
		t.Fatal("expected error: horizon past stream end")
	}
	if _, err := BuildRecord(ex, 100, Config{Window: 0, Horizon: 10}); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := BuildRecord(ex, 100, Config{Window: 5, Horizon: 0}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestLabelRecordMatchesBuildRecord(t *testing.T) {
	_, ex := fixedStream(t)
	cfg := Config{Window: 5, Horizon: 100}
	full, _ := BuildRecord(ex, 1000, cfg)
	lab := LabelRecord(ex, 1000, cfg)
	for k := range full.Label {
		if full.Label[k] != lab.Label[k] || full.OI[k] != lab.OI[k] || full.Censored[k] != lab.Censored[k] {
			t.Fatal("LabelRecord disagrees with BuildRecord")
		}
	}
	if lab.X != nil {
		t.Fatal("LabelRecord must not extract covariates")
	}
}

func realExtractor(t *testing.T) *features.Extractor {
	t.Helper()
	s := video.Generate(video.THUMOS(), mathx.NewRNG(5))
	ex, err := features.NewExtractor(s, []int{0}, features.DefaultDetector(), 5)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestBuildSplitsSizesAndRegions(t *testing.T) {
	ex := realExtractor(t)
	cfg := SampleConfig{
		Config: Config{Window: 10, Horizon: 200},
		NTrain: 50, NCCalib: 40, NRCalib: 30, NTest: 20,
		TrainPosFrac: 0.5,
	}
	s, err := Build(ex, cfg, mathx.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Train) != 50 || len(s.CCalib) != 40 || len(s.RCalib) != 30 || len(s.Test) != 20 {
		t.Fatalf("sizes %d %d %d %d", len(s.Train), len(s.CCalib), len(s.RCalib), len(s.Test))
	}
	maxTrain, minCalib := 0, 1<<60
	for _, r := range s.Train {
		if r.Frame > maxTrain {
			maxTrain = r.Frame
		}
	}
	for _, r := range append(append([]Record{}, s.CCalib...), s.RCalib...) {
		if r.Frame < minCalib {
			minCalib = r.Frame
		}
	}
	if maxTrain >= minCalib {
		t.Fatalf("train region (max %d) overlaps calibration region (min %d)", maxTrain, minCalib)
	}
	minTest := 1 << 60
	maxCalib := 0
	for _, r := range append(append([]Record{}, s.CCalib...), s.RCalib...) {
		if r.Frame > maxCalib {
			maxCalib = r.Frame
		}
	}
	for _, r := range s.Test {
		if r.Frame < minTest {
			minTest = r.Frame
		}
	}
	if maxCalib >= minTest {
		t.Fatalf("calibration region (max %d) overlaps test region (min %d)", maxCalib, minTest)
	}
}

func TestStratificationRaisesPositiveRate(t *testing.T) {
	ex := realExtractor(t)
	base := SampleConfig{
		Config: Config{Window: 10, Horizon: 200},
		NTrain: 300, NCCalib: 1, NRCalib: 1, NTest: 1,
	}
	uniform, err := Build(ex, base, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	base.TrainPosFrac = 0.8
	strat, err := Build(ex, base, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	pu := PositiveCount(uniform.Train, 0)
	ps := PositiveCount(strat.Train, 0)
	if ps <= pu {
		t.Fatalf("stratified positives %d not above uniform %d", ps, pu)
	}
	if float64(ps)/300 < 0.4 {
		t.Fatalf("stratified positive rate too low: %d/300", ps)
	}
}

func TestBuildDeterministic(t *testing.T) {
	ex := realExtractor(t)
	cfg := SampleConfig{
		Config: Config{Window: 10, Horizon: 200},
		NTrain: 20, NCCalib: 20, NRCalib: 20, NTest: 20,
	}
	a, _ := Build(ex, cfg, mathx.NewRNG(7))
	b, _ := Build(ex, cfg, mathx.NewRNG(7))
	for i := range a.Test {
		if a.Test[i].Frame != b.Test[i].Frame {
			t.Fatal("Build is not deterministic")
		}
	}
}

func TestBuildRejectsShortStream(t *testing.T) {
	s := &video.Stream{
		Spec:   video.DatasetSpec{Events: []video.EventSpec{{Name: "A"}}},
		N:      300,
		ByType: [][]video.Instance{{}},
	}
	ex, _ := features.NewExtractor(s, []int{0}, features.DefaultDetector(), 1)
	cfg := SampleConfig{Config: Config{Window: 50, Horizon: 250}, NTrain: 1, NCCalib: 1, NRCalib: 1, NTest: 1}
	if _, err := Build(ex, cfg, mathx.NewRNG(1)); err == nil {
		t.Fatal("expected error for stream too short")
	}
}

func TestHorizonInstances(t *testing.T) {
	_, ex := fixedStream(t)
	// Horizon (1000, 1100]: only the first A instance.
	ivs := HorizonInstances(ex, 1000, 100, 0)
	if len(ivs) != 1 || ivs[0] != (video.Interval{Start: 50, End: 99}) {
		t.Fatalf("HorizonInstances = %v", ivs)
	}
	// Wide horizon (1000, 2400]: both A instances, the second clipped.
	ivs = HorizonInstances(ex, 1000, 1400, 0)
	if len(ivs) != 2 {
		t.Fatalf("HorizonInstances = %v", ivs)
	}
	if ivs[1] != (video.Interval{Start: 1000, End: 1300}) {
		t.Fatalf("second instance = %v", ivs[1])
	}
	// First-instance offsets must agree with Record.OI.
	rec, _ := BuildRecord(ex, 1000, Config{Window: 5, Horizon: 1400})
	if ivs[0] != rec.OI[0] {
		t.Fatalf("first instance %v disagrees with Record.OI %v", ivs[0], rec.OI[0])
	}
	// No instances.
	if got := HorizonInstances(ex, 3000, 100, 0); len(got) != 0 {
		t.Fatalf("expected none, got %v", got)
	}
}

func TestBuildRecordMulti(t *testing.T) {
	_, ex := fixedStream(t)
	cfg := Config{Window: 5, Horizon: 1400}
	r, err := BuildRecordMulti(ex, 1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.AllOI == nil || len(r.AllOI) != 2 {
		t.Fatalf("AllOI = %v", r.AllOI)
	}
	// Both instances of event A fall in the wide horizon.
	if len(r.AllOI[0]) != 2 {
		t.Fatalf("AllOI[0] = %v", r.AllOI[0])
	}
	// The first AllOI entry equals the single-instance OI.
	if r.AllOI[0][0] != r.OI[0] {
		t.Fatalf("first instance %v != Record.OI %v", r.AllOI[0][0], r.OI[0])
	}
	if _, err := BuildRecordMulti(ex, 2, cfg); err == nil {
		t.Fatal("expected range error")
	}
}

// PositiveCount returns, per task event, how many records in recs are
// positive for it.
func PositiveCount(recs []Record, k int) int {
	n := 0
	for _, r := range recs {
		if r.Label[k] {
			n++
		}
	}
	return n
}
