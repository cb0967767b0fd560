package features

import (
	"math"
	"testing"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

func testStream() *video.Stream {
	return video.Generate(video.THUMOS(), mathx.NewRNG(42))
}

func TestNewExtractorValidation(t *testing.T) {
	s := testStream()
	if _, err := NewExtractor(s, []int{5}, DefaultDetector(), 1); err == nil {
		t.Fatal("expected error for out-of-range event index")
	}
	if _, err := NewExtractor(s, nil, DefaultDetector(), 1); err == nil {
		t.Fatal("expected error for empty task")
	}
	e, err := NewExtractor(s, []int{0, 2}, DefaultDetector(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Dim() != 2*ChannelsPerEvent+GlobalChannels {
		t.Fatalf("Dim = %d", e.Dim())
	}
	if e.NumEvents() != 2 {
		t.Fatalf("NumEvents = %d", e.NumEvents())
	}
}

func TestSourceInterfaceSatisfied(t *testing.T) {
	var _ dataset.Source = (*Extractor)(nil)
	var _ dataset.Source = (*CachedSource)(nil)
}

func TestFrameVectorDeterministic(t *testing.T) {
	s := testStream()
	e, _ := NewExtractor(s, []int{0}, DefaultDetector(), 7)
	a := e.FrameVector(1234, nil)
	b := e.FrameVector(1234, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FrameVector must be deterministic per frame")
		}
	}
	e2, _ := NewExtractor(s, []int{0}, DefaultDetector(), 8)
	c := e2.FrameVector(1234, nil)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different noise")
	}
}

func TestFrameVectorBounded(t *testing.T) {
	s := testStream()
	e, _ := NewExtractor(s, []int{0, 1, 2}, DefaultDetector(), 3)
	for f := 0; f < 2000; f += 17 {
		v := e.FrameVector(f, nil)
		if len(v) != e.Dim() {
			t.Fatalf("dim %d, want %d", len(v), e.Dim())
		}
		for i, x := range v {
			if x < 0 || x > 1 || math.IsNaN(x) {
				t.Fatalf("frame %d channel %d out of [0,1]: %v", f, i, x)
			}
		}
	}
}

func TestCueCarriesSignal(t *testing.T) {
	// Mean cue during precursor/active must clearly exceed mean cue when
	// idle: this is the predictive signal everything else depends on.
	s := testStream()
	e, _ := NewExtractor(s, []int{0}, DefaultDetector(), 5)
	var idleSum, preSum float64
	var idleN, preN int
	for f := 0; f < s.N && (idleN < 5000 || preN < 5000); f++ {
		phase, prog := s.PhaseAt(0, f)
		v := e.FrameVector(f, nil)
		switch phase {
		case video.Idle:
			idleSum += v[0]
			idleN++
		case video.Precursor:
			if prog > 0.5 {
				preSum += v[0]
				preN++
			}
		}
	}
	idleMean := idleSum / float64(idleN)
	preMean := preSum / float64(preN)
	if preMean < idleMean+0.3 {
		t.Fatalf("late-precursor cue (%.3f) barely above idle cue (%.3f)", preMean, idleMean)
	}
}

func TestActiveChannelNoiseRates(t *testing.T) {
	s := testStream()
	cfg := DetectorConfig{MissRate: 0.2, FPRate: 0.05, Jitter: 0}
	e, _ := NewExtractor(s, []int{0}, cfg, 9)
	var activeHits, activeN, idleHits, idleN int
	for f := 0; f < s.N; f++ {
		phase, _ := s.PhaseAt(0, f)
		v := e.FrameVector(f, nil)
		if phase == video.Active {
			activeN++
			if v[2] == 1 {
				activeHits++
			}
		} else if phase == video.Idle {
			idleN++
			if v[2] == 1 {
				idleHits++
			}
		}
	}
	det := float64(activeHits) / float64(activeN)
	fp := float64(idleHits) / float64(idleN)
	if math.Abs(det-0.8) > 0.03 {
		t.Errorf("detection rate = %.3f, want ~0.80", det)
	}
	if math.Abs(fp-0.05) > 0.01 {
		t.Errorf("false-positive rate = %.3f, want ~0.05", fp)
	}
}

func TestCovariatesShapeAndBounds(t *testing.T) {
	s := testStream()
	e, _ := NewExtractor(s, []int{1}, DefaultDetector(), 2)
	x, err := e.Covariates(99, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 10 || len(x[0]) != e.Dim() {
		t.Fatalf("shape %dx%d", len(x), len(x[0]))
	}
	if _, err := e.Covariates(5, 10); err == nil {
		t.Fatal("expected error for window before stream start")
	}
	if _, err := e.Covariates(s.N, 10); err == nil {
		t.Fatal("expected error for window past stream end")
	}
	if _, err := e.Covariates(99, 0); err == nil {
		t.Fatal("expected error for zero window")
	}
}

func TestCovariatesRowsMatchFrameVector(t *testing.T) {
	s := testStream()
	e, _ := NewExtractor(s, []int{0}, DefaultDetector(), 4)
	x, _ := e.Covariates(50, 5)
	for i := 0; i < 5; i++ {
		want := e.FrameVector(46+i, nil)
		for j := range want {
			if x[i][j] != want[j] {
				t.Fatalf("row %d differs from FrameVector(%d)", i, 46+i)
			}
		}
	}
}

func TestPrecursorPhaseObjectPresenceUsesFPRate(t *testing.T) {
	// The active channel is the detector's binary object/action reading.
	// During the precursor the event itself has not started, so it must
	// behave like idle (only false positives); while the event is active it
	// fires unless missed.
	s := testStream()
	cfg := DetectorConfig{MissRate: 0.2, FPRate: 0.1, Jitter: 0}
	const ci = 0
	e, _ := NewExtractor(s, []int{ci}, cfg, 11)
	for _, tc := range []struct {
		phase video.Phase
		want  float64
	}{
		{video.Precursor, cfg.FPRate},
		{video.Active, 1 - cfg.MissRate},
	} {
		var hits, n int
		for f := 0; f < s.N; f++ {
			if phase, _ := s.PhaseAt(0, f); phase == tc.phase {
				n++
				if e.FrameVector(f, nil)[ci*ChannelsPerEvent+2] == 1 {
					hits++
				}
			}
		}
		if rate := float64(hits) / float64(n); math.Abs(rate-tc.want) > 0.03 {
			t.Errorf("phase %v: active-channel rate = %.3f over %d frames, want ~%.2f", tc.phase, rate, n, tc.want)
		}
	}
}

func TestDriftingExtractorSwitches(t *testing.T) {
	s := testStream()
	clean := DetectorConfig{Jitter: 0.05}
	broken := DetectorConfig{Jitter: 0.05, CueGain: 0.1, MissRate: 0.9}
	sw := s.N / 2
	ex, err := NewDriftingExtractor(s, []int{0}, clean, broken, sw, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-switch frames must be byte-identical to a plain clean extractor.
	plain, _ := NewExtractor(s, []int{0}, clean, 3)
	for f := 0; f < 2000; f += 37 {
		a, b := ex.FrameVector(f, nil), plain.FrameVector(f, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pre-switch frame %d differs from clean extractor", f)
			}
		}
	}
	// Post-switch late-precursor cues must be attenuated.
	var cleanCue, driftCue float64
	var n1, n2 int
	for f := 0; f < s.N; f++ {
		ph, prog := s.PhaseAt(0, f)
		if ph != video.Precursor || prog < 0.7 {
			continue
		}
		if f < sw {
			cleanCue += ex.FrameVector(f, nil)[0]
			n1++
		} else {
			driftCue += ex.FrameVector(f, nil)[0]
			n2++
		}
	}
	if driftCue/float64(n2) > 0.5*cleanCue/float64(n1) {
		t.Fatalf("post-switch cue %.3f not attenuated vs %.3f",
			driftCue/float64(n2), cleanCue/float64(n1))
	}
}

func TestDriftingExtractorValidation(t *testing.T) {
	s := testStream()
	if _, err := NewDriftingExtractor(s, []int{0}, DefaultDetector(), DefaultDetector(), -1, 1); err == nil {
		t.Fatal("expected error for negative switch frame")
	}
	if _, err := NewDriftingExtractor(s, []int{99}, DefaultDetector(), DefaultDetector(), 0, 1); err == nil {
		t.Fatal("expected error for bad event index")
	}
}

func TestCueGainZeroValueIsFullSignal(t *testing.T) {
	s := testStream()
	a, _ := NewExtractor(s, []int{0}, DetectorConfig{Jitter: 0.05}, 4)
	b, _ := NewExtractor(s, []int{0}, DetectorConfig{Jitter: 0.05, CueGain: 1}, 4)
	for f := 0; f < 1000; f += 13 {
		va, vb := a.FrameVector(f, nil), b.FrameVector(f, nil)
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("CueGain zero value must equal CueGain=1 at frame %d", f)
			}
		}
	}
}
