package serve

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/strategy"
	"eventhit/internal/trace"
	"eventhit/internal/video"
)

// Bundlewrap is one small trained bundle shared across the tests.
type Bundlewrap struct {
	b  *strategy.Bundle
	ex *features.Extractor
	st *video.Stream
}

var (
	once sync.Once
	fx   *Bundlewrap
)

// tctx is the context every test client call runs under; per-request
// deadline behavior is what the cluster front exercises, not these tests.
var tctx = context.Background()

func getBundle(t testing.TB) *Bundlewrap {
	t.Helper()
	once.Do(func() {
		st := video.Generate(video.THUMOS(), mathx.NewRNG(1))
		ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), 1)
		if err != nil {
			panic(err)
		}
		splits, err := dataset.Build(ex, dataset.SampleConfig{
			Config: dataset.Config{Window: 10, Horizon: 200},
			NTrain: 300, NCCalib: 200, NRCalib: 150, NTest: 10,
			TrainPosFrac: 0.5,
		}, mathx.NewRNG(2))
		if err != nil {
			panic(err)
		}
		m, err := core.New(core.DefaultConfig(ex.Dim(), 10, 200, 1))
		if err != nil {
			panic(err)
		}
		tc := core.DefaultTrainConfig()
		tc.Epochs = 6
		if _, err := m.Train(splits.Train, tc); err != nil {
			panic(err)
		}
		b, err := strategy.Calibrate(m, splits.CCalib, splits.RCalib)
		if err != nil {
			panic(err)
		}
		fx = &Bundlewrap{b: b, ex: ex, st: st}
	})
	return fx
}

// bareServer is an in-process server over the shared bundle with no relay,
// fleet or adaptation configured.
func bareServer(t testing.TB) (*Server, *Bundlewrap) {
	t.Helper()
	bw := getBundle(t)
	srv, err := New(Config{
		Bundle:            bw.b,
		EventNames:        []string{"Volleyball Spiking"},
		PerFrameUSD:       0.001,
		DefaultConfidence: 0.9,
		DefaultCoverage:   0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, bw
}

// newTestServer serves sessionServer's session "c0" over HTTP.
func newTestServer(t *testing.T) (*httptest.Server, *Client, *Bundlewrap) {
	t.Helper()
	srv, bw := sessionServer(t, nil, 1), getBundle(t)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL, ts.Client()), bw
}

func TestNewValidation(t *testing.T) {
	bw := getBundle(t)
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error for nil bundle")
	}
	if _, err := New(Config{Bundle: bw.b, EventNames: []string{"a", "b"},
		DefaultConfidence: 0.9, DefaultCoverage: 0.9}); err == nil {
		t.Fatal("expected error for event-name count mismatch")
	}
	if _, err := New(Config{Bundle: bw.b, EventNames: []string{"a"},
		DefaultConfidence: 0, DefaultCoverage: 0.9}); err == nil {
		t.Fatal("expected error for zero confidence")
	}
	// Under a NaN confidence p >= 1-NaN is false and the server never relays.
	if _, err := New(Config{Bundle: bw.b, EventNames: []string{"a"},
		DefaultConfidence: math.NaN(), DefaultCoverage: 0.9}); err == nil {
		t.Fatal("expected error for NaN confidence")
	}
	if _, err := New(Config{Bundle: bw.b, EventNames: []string{"a"},
		DefaultConfidence: 0.9, DefaultCoverage: math.NaN()}); err == nil {
		t.Fatal("expected error for NaN coverage")
	}
}

func TestHealthz(t *testing.T) {
	_, c, _ := newTestServer(t)
	if !c.Healthy(tctx) {
		t.Fatal("health endpoint not answering")
	}
}

func TestPredictBeforeWindowFull(t *testing.T) {
	_, c, bw := newTestServer(t)
	if _, err := c.Predict(tctx, "c0", 0, 0); err == nil || !strings.Contains(err.Error(), "window not full") {
		t.Fatalf("expected window-not-full error, got %v", err)
	}
	// Partially fill.
	frames := make([][]float64, 4)
	for i := range frames {
		frames[i] = bw.ex.FrameVector(1000+i, nil)
	}
	if _, err := c.PushFrames(tctx, "c0", frames); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict(tctx, "c0", 0, 0); err == nil {
		t.Fatal("still expected window-not-full error")
	}
}

func TestPushAndPredictEndToEnd(t *testing.T) {
	_, c, bw := newTestServer(t)
	// Stream the 10-frame window ending right before an instance starts:
	// the decision should be to relay.
	in := bw.st.ByType[0][30]
	anchorFrame := in.OI.Start - 20
	var frames [][]float64
	for f := anchorFrame - 9; f <= anchorFrame; f++ {
		frames = append(frames, bw.ex.FrameVector(f, nil))
	}
	ack, err := c.PushFrames(tctx, "c0", frames)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Buffered != 10 || ack.Next != 10 {
		t.Fatalf("ack = %+v", ack)
	}
	resp, err := c.Predict(tctx, "c0", 0.95, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Anchor != 9 || resp.HorizonEnd != 209 {
		t.Fatalf("anchor/horizon = %d/%d", resp.Anchor, resp.HorizonEnd)
	}
	if len(resp.Decisions) != 1 || resp.Decisions[0].Event != "Volleyball Spiking" {
		t.Fatalf("decisions = %+v", resp.Decisions)
	}
	d := resp.Decisions[0]
	if !d.Relay {
		t.Fatalf("imminent event not relayed: %+v", d)
	}
	if d.Start < resp.Anchor+1 || d.End > resp.HorizonEnd || d.Start > d.End {
		t.Fatalf("relay range invalid: %+v", d)
	}
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Predictions != 1 || st.Relays != 1 || st.FramesToCloud != int64(d.End-d.Start+1) {
		t.Fatalf("stats = %+v", st)
	}
	if st.EstimatedUSD <= 0 || st.EstimatedUSD > st.BruteForceUSD {
		t.Fatalf("spend accounting wrong: %+v", st)
	}
}

func TestSkipDecisionOnQuietWindow(t *testing.T) {
	_, c, bw := newTestServer(t)
	// A frame far from any activity.
	quiet := -1
	for f := 2000; f < bw.st.N-300; f += 991 {
		if ph, _ := bw.st.PhaseAt(0, f); ph == video.Idle {
			if _, upcoming := bw.st.FirstOverlapping(0, video.Interval{Start: f + 1, End: f + 200}); !upcoming {
				quiet = f
				break
			}
		}
	}
	if quiet < 0 {
		t.Fatal("no quiet frame found")
	}
	var frames [][]float64
	for f := quiet - 9; f <= quiet; f++ {
		frames = append(frames, bw.ex.FrameVector(f, nil))
	}
	if _, err := c.PushFrames(tctx, "c0", frames); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Predict(tctx, "c0", 0.8, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Decisions[0].Relay {
		t.Logf("note: quiet horizon relayed (conformal false positive) — acceptable but rare")
	}
	st, _ := c.Stats(tctx)
	if st.Predictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFrameValidation(t *testing.T) {
	_, c, _ := newTestServer(t)
	if _, err := c.PushFrames(tctx, "c0", nil); err == nil {
		t.Fatal("expected error for no frames")
	}
	if _, err := c.PushFrames(tctx, "c0", [][]float64{{1, 2}}); err == nil {
		t.Fatal("expected error for wrong dimensionality")
	}
}

func TestPredictKnobValidation(t *testing.T) {
	ts, _, bw := newTestServer(t)
	// Fill the window first.
	cl := NewClient(ts.URL, ts.Client())
	var frames [][]float64
	for f := 100; f < 110; f++ {
		frames = append(frames, bw.ex.FrameVector(f, nil))
	}
	cl.PushFrames(tctx, "c0", frames)
	if _, err := cl.Predict(tctx, "c0", 1.5, 0.9); err == nil {
		t.Fatal("expected error for confidence > 1")
	}
	if _, err := cl.Predict(tctx, "c0", 0.9, 2); err == nil {
		t.Fatal("expected error for coverage > 1")
	}
}

func TestSlidingWindowKeepsLatest(t *testing.T) {
	_, c, bw := newTestServer(t)
	// Push 25 frames one at a time; buffer must cap at the window size.
	var last FramesResponse
	for f := 500; f < 525; f++ {
		var err error
		last, err = c.PushFrames(tctx, "c0", [][]float64{bw.ex.FrameVector(f, nil)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Buffered != 10 || last.Next != 25 {
		t.Fatalf("ack = %+v", last)
	}
}

func TestServerWritesTrace(t *testing.T) {
	bw := getBundle(t)
	var traceBuf bytes.Buffer
	srv := sessionServer(t, &Config{
		Bundle:            bw.b,
		EventNames:        []string{"Volleyball Spiking"},
		PerFrameUSD:       0.001,
		DefaultConfidence: 0.9,
		DefaultCoverage:   0.9,
		Trace:             trace.NewWriter(&traceBuf),
	}, 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	in := bw.st.ByType[0][5]
	var frames [][]float64
	for f := in.OI.Start - 29; f <= in.OI.Start-20; f++ {
		frames = append(frames, bw.ex.FrameVector(f, nil))
	}
	if _, err := c.PushFrames(tctx, "c0", frames); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict(tctx, "c0", 0, 0); err != nil {
		t.Fatal(err)
	}
	entries, err := trace.ReadAll(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("trace entries = %d", len(entries))
	}
	e := entries[0]
	if e.Event != "Volleyball Spiking" || e.Confidence != 0.9 || e.Horizon != 200 {
		t.Fatalf("entry = %+v", e)
	}
	// The traced decision replays against the true stream.
	audit, err := trace.Score(entries, bw.st, bw.ex.Events())
	if err != nil {
		t.Fatal(err)
	}
	if audit.Decisions != 1 {
		t.Fatalf("audit = %+v", audit)
	}
}

func TestConcurrentPredicts(t *testing.T) {
	_, cl, bw := newTestServer(t)
	var frames [][]float64
	for f := 300; f < 310; f++ {
		frames = append(frames, bw.ex.FrameVector(f, nil))
	}
	if _, err := cl.PushFrames(tctx, "c0", frames); err != nil {
		t.Fatal(err)
	}
	// Hammer predict from many goroutines: inference only reads the model
	// and writes pooled per-request scratch, so this must be race-free (run
	// with -race) and return consistent decisions.
	var wg sync.WaitGroup
	results := make([]PredictResponse, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := cl.Predict(tctx, "c0", 0.9, 0.9)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i].Anchor != results[0].Anchor ||
			results[i].Decisions[0].Relay != results[0].Decisions[0].Relay ||
			results[i].Decisions[0].Start != results[0].Decisions[0].Start {
			t.Fatalf("concurrent predictions disagree: %+v vs %+v", results[i], results[0])
		}
	}
}

func TestClientErrorDecoding(t *testing.T) {
	_, c, _ := newTestServer(t)
	// Server returns a structured error for bad requests; the client must
	// surface the message.
	_, err := c.PushFrames(tctx, "c0", [][]float64{{1}})
	if err == nil || !strings.Contains(err.Error(), "channels") {
		t.Fatalf("error not surfaced: %v", err)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", nil) // nothing listens on port 1
	if c.Healthy(tctx) {
		t.Fatal("dead server reported healthy")
	}
	if _, err := c.Stats(tctx); err == nil {
		t.Fatal("expected connection error")
	}
	if _, err := c.PushFrames(tctx, "c0", [][]float64{{1}}); err == nil {
		t.Fatal("expected connection error")
	}
	if _, err := c.Predict(tctx, "c0", 0, 0); err == nil {
		t.Fatal("expected connection error")
	}
}
