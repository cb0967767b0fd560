package obs

import (
	"bytes"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 3; i++ {
		c.Inc()
	}
	if v := c.Value(); v != 3 {
		t.Fatalf("Value = %v, want 3", v)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 1.0001, 5, 7, 10, 11, math.Inf(1), math.NaN()} {
		h.Observe(v)
	}
	// le semantics: 0.5,1 -> bucket le=1; 1.0001,5 -> le=5; 7,10 -> le=10;
	// 11,+Inf -> +Inf; NaN dropped.
	want := []uint64{2, 2, 2, 2}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got, want, h.counts)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("Count = %d, want 8 (NaN dropped)", h.Count())
	}
	if !math.IsInf(h.Sum(), 1) {
		t.Fatalf("Sum = %v, want +Inf", h.Sum())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", Labels{"k": "v"})
	b := r.Counter("x_total", "help", Labels{"k": "v"})
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	c := r.Counter("x_total", "help", Labels{"k": "w"})
	if a == c {
		t.Fatal("different labels must return a different series")
	}
	a.Inc()
	c.Inc()
	c.Inc()
	if a.Value() != 1 || c.Value() != 2 {
		t.Fatalf("series not independent: %v %v", a.Value(), c.Value())
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind clash")
		}
	}()
	r := NewRegistry()
	r.Counter("m", "", nil)
	r.GaugeFunc("m", "", nil, func() float64 { return 0 })
}

func TestInvalidMetricNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid name")
		}
	}()
	NewRegistry().Counter("bad-name", "", nil)
}

func TestInvalidLabelNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid label name")
		}
	}()
	NewRegistry().Counter("ok", "", Labels{"bad-label": "v"})
}

// TestWriteTextGolden pins the exposition format byte-for-byte: family
// ordering, HELP/TYPE lines, label rendering and escaping, histogram
// cumulative buckets, func-backed series.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("eventhit_requests_total", "requests served", Labels{"endpoint": "/v1/predict", "code": "200"})
	for i := 0; i < 42; i++ {
		c.Inc()
	}
	for i := 0; i < 7; i++ {
		r.Counter("eventhit_requests_total", "requests served", Labels{"endpoint": "/v1/frames", "code": "200"}).Inc()
	}
	r.GaugeFunc("eventhit_breaker_state", "0 closed, 1 open, 2 half-open", nil, func() float64 { return 1 })
	h := r.Histogram("eventhit_stage_ms", "per-stage simulated ms", []float64{10, 100, 1000}, Labels{"stage": "scan"})
	for _, v := range []float64{5, 50, 50, 500, 5000} {
		h.Observe(v)
	}
	r.GaugeFunc("eventhit_spend_usd", "CI bill", nil, func() float64 { return 1.75 })
	r.Counter("eventhit_escaped_total", "label escaping", Labels{"path": `a"b\c`}).Inc()

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition_golden.txt")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.String(), want)
	}
}

// TestWriteTextDeterministic: two scrapes of an unchanged registry are
// byte-identical (map iteration must not leak into the output).
func TestWriteTextDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, stage := range []string{"scan", "predict", "relay"} {
		r.Histogram("stage_ms", "", []float64{1, 10, 100}, Labels{"stage": stage}).Observe(12)
		r.Counter("runs_total", "", Labels{"stage": stage}).Inc()
	}
	var a, b bytes.Buffer
	if err := r.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two scrapes of an unchanged registry differ")
	}
}

// TestConcurrentUpdatesAndScrapes hammers every primitive from many
// goroutines while scraping, which also reads a func-backed gauge — run
// with -race; totals must be exact.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", nil)
	h := r.Histogram("h_ms", "", []float64{1, 10, 100}, nil)
	r.GaugeFunc("g", "", nil, func() float64 { return float64(h.Count()) })
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WriteText(&buf); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %v, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

// TestHandlerServesText exercises the HTTP exposition path.
func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "", nil).Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, nil)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "up_total 1") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}
