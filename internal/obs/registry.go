package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels attach dimensions to a metric series ({stage="scan"},
// {endpoint="/v1/predict",code="200"}). The map is copied at registration;
// a nil map means an unlabelled series.
type Labels map[string]string

type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	}
	return "histogram"
}

// series is one (name, labels) time series: exactly one of the value
// fields is set. fn-backed series are read at scrape time (the closure
// snapshots state owned elsewhere, e.g. the resilient client's counters).
type series struct {
	labels string // rendered {k="v",...} suffix, "" when unlabelled
	c      *Counter
	h      *Histogram
	fn     func() float64
}

// family groups every series sharing a metric name: one HELP/TYPE pair in
// the exposition, homogeneous kind.
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64
	series  map[string]*series
}

// Registry is a named collection of metrics with deterministic text
// exposition. All methods are safe for concurrent use; metric lookups are
// get-or-create, so re-registering the same (name, labels) returns the
// existing primitive — repeated pipeline runs accumulate into one series
// instead of colliding.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	scrape   []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s is a legal Prometheus metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally may not contain ':', but
// the stricter common subset is enforced for both).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels produces the canonical, sorted {k="v",...} suffix. Label
// values are escaped per the text format (backslash, quote, newline).
func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		if !validName(k) {
			panic(fmt.Sprintf("obs: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ls[k]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		fmt.Fprintf(&b, `%s="%s"`, k, v)
	}
	b.WriteByte('}')
	return b.String()
}

// getFamily returns the family for name, creating it on first use and
// panicking on a kind clash — two call sites disagreeing about what a
// metric is would corrupt the exposition, which is a programmer error.
func (r *Registry) getFamily(name, help string, k kind, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, k, f.kind))
	}
	return f
}

// Counter returns the counter for (name, labels), creating it on first
// use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, counterKind, nil)
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok || s.c == nil {
		s = &series{labels: key, c: &Counter{}}
		f.series[key] = s
	}
	return s.c
}

// Histogram returns the histogram for (name, labels), creating it on
// first use with the given bucket upper bounds (strictly increasing; an
// implicit +Inf bucket is appended). Buckets are fixed at creation; later
// calls reuse the existing buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing at %d", name, i))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, histogramKind, buckets)
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok || s.h == nil {
		s = &series{labels: key, h: newHistogram(f.buckets)}
		f.series[key] = s
	}
	return s.h
}

// CounterFunc registers a counter series whose value is read from f at
// scrape time — the natural fit for components that already keep
// cumulative counters behind their own lock (resilience.Client.Stats,
// cloud.Service.Usage). Re-registering the same (name, labels) replaces
// the closure (the newest owner wins).
func (r *Registry) CounterFunc(name, help string, labels Labels, f func() float64) {
	r.registerFunc(name, help, counterKind, labels, f)
}

// GaugeFunc registers a gauge series read from f at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, f func() float64) {
	r.registerFunc(name, help, gaugeKind, labels, f)
}

// OnScrape registers f to run at the start of every WriteText, under the
// registry's lock and before any series is read. Func-backed series that
// read what f captured report one instant per scrape, at the cost of one
// capture, however many families share it.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scrape = append(r.scrape, f)
}

func (r *Registry) registerFunc(name, help string, k kind, labels Labels, f func() float64) {
	if f == nil {
		panic("obs: nil metric func")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.getFamily(name, help, k, nil)
	key := renderLabels(labels)
	fam.series[key] = &series{labels: key, fn: f}
}

// formatFloat renders a sample value the way the Prometheus text format
// expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText writes the registry in the Prometheus text exposition format
// (version 0.0.4). Output is deterministic: families sorted by name,
// series sorted by rendered labels — so a registry with fixed contents
// exposes byte-identical text, which the golden test pins.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	for _, f := range r.scrape {
		f()
	}
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		f := r.families[n]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch {
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
			case s.c != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.c.Value()))
			case s.h != nil:
				writeHistogram(&b, f.name, s)
			}
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket lines,
// then _sum and _count. The bucket label merges into any series labels.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.h
	withLe := func(le string) string {
		if s.labels == "" {
			return `{le="` + le + `"}`
		}
		return s.labels[:len(s.labels)-1] + `,le="` + le + `"}`
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLe(formatFloat(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLe("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, h.Count())
}

// Handler returns an http.Handler serving the text exposition — mount it
// at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
