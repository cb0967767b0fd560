package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/fleet"
	"eventhit/internal/metrics"
	"eventhit/internal/resilience"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// span is one timed call at a layer boundary. Spans of one operation share
// Op; Parent is the span that caused this one (0 for the operation's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name string, parent, op int64, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), ID: id, Parent: parent, Op: op})
	return id
}

// timed runs f as a span under parent.
func (t *tracer) timed(name string, parent, op int64, f func()) int64 {
	start := time.Now()
	f()
	return t.add(name, parent, op, start, time.Now())
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(t.spans)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the median over operations of the layer's
// self time in one operation, in ns, and the number of operations. A
// span's self time is its duration minus its direct children's durations,
// so within one operation the layers' self times add up to the root span.
func selfTimes(spans []span) (perLayer map[string]float64, ops int) {
	dur := func(s span) float64 { return float64(s.End - s.Start) }
	children := make(map[int64]float64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += dur(s)
		}
	}
	perOp := map[string]map[int64]float64{} // layer -> op -> self time
	for _, s := range spans {
		if s.Parent == 0 {
			ops++
		}
		l := layerOf(s.Name)
		if perOp[l] == nil {
			perOp[l] = map[int64]float64{}
		}
		perOp[l][s.Op] += dur(s) - children[s.ID]
	}
	perLayer = map[string]float64{}
	for l, byOp := range perOp {
		v := make([]float64, 0, ops)
		for _, self := range byOp {
			v = append(v, self)
		}
		// An operation that never entered the layer spent zero there.
		for len(v) < ops {
			v = append(v, 0)
		}
		perLayer[l] = medianFloat(v)
	}
	return perLayer, ops
}

// discard is the response writer of in-process handler calls.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(int)             {}

// serveInProcess parses raw request bytes and hands them to h, timing only
// the handler call.
func serveInProcess(h http.Handler, raw []byte) (start, end time.Time, err error) {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return start, end, err
	}
	w := &discard{h: http.Header{}}
	start = time.Now()
	h.ServeHTTP(w, req)
	return start, time.Now(), nil
}

// shadow is the second copy of the system the traced run keeps in the same
// state as the live one: every operation a gateway sends over loopback it
// then replays, one layer lower each time, against the shadow and against
// per-gateway model replicas. The live numbers are not touched by probes
// that change state, and each probe sees the input the live call saw.
type shadow struct {
	tr   *tracer
	load *httpLoad
	tgt  *target
	// Relay-phase probe objects, as the relay configuration builds them.
	events  []int
	arbiter *fleet.Arbiter
	relay   *resilience.Client
	ci      *cloud.Service
	// perGW are the replicas gateway g probes with.
	perGW []*gwProbe
}

type gwProbe struct {
	bundle *strategy.Bundle
	ehcr   strategy.Strategy
	out    core.Output
	direct map[string]*conn // to the shadow's workers, by address
}

// newShadow boots a second target for l and brings its sessions to the
// state the live ones are in after set-up.
func newShadow(l *httpLoad, tr *tracer) (*shadow, error) {
	b := l.base
	tgt, err := startTarget(b, l.spec.name, b.env.Bundle.Clone())
	if err != nil {
		return nil, err
	}
	sh := &shadow{tr: tr, load: l, tgt: tgt, events: b.task.EventIdx}
	c, err := dial(tgt.addr)
	if err != nil {
		tgt.stop()
		return nil, err
	}
	defer c.close()
	for _, g := range l.gws {
		gb := b.env.Bundle.Clone()
		sh.perGW = append(sh.perGW, &gwProbe{bundle: gb, ehcr: gb.EHCR(confidence, coverage), direct: map[string]*conn{}})
		for _, s := range g.sessions {
			if err := createSession(c.post, &session{id: s.id, origin: s.origin, prep: s.prep}, b.cam); err != nil {
				sh.close()
				return nil, err
			}
		}
	}
	if l.spec.relay {
		cfg := relayConfig(b.env.Bundle, b.task, b.cam)
		sh.ci = cfg.CI.(*cloud.Service)
		cache, err := cicache.New(*cfg.Cache)
		if err != nil {
			sh.close()
			return nil, err
		}
		sh.relay = resilience.NewClient(cloud.NewCachedBackend(sh.ci, cache, cfg.PerFrameUSD), resilience.DefaultConfig(0), nil)
		if sh.arbiter, err = fleet.NewArbiter(*cfg.Fleet); err != nil {
			sh.close()
			return nil, err
		}
	}
	return sh, nil
}

func (sh *shadow) close() {
	for _, p := range sh.perGW {
		for _, c := range p.direct {
			c.close()
		}
	}
	sh.tgt.stop()
}

// replay is the gateway hook: it records the live operation's spans and
// runs the nested probes. Operations outside the recorded region are still
// applied to the shadow so its state keeps up, but leave no spans.
func (sh *shadow) replay(g *gateway, s *session, op int, begin, end time.Time, record bool) {
	l, tr := sh.load, sh.tr
	if !record {
		tr = &tracer{t0: sh.tr.t0} // a scratch tracer: same work, spans dropped
	}
	opID := int64(g.id)<<32 | g.opSeq
	g.opSeq++
	root := tr.add("loadgen.op", 0, opID, begin, end)
	slot := (op % s.nOps) * l.spec.pushesPerOp
	top := "http.roundtrip"
	if l.tgt.front != nil {
		// Through the front the live round trip is the cluster tier's; the
		// plain loopback round trip is probed below it, direct to the worker.
		top = "cluster.front_roundtrip"
	}
	owner := sh.tgt.owner(s.id)
	for i, rt := range g.rts {
		rtSpan := tr.add(top, root, opID, rt.start, rt.end)
		if i < l.spec.pushesPerOp {
			// A push changes state, so the shadow takes it exactly once.
			if hs, he, err := serveInProcess(owner, s.pushes[slot+i]); err == nil {
				tr.add("serve.frames_handler", rtSpan, opID, hs, he)
			}
			continue
		}
		parent := rtSpan
		if l.tgt.front != nil {
			parent = sh.directPredict(g, s, rtSpan, opID, tr)
		}
		hs, he, err := serveInProcess(owner, s.predict)
		if err != nil {
			continue
		}
		handler := tr.add("serve.predict_handler", parent, opID, hs, he)
		sh.belowHandler(g, s, op, handler, opID, tr)
	}
}

// directPredict sends the predict straight to the shadow worker that owns
// the session, over loopback, skipping the front.
func (sh *shadow) directPredict(g *gateway, s *session, parent, opID int64, tr *tracer) int64 {
	p := sh.perGW[g.id]
	addr := sh.tgt.ownerAddr(s.id)
	c := p.direct[addr]
	if c == nil {
		var err error
		if c, err = dial(addr); err != nil {
			return parent
		}
		p.direct[addr] = c
	}
	start := time.Now()
	if _, _, err := c.do(s.predict); err != nil {
		return parent
	}
	return tr.add("http.roundtrip", parent, opID, start, time.Now())
}

// belowHandler probes the layers a predict handler calls, on the window
// the handler just saw.
func (sh *shadow) belowHandler(g *gateway, s *session, op int, handler, opID int64, tr *tracer) {
	l, p := sh.load, sh.perGW[g.id]
	t := s.anchorFrame(op%s.nOps, l.spec.framesPerOp())
	rec := dataset.Record{X: l.base.cam.window(t), Label: make([]bool, l.geo.k)}
	var pred metrics.Prediction
	strat := tr.timed("strategy.predict", handler, opID, func() {
		if l.spec.relay {
			pred, _ = p.bundle.PredictScored(rec, confidence, coverage) // what serve runs with Adapt on
		} else {
			pred = p.ehcr.Predict(rec)
		}
	})
	tr.timed("core.forward", strat, opID, func() { p.bundle.Model.PredictInto(rec.X, &p.out) })
	if !l.spec.relay {
		return
	}
	anchor := s.prep + (op+1)*l.spec.framesPerOp() - 1
	for k, occ := range pred.Occur {
		if !occ {
			continue
		}
		abs := video.Interval{Start: anchor + pred.OI[k].Start, End: anchor + pred.OI[k].End}
		var key cicache.Key
		tr.timed("cicache.sign", handler, opID, func() {
			key = cicache.SignWindow(rec.X, sh.events, sh.events[k], pred.OI[k], 0)
		})
		tr.timed("fleet.admit", handler, opID, func() { sh.arbiter.Admit(s.id, abs.Len()) })
		det := tr.timed("resilience.detect", handler, opID, func() { sh.relay.DetectKeyed(key, sh.events[k], abs) })
		tr.timed("cloud.detect", det, opID, func() { sh.ci.Detect(sh.events[k], abs) })
	}
}

// tracedRun is the -trace 1 run of one workload: a traced replay and an
// untraced region of the workload itself, then the layer probes.
func tracedRun(name string, o options) (*result, error) {
	// Set-up time is an end-to-end metric; the traced run sets up once.
	load, b, err := setUp(name, o.seed, o.seconds)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer load.close()
	tr := &tracer{t0: time.Now()}
	res, err := tracedReplay(load, tr, o.seconds*tracedShare)
	if err != nil {
		return nil, err
	}
	if o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res.info = append(res.info, fmt.Sprintf("spans_written %d %s", len(tr.spans), o.spans))
	}
	probed := metricSet{}
	if err := runProbes(b, o.seed, o.seconds*(1-2*tracedShare), probed); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range probed {
		if _, own := res.metrics[k]; !own { // the workload's own reading wins
			res.metrics[k] = v
		}
	}
	return res, nil
}

// tracedReplay runs the workload for part seconds with the nested probes
// recording into tr, then for part seconds without, and reports the second
// region's metrics plus the ratio between the two.
func tracedReplay(load workload, tr *tracer, part float64) (*result, error) {
	var traced, plain *result
	switch l := load.(type) {
	case *httpLoad:
		l.scoreOps = 0 // rec and cost_ratio belong to the end-to-end run
		sh, err := newShadow(l, tr)
		if err != nil {
			return nil, fmt.Errorf("shadow: %w", err)
		}
		for _, g := range l.gws {
			g.traced = sh.replay
		}
		traced = l.measure(part)
		for _, g := range l.gws {
			g.traced = nil
		}
		sh.close()
		plain = l.measure(part)
		l.verify(plain)
	case *offlineLoad:
		// A round's phases end before the round does, so they wait here
		// until their parent span exists.
		type phase struct {
			name       string
			start, end time.Time
		}
		var pending []phase
		l.span = func(name string, op int, start, end time.Time) {
			if name != "loadgen.op" {
				pending = append(pending, phase{name, start, end})
				return
			}
			root := tr.add(name, 0, int64(op), start, end)
			for _, p := range pending {
				tr.add(p.name, root, int64(op), p.start, p.end)
			}
			pending = pending[:0]
		}
		traced = l.run(part)
		l.span, l.first = nil, nil
		plain = l.run(part)
	}
	res := &result{metrics: plain.metrics}
	res.attempted, res.failed = traced.attempted+plain.attempted, traced.failed+plain.failed
	res.problems = append(traced.problems, plain.problems...)
	res.invalid = plain.invalid
	if p := plain.metrics["op_p50_ms"].Value; p > 0 {
		res.metrics.set(perLayerSpecs, "trace.overhead_ratio", traced.metrics["op_p50_ms"].Value/p, traced.metrics["op_p50_ms"].N)
	}
	res.info = append(plain.info, spanSummary(tr.spans)...)
	return res, nil
}

// tracedShare is the part of -seconds each of the traced replay and the
// untraced comparison region get in a traced run; the probes get the rest.
const tracedShare = 0.2

// spanSummary renders the per-layer self times of the traced replay and
// holds their sum against the median root span. (On the open-loop
// workload op_p50_ms is measured from the tick, so it also contains the
// wait behind the tick's earlier cameras; the root span does not.)
func spanSummary(spans []span) []string {
	perLayer, ops := selfTimes(spans)
	if ops == 0 {
		return nil
	}
	var roots []float64
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, float64(s.End-s.Start))
		}
	}
	root := medianFloat(roots)
	var layers []string
	var sum float64
	for l, v := range perLayer {
		layers = append(layers, l)
		sum += v
	}
	sort.Strings(layers)
	var lines []string
	for _, l := range layers {
		lines = append(lines, fmt.Sprintf("span.%s_self_us %.2f us n=%d", l, perLayer[l]/1e3, ops))
	}
	lines = append(lines, fmt.Sprintf("span.self_sum_us %.2f us n=%d (median root span %.2f us: ratio %.3f)", sum/1e3, ops, root/1e3, sum/root))
	return lines
}
