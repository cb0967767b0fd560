// Package scenario turns workload shapes into declarative, regression-
// gated artifacts. The paper's marshalling claims (the Fig. 9 cost split,
// Table 1 REC/SPL) hold across regimes — mostly-idle surveillance, burst
// arrivals, degraded CI, budget cliffs — but until now each regime was an
// ad-hoc flag combination on three binaries. A scenario spec (a JSON
// document that encoding/json decodes) declares streams, scene mixes,
// arrival surges, drift schedules and budgets, plus a staged runner
// program: named stages executed serially, each stage either one task or a
// parallel group (bashful-style task/task_group), where every task compiles
// onto the existing harness/fleet/pipeline machinery and may carry its own
// cache or fault plan — a sweep is a parallel group of tasks that differ in
// one block. Task results are slotted by index and the fleet's two-phase
// determinism is preserved, so a scenario report is byte-identical at any
// GOMAXPROCS — which is what lets the committed corpus under corpus/ pin
// golden reports in testdata/ and gate every future PR on all regimes at
// once.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"

	"eventhit/internal/harness"
)

// Spec is one declared scenario. The json tags are the spec's keys; a
// field whose zero value would not parse back (or would mean something
// else) is omitempty, so json.Marshal of a parsed spec parses to it again.
type Spec struct {
	// Name identifies the scenario; it doubles as the corpus filename stem,
	// so it is restricted to [a-z0-9-].
	Name string `json:"name"`
	// Description is free text shown by `eventhitscenario -list`.
	Description string `json:"description,omitempty"`
	// Task is the Table II task label the deployed model is trained on.
	Task string `json:"task"`
	// Seed keys everything: training, stream generation, detector noise,
	// fault plans. Defaults to 1.
	Seed int64 `json:"seed"`
	// Quick selects the reduced training sizes (harness.Quick).
	Quick bool `json:"quick,omitempty"`
	// Frames bounds the marshalled region per camera (0 = whole stream).
	Frames int `json:"frames,omitempty"`
	// Confidence and Coverage parametrize the deployed EHCR strategy.
	// Both default to 0.9.
	Confidence float64 `json:"confidence"`
	Coverage   float64 `json:"coverage"`
	// Streams declares the camera groups of the workload.
	Streams []StreamGroup `json:"streams"`
	// Fleet is the shared-backend scheduler policy (zero value = defaults).
	Fleet FleetSpec `json:"fleet"`
	// Stages is the runner program, executed in order.
	Stages []Stage `json:"stages"`
}

// StreamGroup declares count cameras sharing one workload shape.
type StreamGroup struct {
	// ID prefixes the camera IDs: camera i of the group is "<id>-<ii>".
	ID string `json:"id"`
	// Count is the number of cameras in the group.
	Count int `json:"count"`
	// Scenes is the number of distinct scenes the group's cameras watch;
	// cameras assigned the same scene share the generation seed and hence
	// identical covariate timelines (the repetition a content-addressed
	// cache dedups). 0 gives every camera its own scene.
	Scenes int `json:"scenes,omitempty"`
	// Arrivals selects the inter-event gap process: "poisson" (default),
	// "geometric" or "regular".
	Arrivals string `json:"arrivals,omitempty"`
	// Surge, when present, multiplies the event arrival rate from a frame
	// on (burst traffic, flash crowds).
	Surge *SurgeSpec `json:"surge,omitempty"`
	// Drift, when present, degrades the camera's detector from a frame on
	// (covariate drift).
	Drift *DriftSpec `json:"drift,omitempty"`
}

// SurgeSpec is an arrival-rate shift: from AtFrame on, events arrive Rate
// times as often.
type SurgeSpec struct {
	AtFrame int     `json:"at"`
	Rate    float64 `json:"rate"`
}

// DriftSpec is a detector degradation: from AtFrame on the camera's
// detector runs with the given noise profile (fields mirror
// features.DetectorConfig). A written cue_gain must lie in (0,1]; leaving
// it out keeps full signal (CueGain 0, which features.DetectorConfig reads
// as 1).
type DriftSpec struct {
	AtFrame  int     `json:"at"`
	MissRate float64 `json:"miss_rate,omitempty"`
	FPRate   float64 `json:"fp_rate,omitempty"`
	Jitter   float64 `json:"jitter,omitempty"`
	CueGain  float64 `json:"cue_gain,omitempty"`
}

// FleetSpec sets the fleet scheduler's meters. QueueMax is a pointer to
// tell "absent" (fleet.DefaultConfig's bound) from an explicit
// queue_max: 0 (an unbounded queue).
type FleetSpec struct {
	// BudgetUSD caps the fleet's total CI spend (0 = uncapped).
	BudgetUSD float64 `json:"budget_usd,omitempty"`
	// StreamRatePerSec / StreamBurst configure the per-stream token bucket
	// (rate 0 = unmetered; burst 0 = one second of rate).
	StreamRatePerSec float64 `json:"stream_rate,omitempty"`
	StreamBurst      float64 `json:"stream_burst,omitempty"`
	QueueMax         *int    `json:"queue_max,omitempty"`
}

// CacheSpec configures the shared CI result cache.
type CacheSpec struct {
	Epsilon   float64 `json:"epsilon,omitempty"`
	TTLFrames int     `json:"ttl_frames"`
}

// FaultSpec mirrors cloud.FaultPlan. Seed 0 inherits the spec seed.
type FaultSpec struct {
	Seed          int64        `json:"seed,omitempty"`
	TransientRate float64      `json:"transient_rate,omitempty"`
	SpikeRate     float64      `json:"spike_rate,omitempty"`
	SpikeMS       float64      `json:"spike_ms,omitempty"`
	FailLatencyMS float64      `json:"fail_latency_ms,omitempty"`
	Outages       []OutageSpec `json:"outages,omitempty"`
}

// OutageSpec is a half-open request-index window [Start, End).
type OutageSpec struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// Stage is one named runner step: exactly one of Run (a single task) or
// Parallel (a task group whose members run concurrently, results slotted by
// index) is set.
type Stage struct {
	Name     string     `json:"name"`
	Run      *TaskSpec  `json:"run,omitempty"`
	Parallel []TaskSpec `json:"parallel,omitempty"`
}

// Tasks returns the stage's tasks regardless of grouping form.
func (s Stage) Tasks() []TaskSpec {
	if s.Run != nil {
		return []TaskSpec{*s.Run}
	}
	return s.Parallel
}

// TaskSpec is one compiled unit of work.
type TaskSpec struct {
	// Name labels the task in the report (unique within its stage).
	Name string `json:"name"`
	// Kind selects the machinery: "fleet" marshals every declared camera
	// through the shared-backend scheduler; "pipeline" marshals one camera
	// through the end-to-end pipeline loop (optionally against the fault
	// plan); "drift" walks one camera under the adaptation loop serve ships
	// (drift.Loop), relaying to a CI whose verdicts label its outcomes.
	Kind string `json:"kind"`
	// Cache (fleet), when present, attaches a shared CI result cache with
	// this configuration to the scheduler.
	Cache *CacheSpec `json:"cache,omitempty"`
	// BudgetUSD overrides the fleet budget for a fleet task; on a drift task
	// it is a hard cloud.Budget charged before every relay and audit, whose
	// exhaustion ends the walk. 0 is uncapped on both.
	BudgetUSD *float64 `json:"budget_usd,omitempty"`
	// Stream (pipeline/drift) is the camera ID to marshal; defaults to the
	// first declared camera.
	Stream string `json:"stream,omitempty"`
	// Faults (pipeline), when present, injects this fault plan in front of
	// the CI, behind the resilient client with graceful degradation.
	Faults *FaultSpec `json:"faults,omitempty"`
	// AuditRate (drift) is the loop's drift.Config.AuditRate, in [0,1];
	// nil is drift.DefaultConfig's.
	AuditRate *float64 `json:"audit_rate,omitempty"`
}

// Task kinds.
const (
	KindFleet    = "fleet"
	KindPipeline = "pipeline"
	KindDrift    = "drift"
)

// Defaults applied during decoding.
const (
	defaultConfidence = 0.9
	defaultCoverage   = 0.9
)

// maxCameras bounds the cameras a spec declares across all its groups.
// Running a spec materializes every camera and builds a stream for each:
// 1 000 cameras at the corpus's 40 000 frames already hold ≈190 MB of heap
// and run ≈2 s on two cores, while the corpus declares at most 6 per group.
// Past the bound a count is an error at its line, where a 174-byte spec
// could otherwise ask for 10^12 cameras (and overflow the sum of counts).
const maxCameras = 1024

// maxSpecBytes bounds parser input at ~100x any real spec, so an
// adversarial (fuzzed) input stays cheap: nothing else bounds how many
// stages or tasks a spec lists.
const maxSpecBytes = 256 << 10

func errAt(line int, format string, args ...interface{}) error {
	return fmt.Errorf("scenario: line %d: %s", line, fmt.Sprintf(format, args...))
}

// Parse decodes and validates a scenario spec. Every error is positional:
// "scenario: line N: <field>: <problem>".
func Parse(data []byte) (*Spec, error) {
	if len(data) > maxSpecBytes {
		return nil, fmt.Errorf("scenario: spec exceeds %d bytes", maxSpecBytes)
	}
	w, err := scan(data)
	if err != nil {
		return nil, err
	}
	spec := &Spec{Seed: 1, Confidence: defaultConfidence, Coverage: defaultCoverage}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("scenario: %w", err) // scan refuses first what Unmarshal would
	}
	if err := w.validate(spec); err != nil {
		return nil, err
	}
	return spec, nil
}

// written maps the path of every value a spec writes ("streams[0].count")
// to its line: a field's is its key's, a list item's its first token's and
// the document's ("") its opening brace's. It is what json.Unmarshal
// forgets: where a value stood, and whether it was there at all.
type written map[string]int

// scanner is the token pass ahead of json.Unmarshal. It walks the document
// against the types Unmarshal fills and refuses what Unmarshal would let
// through or report without a line: unknown (or differently cased) keys,
// duplicate keys, null, values of the wrong type, trailing data.
type scanner struct {
	dec  *json.Decoder
	data []byte
	off  int64 // data[:off] holds ln-1 newlines
	ln   int
	w    written
}

func scan(data []byte) (written, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, errors.New("scenario: empty spec")
	}
	s := &scanner{dec: json.NewDecoder(bytes.NewReader(data)), data: data, ln: 1, w: written{}}
	s.dec.UseNumber()
	if err := s.value(reflect.TypeOf(Spec{}), ""); err != nil {
		return nil, err
	}
	if _, err := s.dec.Token(); err != io.EOF {
		return nil, errAt(s.lineAt(s.dec.InputOffset()), "unexpected data after the spec")
	}
	return s.w, nil
}

// lineAt is the line of byte offset off; offsets mostly grow, so each call
// counts only the newlines since the last.
func (s *scanner) lineAt(off int64) int {
	off = min(off, int64(len(s.data)))
	if off < s.off {
		s.off, s.ln = 0, 1
	}
	s.ln += bytes.Count(s.data[s.off:off], []byte{'\n'})
	s.off = off
	return s.ln
}

// token reads the next token and the line it ends on.
func (s *scanner) token() (json.Token, int, error) {
	tok, err := s.dec.Token()
	var syn *json.SyntaxError
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return nil, 0, errAt(s.lineAt(int64(len(s.data))), "unexpected end of spec")
	case errors.As(err, &syn):
		return nil, 0, errAt(s.lineAt(syn.Offset), "%v", err)
	case err != nil:
		return nil, 0, fmt.Errorf("scenario: %w", err)
	}
	return tok, s.lineAt(s.dec.InputOffset()), nil
}

// value checks the next value against t, the type Unmarshal decodes it
// into, recording where it and every field in it stand.
func (s *scanner) value(t reflect.Type, path string) error {
	tok, line, err := s.token()
	if err != nil {
		return err
	}
	if _, ok := s.w[path]; !ok {
		s.w[path] = line
	}
	label := path
	if label == "" {
		label = "top level"
	}
	if tok == nil {
		return errAt(line, "%s: null is not a value (leave the field out)", label)
	}
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	var want string
	switch n, _ := tok.(json.Number); t.Kind() {
	case reflect.Struct:
		if tok == json.Delim('{') {
			return s.object(t, path)
		}
		want = "a mapping"
	case reflect.Slice:
		if tok == json.Delim('[') {
			for i := 0; s.dec.More(); i++ {
				if err := s.value(t.Elem(), fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
			_, _, err := s.token()
			return err
		}
		want = "a list"
	case reflect.String:
		if _, ok := tok.(string); !ok {
			want = "a string"
		}
	case reflect.Bool:
		if _, ok := tok.(bool); !ok {
			want = "true or false"
		}
	case reflect.Int, reflect.Int64:
		if _, err := strconv.ParseInt(string(n), 10, t.Bits()); err != nil {
			want = "an integer"
		}
	case reflect.Float64:
		if _, err := n.Float64(); err != nil {
			want = "a finite number"
		}
	}
	if want == "" {
		return nil
	}
	got := fmt.Sprint(tok)
	switch tok {
	case json.Delim('{'):
		got = "mapping"
	case json.Delim('['):
		got = "list"
	default:
		if str, ok := tok.(string); ok {
			got = strconv.Quote(str)
		}
	}
	return errAt(line, "%s: expected %s, got %s", label, want, got)
}

// object checks the fields of an object that decodes into struct type t.
func (s *scanner) object(t reflect.Type, path string) error {
	for s.dec.More() {
		tok, line, err := s.token()
		if err != nil {
			return err
		}
		name := tok.(string) // the decoder returns a string key or an error
		key := name
		if path != "" {
			key = path + "." + name
		}
		f, ok := fieldByKey(t, name)
		if !ok {
			return errAt(line, "%s: unknown field", key)
		}
		if _, dup := s.w[key]; dup {
			return errAt(line, "%s: duplicate key", key)
		}
		s.w[key] = line
		if err := s.value(f.Type, key); err != nil {
			return err
		}
	}
	_, _, err := s.token()
	return err
}

// fieldByKey finds the field of struct type t whose json tag names key
// exactly (Unmarshal would also take it in another case).
func fieldByKey(t reflect.Type, key string) (reflect.StructField, bool) {
	for i := 0; i < t.NumField(); i++ {
		if name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ","); name == key {
			return t.Field(i), true
		}
	}
	return reflect.StructField{}, false
}

func (w written) has(path string) bool {
	_, ok := w[path]
	return ok
}

// err positions a problem with path at its line, or at the line of its
// nearest written parent when the spec leaves path out.
func (w written) err(path, format string, args ...interface{}) error {
	for p := path; ; p = p[:max(strings.LastIndexAny(p, ".["), 0)] {
		if line, ok := w[p]; ok {
			return errAt(line, "%s: %s", path, fmt.Sprintf(format, args...))
		}
	}
}

// name checks a required [a-z0-9-] name.
func (w written) name(path, v string) error {
	if !w.has(path) {
		return w.err(path, "required")
	}
	if !validName(v) {
		return w.err(path, "must be non-empty [a-z0-9-], got %q", v)
	}
	return nil
}

// list checks a required, non-empty list.
func (w written) list(path string, n int) error {
	if !w.has(path) {
		return w.err(path, "required")
	}
	if n == 0 {
		return w.err(path, "must not be empty")
	}
	return nil
}

// bound is one value a block keeps in [0, max].
type bound struct {
	key    string
	v, max float64
}

func (w written) inRange(path string, bs ...bound) error {
	for _, b := range bs {
		if b.v < 0 || b.v > b.max {
			return w.err(path+"."+b.key, "out of range, got %v", b.v)
		}
	}
	return nil
}

func (w written) nonNegative(path string, v float64) error {
	if v < 0 {
		return w.err(path, "must be a finite value >= 0, got %v", v)
	}
	return nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-') {
			return false
		}
	}
	return true
}

// validate applies every rule the types cannot state. Every float is
// finite by then: JSON writes no NaN or infinity, and scan refuses a
// number past float64's range.
func (w written) validate(s *Spec) error {
	if err := w.name("name", s.Name); err != nil {
		return err
	}
	if !w.has("task") {
		return w.err("task", "required")
	}
	task, err := harness.TaskByName(s.Task)
	if err != nil {
		return w.err("task", "%v", err)
	}
	if s.Frames < 0 {
		return w.err("frames", "must be >= 0, got %d", s.Frames)
	}
	if !(s.Confidence > 0 && s.Confidence < 1) {
		return w.err("confidence", "must be in (0,1), got %v", s.Confidence)
	}
	if !(s.Coverage > 0 && s.Coverage < 1) {
		return w.err("coverage", "must be in (0,1), got %v", s.Coverage)
	}
	if err := w.streams(s.Streams); err != nil {
		return err
	}
	for _, f := range []struct {
		key string
		v   float64
	}{{"budget_usd", s.Fleet.BudgetUSD}, {"stream_rate", s.Fleet.StreamRatePerSec}, {"stream_burst", s.Fleet.StreamBurst}} {
		if err := w.nonNegative("fleet."+f.key, f.v); err != nil {
			return err
		}
	}
	if q := s.Fleet.QueueMax; q != nil && *q < 0 {
		return w.err("fleet.queue_max", "must be >= 0 (0 = unbounded), got %d", *q)
	}
	if err := w.list("stages", len(s.Stages)); err != nil {
		return err
	}
	stages := map[string]bool{}
	for i, st := range s.Stages {
		p := fmt.Sprintf("stages[%d]", i)
		if err := w.name(p+".name", st.Name); err != nil {
			return err
		}
		if stages[st.Name] {
			return w.err(p+".name", "duplicate stage %q", st.Name)
		}
		stages[st.Name] = true
		if w.has(p+".run") == w.has(p+".parallel") {
			return w.err(p, "exactly one of run/parallel required")
		}
		if st.Run != nil {
			if err := w.task(s, task, p+".run", st.Run); err != nil {
				return err
			}
			continue
		}
		if len(st.Parallel) == 0 {
			return w.err(p+".parallel", "empty task group")
		}
		tasks := map[string]bool{}
		for j := range st.Parallel {
			t, tp := &st.Parallel[j], fmt.Sprintf("%s.parallel[%d]", p, j)
			if err := w.task(s, task, tp, t); err != nil {
				return err
			}
			if tasks[t.Name] {
				return w.err(tp+".name", "duplicate task %q", t.Name)
			}
			tasks[t.Name] = true
		}
	}
	return nil
}

func (w written) streams(groups []StreamGroup) error {
	if err := w.list("streams", len(groups)); err != nil {
		return err
	}
	seen := map[string]bool{}
	cameras := 0
	for i, g := range groups {
		p := fmt.Sprintf("streams[%d]", i)
		if err := w.name(p+".id", g.ID); err != nil {
			return err
		}
		if seen[g.ID] {
			return w.err(p+".id", "duplicate stream group %q", g.ID)
		}
		seen[g.ID] = true
		if g.Count < 1 {
			return w.err(p+".count", "must be >= 1, got %d", g.Count)
		}
		if g.Count > maxCameras-cameras {
			return w.err(p+".count", "must be <= %d, got %d (a spec declares at most %d cameras, %d before this group)", maxCameras-cameras, g.Count, maxCameras, cameras)
		}
		cameras += g.Count
		if g.Scenes < 0 || g.Scenes > g.Count {
			return w.err(p+".scenes", "must be in [0,count], got %d", g.Scenes)
		}
		switch g.Arrivals {
		case "poisson", "geometric", "regular":
		default:
			if w.has(p + ".arrivals") {
				return w.err(p+".arrivals", "must be poisson, geometric or regular, got %q", g.Arrivals)
			}
		}
		if u := g.Surge; u != nil {
			if u.AtFrame < 1 {
				return w.err(p+".surge.at", "must be >= 1, got %d", u.AtFrame)
			}
			if !(u.Rate > 0) {
				return w.err(p+".surge.rate", "must be a finite value > 0, got %v", u.Rate)
			}
		}
		if d := g.Drift; d != nil {
			if d.AtFrame < 1 {
				return w.err(p+".drift.at", "must be >= 1, got %d", d.AtFrame)
			}
			if err := w.inRange(p+".drift", bound{"miss_rate", d.MissRate, 1}, bound{"fp_rate", d.FPRate, 1},
				bound{"cue_gain", d.CueGain, 1}, bound{"jitter", d.Jitter, math.Inf(1)}); err != nil {
				return err
			}
			// 0 is refused: the detector would read it as 1.
			if d.CueGain == 0 && w.has(p+".drift.cue_gain") {
				return w.err(p+".drift.cue_gain", "must be > 0 (leave it out for full signal), got 0")
			}
		}
	}
	return nil
}

func (w written) task(s *Spec, task harness.Task, p string, t *TaskSpec) error {
	if err := w.name(p+".name", t.Name); err != nil {
		return err
	}
	if !w.has(p + ".kind") {
		return w.err(p+".kind", "required")
	}
	switch t.Kind {
	case KindFleet, KindPipeline, KindDrift:
	default:
		return w.err(p+".kind", "must be fleet, pipeline or drift, got %q", t.Kind)
	}
	if c := t.Cache; c != nil {
		if err := w.nonNegative(p+".cache.epsilon", c.Epsilon); err != nil {
			return err
		}
		if c.TTLFrames < 1 {
			return w.err(p+".cache.ttl_frames", "must be >= 1, got %d", c.TTLFrames)
		}
		if t.Kind != KindFleet {
			return w.err(p+".cache", "only valid on fleet tasks")
		}
	}
	if b := t.BudgetUSD; b != nil {
		if t.Kind == KindPipeline {
			return w.err(p+".budget_usd", "only valid on fleet/drift tasks")
		}
		if err := w.nonNegative(p+".budget_usd", *b); err != nil {
			return err
		}
	}
	if w.has(p + ".stream") {
		if t.Kind == KindFleet {
			return w.err(p+".stream", "only valid on pipeline/drift tasks")
		}
		if !cameraExists(s, t.Stream) {
			return w.err(p+".stream", "unknown camera %q", t.Stream)
		}
	}
	if f := t.Faults; f != nil {
		fp := p + ".faults"
		if err := w.inRange(fp, bound{"transient_rate", f.TransientRate, 1}, bound{"spike_rate", f.SpikeRate, 1},
			bound{"spike_ms", f.SpikeMS, math.Inf(1)}, bound{"fail_latency_ms", f.FailLatencyMS, math.Inf(1)}); err != nil {
			return err
		}
		if w.has(fp+".outages") && len(f.Outages) == 0 {
			return w.err(fp+".outages", "must not be empty")
		}
		for i, o := range f.Outages {
			op := fmt.Sprintf("%s.outages[%d]", fp, i)
			if !w.has(op+".start") || !w.has(op+".end") || o.Start < 0 || o.End <= o.Start {
				return w.err(op, "need 0 <= start < end, got [%d,%d)", o.Start, o.End)
			}
		}
		if t.Kind != KindPipeline {
			return w.err(fp, "only valid on pipeline tasks")
		}
	}
	if a := t.AuditRate; a != nil {
		if t.Kind != KindDrift {
			return w.err(p+".audit_rate", "only valid on drift tasks")
		}
		if !(*a >= 0 && *a <= 1) {
			return w.err(p+".audit_rate", "must be in [0,1], got %v", *a)
		}
	}
	// The loop watches one event's coverage.
	if t.Kind == KindDrift && task.NumEvents() != 1 {
		return w.err(p+".kind", "drift needs a single-event task, %s has %d events", s.Task, task.NumEvents())
	}
	return nil
}

// cameraExists reports whether a group declares the camera ID: camera i of
// group g is "<g>-<ii>" (compileCameras), and the index holds no '-', so
// the ID splits at its last '-' and is checked in constant time whatever
// the group's count.
func cameraExists(spec *Spec, id string) bool {
	cut := strings.LastIndexByte(id, '-')
	if cut < 0 {
		return false
	}
	i, err := strconv.Atoi(id[cut+1:])
	if err != nil || i < 0 {
		return false
	}
	for _, g := range spec.Streams {
		if g.ID == id[:cut] {
			return i < g.Count && fmt.Sprintf("%s-%02d", g.ID, i) == id
		}
	}
	return false
}
