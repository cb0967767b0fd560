// Package scenario turns workload shapes into declarative, regression-
// gated artifacts. The paper's marshalling claims (the Fig. 9 cost split,
// Table 1 REC/SPL) hold across regimes — mostly-idle surveillance, burst
// arrivals, degraded CI, budget cliffs — but until now each regime was an
// ad-hoc flag combination on three binaries. A scenario spec (YAML subset,
// parsed in-repo, stdlib-only) declares streams, scene mixes, arrival
// surges, drift schedules and budgets, plus a staged runner program: named
// stages executed serially, each stage either one task or a parallel group
// (bashful-style task/task_group), where every task compiles onto the
// existing harness/fleet/pipeline machinery and may carry its own cache or
// fault plan — a sweep is a parallel group of tasks that differ in one
// block. Task results are slotted by index and the fleet's two-phase
// determinism is preserved, so a scenario report is byte-identical at any
// GOMAXPROCS — which is what lets the committed corpus under corpus/ pin
// golden reports in testdata/ and gate every future PR on all regimes at
// once.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"eventhit/internal/harness"
)

// Spec is one declared scenario.
type Spec struct {
	// Name identifies the scenario; it doubles as the corpus filename stem,
	// so it is restricted to [a-z0-9-].
	Name string
	// Description is free text shown by `eventhitscenario -list`.
	Description string
	// Task is the Table II task label the deployed model is trained on.
	Task string
	// Seed keys everything: training, stream generation, detector noise,
	// fault plans. Defaults to 1.
	Seed int64
	// Quick selects the reduced training sizes (harness.Quick).
	Quick bool
	// Frames bounds the marshalled region per camera (0 = whole stream).
	Frames int
	// Confidence and Coverage parametrize the deployed EHCR strategy.
	// Both default to 0.9.
	Confidence float64
	Coverage   float64
	// Streams declares the camera groups of the workload.
	Streams []StreamGroup
	// Fleet is the shared-backend scheduler policy (zero value = defaults).
	Fleet FleetSpec
	// Stages is the runner program, executed in order.
	Stages []Stage
}

// StreamGroup declares count cameras sharing one workload shape.
type StreamGroup struct {
	// ID prefixes the camera IDs: camera i of the group is "<id>-<ii>".
	ID string
	// Count is the number of cameras in the group.
	Count int
	// Scenes is the number of distinct scenes the group's cameras watch;
	// cameras assigned the same scene share the generation seed and hence
	// identical covariate timelines (the repetition a content-addressed
	// cache dedups). 0 gives every camera its own scene.
	Scenes int
	// Arrivals selects the inter-event gap process: "poisson" (default),
	// "geometric" or "regular".
	Arrivals string
	// Surge, when present, multiplies the event arrival rate from a frame
	// on (burst traffic, flash crowds).
	Surge *SurgeSpec
	// Drift, when present, degrades the camera's detector from a frame on
	// (covariate drift).
	Drift *DriftSpec
}

// SurgeSpec is an arrival-rate shift: from AtFrame on, events arrive Rate
// times as often.
type SurgeSpec struct {
	AtFrame int
	Rate    float64
}

// DriftSpec is a detector degradation: from AtFrame on the camera's
// detector runs with the given noise profile (fields mirror
// features.DetectorConfig). A written cue_gain must lie in (0,1]; leaving
// it out keeps full signal (CueGain 0, which features.DetectorConfig reads
// as 1).
type DriftSpec struct {
	AtFrame  int
	MissRate float64
	FPRate   float64
	Jitter   float64
	CueGain  float64
}

// FleetSpec overrides the fleet scheduler policy. Pointer fields
// distinguish "absent" (use fleet.DefaultConfig) from an explicit zero
// (e.g. queue_max: 0 = unbounded queue).
type FleetSpec struct {
	// BudgetUSD caps the fleet's total CI spend (0 = uncapped).
	BudgetUSD float64
	// StreamRatePerSec / StreamBurst configure the per-stream token bucket
	// (rate 0 = unmetered; burst 0 = one second of rate).
	StreamRatePerSec float64
	StreamBurst      float64
	QueueMax         *int
	BatchMax         *int
	BatchFramesMax   *int
	CallOverheadMS   *float64
}

// CacheSpec configures the shared CI result cache.
type CacheSpec struct {
	Epsilon   float64
	TTLFrames int
}

// FaultSpec mirrors cloud.FaultPlan. Seed 0 inherits the spec seed.
type FaultSpec struct {
	Seed           int64
	TransientRate  float64
	SpikeRate      float64
	SpikeMS        float64
	RateLimitEvery int
	RateLimitBurst int
	FailLatencyMS  float64
	Outages        []OutageSpec
}

// OutageSpec is a half-open request-index window [Start, End).
type OutageSpec struct {
	Start, End int64
}

// Stage is one named runner step: exactly one of Run (a single task) or
// Parallel (a task group whose members run concurrently, results slotted by
// index) is set.
type Stage struct {
	Name     string
	Run      *TaskSpec
	Parallel []TaskSpec
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
	Name string
	// Kind selects the machinery: "fleet" marshals every declared camera
	// through the shared-backend scheduler; "pipeline" marshals one camera
	// through the end-to-end pipeline loop (optionally against the fault
	// plan); "drift" walks one camera under the adaptation loop serve ships
	// (drift.Loop), relaying to a CI whose verdicts label its outcomes.
	Kind string
	// Cache (fleet), when present, attaches a shared CI result cache with
	// this configuration to the scheduler.
	Cache *CacheSpec
	// BudgetUSD overrides the fleet budget for a fleet task; on a drift task
	// it is a hard cloud.Budget charged before every relay and audit, whose
	// exhaustion ends the walk. 0 is uncapped on both.
	BudgetUSD *float64
	// Stream (pipeline/drift) is the camera ID to marshal; defaults to the
	// first declared camera.
	Stream string
	// Faults (pipeline), when present, injects this fault plan in front of
	// the CI, behind the resilient client with graceful degradation.
	Faults *FaultSpec
	// AuditRate (drift) is the loop's drift.Config.AuditRate, in [0,1];
	// nil is drift.DefaultConfig's.
	AuditRate *float64
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

// Parse decodes and validates a scenario spec. Every error is positional:
// "scenario: line N: <field>: <problem>".
func Parse(data []byte) (*Spec, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	r := reader{n: root, path: ""}
	spec := &Spec{Seed: 1, Confidence: defaultConfidence, Coverage: defaultCoverage}

	spec.Name, err = r.reqString("name")
	if err != nil {
		return nil, err
	}
	if !validName(spec.Name) {
		return nil, r.fieldErr("name", "must be non-empty [a-z0-9-], got %q", spec.Name)
	}
	if spec.Description, _, err = r.optString("description"); err != nil {
		return nil, err
	}
	if spec.Task, err = r.reqString("task"); err != nil {
		return nil, err
	}
	if _, err := harness.TaskByName(spec.Task); err != nil {
		return nil, r.fieldErr("task", "%v", err)
	}
	if v, ok, err := r.optInt("seed"); err != nil {
		return nil, err
	} else if ok {
		spec.Seed = v
	}
	if spec.Quick, _, err = r.optBool("quick"); err != nil {
		return nil, err
	}
	if v, ok, err := r.optInt("frames"); err != nil {
		return nil, err
	} else if ok {
		if v < 0 {
			return nil, r.fieldErr("frames", "must be >= 0, got %d", v)
		}
		spec.Frames = int(v)
	}
	for _, f := range []struct {
		key string
		dst *float64
	}{{"confidence", &spec.Confidence}, {"coverage", &spec.Coverage}} {
		if v, ok, err := r.optFloat(f.key); err != nil {
			return nil, err
		} else if ok {
			if !(v > 0 && v < 1) {
				return nil, r.fieldErr(f.key, "must be in (0,1), got %v", v)
			}
			*f.dst = v
		}
	}

	if err := decodeStreams(&r, spec); err != nil {
		return nil, err
	}
	if err := decodeFleet(&r, spec); err != nil {
		return nil, err
	}
	if err := decodeStages(&r, spec); err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return spec, nil
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

func decodeStreams(r *reader, spec *Spec) error {
	list, err := r.reqList("streams")
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for i, item := range list.items {
		g := reader{n: item, path: fmt.Sprintf("streams[%d]", i)}
		if g.n.kind != mapNode {
			return errAt(item.line, "%s: expected a mapping, got %s", g.path, item.kind)
		}
		var sg StreamGroup
		if sg.ID, err = g.reqString("id"); err != nil {
			return err
		}
		if !validName(sg.ID) {
			return g.fieldErr("id", "must be non-empty [a-z0-9-], got %q", sg.ID)
		}
		if seen[sg.ID] {
			return g.fieldErr("id", "duplicate stream group %q", sg.ID)
		}
		seen[sg.ID] = true
		if v, ok, err := g.optInt("count"); err != nil {
			return err
		} else if !ok || v < 1 {
			return g.fieldErr("count", "must be >= 1, got %d", v)
		} else {
			sg.Count = int(v)
		}
		if v, ok, err := g.optInt("scenes"); err != nil {
			return err
		} else if ok {
			if v < 0 || int(v) > sg.Count {
				return g.fieldErr("scenes", "must be in [0,count], got %d", v)
			}
			sg.Scenes = int(v)
		}
		if v, ok, err := g.optString("arrivals"); err != nil {
			return err
		} else if ok {
			switch v {
			case "poisson", "geometric", "regular":
				sg.Arrivals = v
			default:
				return g.fieldErr("arrivals", "must be poisson, geometric or regular, got %q", v)
			}
		}
		if sub, ok := g.optChild("surge"); ok {
			s := reader{n: sub, path: g.path + ".surge"}
			if s.n.kind != mapNode {
				return errAt(sub.line, "%s: expected a mapping, got %s", s.path, sub.kind)
			}
			sg.Surge = &SurgeSpec{}
			if v, ok, err := s.optInt("at"); err != nil {
				return err
			} else if !ok || v < 1 {
				return s.fieldErr("at", "must be >= 1, got %d", v)
			} else {
				sg.Surge.AtFrame = int(v)
			}
			if v, ok, err := s.optFloat("rate"); err != nil {
				return err
			} else if !ok || !(v > 0) || math.IsInf(v, 0) {
				return s.fieldErr("rate", "must be a finite value > 0, got %v", v)
			} else {
				sg.Surge.Rate = v
			}
			if err := s.finish(); err != nil {
				return err
			}
		}
		if sub, ok := g.optChild("drift"); ok {
			d := reader{n: sub, path: g.path + ".drift"}
			if d.n.kind != mapNode {
				return errAt(sub.line, "%s: expected a mapping, got %s", d.path, sub.kind)
			}
			sg.Drift = &DriftSpec{}
			if v, ok, err := d.optInt("at"); err != nil {
				return err
			} else if !ok || v < 1 {
				return d.fieldErr("at", "must be >= 1, got %d", v)
			} else {
				sg.Drift.AtFrame = int(v)
			}
			for _, f := range []struct {
				key string
				dst *float64
				max float64
				pos bool // 0 is refused: the detector would read it as 1
			}{
				{"miss_rate", &sg.Drift.MissRate, 1, false},
				{"fp_rate", &sg.Drift.FPRate, 1, false},
				{"cue_gain", &sg.Drift.CueGain, 1, true},
				{"jitter", &sg.Drift.Jitter, math.Inf(1), false},
			} {
				if v, ok, err := d.optFloat(f.key); err != nil {
					return err
				} else if ok {
					if v < 0 || v > f.max || math.IsNaN(v) || math.IsInf(v, 0) {
						return d.fieldErr(f.key, "out of range, got %v", v)
					}
					if f.pos && v == 0 {
						return d.fieldErr(f.key, "must be > 0 (leave it out for full signal), got %v", v)
					}
					*f.dst = v
				}
			}
			if err := d.finish(); err != nil {
				return err
			}
		}
		if err := g.finish(); err != nil {
			return err
		}
		spec.Streams = append(spec.Streams, sg)
	}
	return nil
}

func decodeFleet(r *reader, spec *Spec) error {
	sub, ok := r.optChild("fleet")
	if !ok {
		return nil
	}
	f := reader{n: sub, path: "fleet"}
	if f.n.kind != mapNode {
		return errAt(sub.line, "fleet: expected a mapping, got %s", sub.kind)
	}
	for _, fd := range []struct {
		key string
		dst *float64
	}{
		{"budget_usd", &spec.Fleet.BudgetUSD},
		{"stream_rate", &spec.Fleet.StreamRatePerSec},
		{"stream_burst", &spec.Fleet.StreamBurst},
	} {
		if v, ok, err := f.optFloat(fd.key); err != nil {
			return err
		} else if ok {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return f.fieldErr(fd.key, "must be a finite value >= 0, got %v", v)
			}
			*fd.dst = v
		}
	}
	if v, ok, err := f.optInt("queue_max"); err != nil {
		return err
	} else if ok {
		if v < 0 {
			return f.fieldErr("queue_max", "must be >= 0 (0 = unbounded), got %d", v)
		}
		q := int(v)
		spec.Fleet.QueueMax = &q
	}
	for _, fd := range []struct {
		key string
		dst **int
	}{{"batch_max", &spec.Fleet.BatchMax}, {"batch_frames_max", &spec.Fleet.BatchFramesMax}} {
		if v, ok, err := f.optInt(fd.key); err != nil {
			return err
		} else if ok {
			if v < 1 {
				return f.fieldErr(fd.key, "must be >= 1, got %d", v)
			}
			b := int(v)
			*fd.dst = &b
		}
	}
	if v, ok, err := f.optFloat("call_overhead_ms"); err != nil {
		return err
	} else if ok {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return f.fieldErr("call_overhead_ms", "must be a finite value >= 0, got %v", v)
		}
		spec.Fleet.CallOverheadMS = &v
	}
	return f.finish()
}

// decodeCache decodes a task's `cache:` block; nil when absent.
func decodeCache(r *reader) (*CacheSpec, error) {
	sub, ok := r.optChild("cache")
	if !ok {
		return nil, nil
	}
	c := reader{n: sub, path: r.fieldPath("cache")}
	if c.n.kind != mapNode {
		return nil, errAt(sub.line, "%s: expected a mapping, got %s", c.path, sub.kind)
	}
	cs := &CacheSpec{}
	if v, ok, err := c.optFloat("epsilon"); err != nil {
		return nil, err
	} else if ok {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, c.fieldErr("epsilon", "must be a finite value >= 0, got %v", v)
		}
		cs.Epsilon = v
	}
	if v, ok, err := c.optInt("ttl_frames"); err != nil {
		return nil, err
	} else if !ok || v < 1 {
		return nil, c.fieldErr("ttl_frames", "must be >= 1, got %d", v)
	} else {
		cs.TTLFrames = int(v)
	}
	return cs, c.finish()
}

// decodeFaults decodes a task's `faults:` block; nil when absent.
func decodeFaults(r *reader) (*FaultSpec, error) {
	sub, ok := r.optChild("faults")
	if !ok {
		return nil, nil
	}
	f := reader{n: sub, path: r.fieldPath("faults")}
	if f.n.kind != mapNode {
		return nil, errAt(sub.line, "%s: expected a mapping, got %s", f.path, sub.kind)
	}
	fs := &FaultSpec{}
	if v, ok, err := f.optInt("seed"); err != nil {
		return nil, err
	} else if ok {
		fs.Seed = v
	}
	for _, fd := range []struct {
		key string
		dst *float64
		max float64
	}{
		{"transient_rate", &fs.TransientRate, 1},
		{"spike_rate", &fs.SpikeRate, 1},
		{"spike_ms", &fs.SpikeMS, math.Inf(1)},
		{"fail_latency_ms", &fs.FailLatencyMS, math.Inf(1)},
	} {
		if v, ok, err := f.optFloat(fd.key); err != nil {
			return nil, err
		} else if ok {
			if v < 0 || v > fd.max || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, f.fieldErr(fd.key, "out of range, got %v", v)
			}
			*fd.dst = v
		}
	}
	for _, fd := range []struct {
		key string
		dst *int
	}{{"rate_limit_every", &fs.RateLimitEvery}, {"rate_limit_burst", &fs.RateLimitBurst}} {
		if v, ok, err := f.optInt(fd.key); err != nil {
			return nil, err
		} else if ok {
			if v < 0 {
				return nil, f.fieldErr(fd.key, "must be >= 0, got %d", v)
			}
			*fd.dst = int(v)
		}
	}
	if list, ok := f.optChild("outages"); ok {
		if list.kind != listNode {
			return nil, errAt(list.line, "%s.outages: expected a list, got %s", f.path, list.kind)
		}
		for i, item := range list.items {
			o := reader{n: item, path: fmt.Sprintf("%s.outages[%d]", f.path, i)}
			if o.n.kind != mapNode {
				return nil, errAt(item.line, "%s: expected a mapping, got %s", o.path, item.kind)
			}
			var w OutageSpec
			var okS, okE bool
			var err error
			if w.Start, okS, err = o.optInt("start"); err != nil {
				return nil, err
			}
			if w.End, okE, err = o.optInt("end"); err != nil {
				return nil, err
			}
			if !okS || !okE || w.Start < 0 || w.End <= w.Start {
				return nil, errAt(item.line, "%s: need 0 <= start < end, got [%d,%d)", o.path, w.Start, w.End)
			}
			if err := o.finish(); err != nil {
				return nil, err
			}
			fs.Outages = append(fs.Outages, w)
		}
	}
	return fs, f.finish()
}

func decodeStages(r *reader, spec *Spec) error {
	list, err := r.reqList("stages")
	if err != nil {
		return err
	}
	stageSeen := map[string]bool{}
	for i, item := range list.items {
		s := reader{n: item, path: fmt.Sprintf("stages[%d]", i)}
		if s.n.kind != mapNode {
			return errAt(item.line, "%s: expected a mapping, got %s", s.path, item.kind)
		}
		var st Stage
		if st.Name, err = s.reqString("name"); err != nil {
			return err
		}
		if !validName(st.Name) {
			return s.fieldErr("name", "must be non-empty [a-z0-9-], got %q", st.Name)
		}
		if stageSeen[st.Name] {
			return s.fieldErr("name", "duplicate stage %q", st.Name)
		}
		stageSeen[st.Name] = true
		runNode, hasRun := s.optChild("run")
		parNode, hasPar := s.optChild("parallel")
		if hasRun == hasPar {
			return errAt(item.line, "%s: exactly one of run/parallel required", s.path)
		}
		if hasRun {
			t, err := decodeTask(spec, runNode, s.path+".run")
			if err != nil {
				return err
			}
			st.Run = &t
		} else {
			if parNode.kind != listNode {
				return errAt(parNode.line, "%s.parallel: expected a list, got %s", s.path, parNode.kind)
			}
			if len(parNode.items) == 0 {
				return errAt(parNode.line, "%s.parallel: empty task group", s.path)
			}
			taskSeen := map[string]bool{}
			for j, tn := range parNode.items {
				t, err := decodeTask(spec, tn, fmt.Sprintf("%s.parallel[%d]", s.path, j))
				if err != nil {
					return err
				}
				if taskSeen[t.Name] {
					return errAt(tn.line, "%s.parallel[%d].name: duplicate task %q", s.path, j, t.Name)
				}
				taskSeen[t.Name] = true
				st.Parallel = append(st.Parallel, t)
			}
		}
		if err := s.finish(); err != nil {
			return err
		}
		spec.Stages = append(spec.Stages, st)
	}
	return nil
}

func decodeTask(spec *Spec, n *node, path string) (TaskSpec, error) {
	t := reader{n: n, path: path}
	if n.kind != mapNode {
		return TaskSpec{}, errAt(n.line, "%s: expected a mapping, got %s", path, n.kind)
	}
	var ts TaskSpec
	var err error
	if ts.Name, err = t.reqString("name"); err != nil {
		return TaskSpec{}, err
	}
	if !validName(ts.Name) {
		return TaskSpec{}, t.fieldErr("name", "must be non-empty [a-z0-9-], got %q", ts.Name)
	}
	if ts.Kind, err = t.reqString("kind"); err != nil {
		return TaskSpec{}, err
	}
	switch ts.Kind {
	case KindFleet, KindPipeline, KindDrift:
	default:
		return TaskSpec{}, t.fieldErr("kind", "must be fleet, pipeline or drift, got %q", ts.Kind)
	}
	if ts.Cache, err = decodeCache(&t); err != nil {
		return TaskSpec{}, err
	} else if ts.Cache != nil && ts.Kind != KindFleet {
		return TaskSpec{}, t.fieldErr("cache", "only valid on fleet tasks")
	}
	if v, ok, err := t.optFloat("budget_usd"); err != nil {
		return TaskSpec{}, err
	} else if ok {
		if ts.Kind == KindPipeline {
			return TaskSpec{}, t.fieldErr("budget_usd", "only valid on fleet/drift tasks")
		}
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return TaskSpec{}, t.fieldErr("budget_usd", "must be a finite value >= 0, got %v", v)
		}
		ts.BudgetUSD = &v
	}
	if v, ok, err := t.optString("stream"); err != nil {
		return TaskSpec{}, err
	} else if ok {
		if ts.Kind == KindFleet {
			return TaskSpec{}, t.fieldErr("stream", "only valid on pipeline/drift tasks")
		}
		if !cameraExists(spec, v) {
			return TaskSpec{}, t.fieldErr("stream", "unknown camera %q", v)
		}
		ts.Stream = v
	}
	if ts.Faults, err = decodeFaults(&t); err != nil {
		return TaskSpec{}, err
	} else if ts.Faults != nil && ts.Kind != KindPipeline {
		return TaskSpec{}, t.fieldErr("faults", "only valid on pipeline tasks")
	}
	if v, ok, err := t.optFloat("audit_rate"); err != nil {
		return TaskSpec{}, err
	} else if ok {
		if ts.Kind != KindDrift {
			return TaskSpec{}, t.fieldErr("audit_rate", "only valid on drift tasks")
		}
		if !(v >= 0 && v <= 1) {
			return TaskSpec{}, t.fieldErr("audit_rate", "must be in [0,1], got %v", v)
		}
		ts.AuditRate = &v
	}
	if ts.Kind == KindDrift {
		// The loop watches one event's coverage.
		if task, _ := harness.TaskByName(spec.Task); task.NumEvents() != 1 {
			return TaskSpec{}, t.fieldErr("kind", "drift needs a single-event task, %s has %d events", spec.Task, task.NumEvents())
		}
	}
	if err := t.finish(); err != nil {
		return TaskSpec{}, err
	}
	return ts, nil
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

// reader wraps a mapping node with typed, positional field access and
// unknown-key rejection.
type reader struct {
	n    *node
	path string
	used map[string]bool
}

func (r *reader) fieldPath(key string) string {
	if r.path == "" {
		return key
	}
	return r.path + "." + key
}

func (r *reader) fieldErr(key, format string, args ...interface{}) error {
	line := r.n.line
	if l, ok := r.n.keyLine[key]; ok {
		line = l
	}
	return errAt(line, "%s: %s", r.fieldPath(key), fmt.Sprintf(format, args...))
}

func (r *reader) take(key string) (*node, bool) {
	v, ok := r.n.vals[key]
	if !ok {
		return nil, false
	}
	if r.used == nil {
		r.used = map[string]bool{}
	}
	r.used[key] = true
	return v, true
}

func (r *reader) scalar(key string) (*node, string, error) {
	v, ok := r.take(key)
	if !ok {
		return nil, "", nil
	}
	if v.kind != scalarNode {
		return nil, "", r.fieldErr(key, "expected a scalar, got %s", v.kind)
	}
	s, err := scalarString(v)
	if err != nil {
		return nil, "", err // already positioned at the scalar's line
	}
	return v, s, nil
}

func (r *reader) reqString(key string) (string, error) {
	v, ok, err := r.optString(key)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", errAt(r.n.line, "%s: required", r.fieldPath(key))
	}
	return v, nil
}

func (r *reader) optString(key string) (string, bool, error) {
	v, s, err := r.scalar(key)
	if err != nil || v == nil {
		return "", false, err
	}
	return s, true, nil
}

func (r *reader) optInt(key string) (int64, bool, error) {
	v, s, err := r.scalar(key)
	if err != nil || v == nil {
		return 0, false, err
	}
	i, perr := strconv.ParseInt(s, 10, 64)
	if perr != nil {
		return 0, false, r.fieldErr(key, "expected an integer, got %q", s)
	}
	return i, true, nil
}

func (r *reader) optFloat(key string) (float64, bool, error) {
	v, s, err := r.scalar(key)
	if err != nil || v == nil {
		return 0, false, err
	}
	f, perr := strconv.ParseFloat(s, 64)
	if perr != nil {
		return 0, false, r.fieldErr(key, "expected a number, got %q", s)
	}
	return f, true, nil
}

func (r *reader) optBool(key string) (bool, bool, error) {
	v, s, err := r.scalar(key)
	if err != nil || v == nil {
		return false, false, err
	}
	switch s {
	case "true":
		return true, true, nil
	case "false":
		return false, true, nil
	}
	return false, false, r.fieldErr(key, "expected true or false, got %q", s)
}

func (r *reader) optChild(key string) (*node, bool) {
	return r.take(key)
}

func (r *reader) reqList(key string) (*node, error) {
	v, ok := r.take(key)
	if !ok {
		return nil, errAt(r.n.line, "%s: required", r.fieldPath(key))
	}
	if v.kind != listNode {
		return nil, r.fieldErr(key, "expected a list, got %s", v.kind)
	}
	if len(v.items) == 0 {
		return nil, r.fieldErr(key, "must not be empty")
	}
	return v, nil
}

// finish rejects unknown keys, pointing at the first unconsumed one.
func (r *reader) finish() error {
	for _, k := range r.n.keys {
		if !r.used[k] {
			return r.fieldErr(k, "unknown field")
		}
	}
	return nil
}
