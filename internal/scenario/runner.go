package scenario

import (
	"fmt"
	"time"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/drift"
	"eventhit/internal/features"
	"eventhit/internal/fleet"
	"eventhit/internal/harness"
	"eventhit/internal/pipeline"
	"eventhit/internal/resilience"
	"eventhit/internal/video"
)

// The staged runner compiles a validated Spec onto the existing machinery:
// one trained environment (harness.NewEnv, keyed by the spec seed), camera
// streams generated per task from scene-keyed seeds, and one executor per
// task kind — fleet.Run for whole-fleet marshalling (optionally with the
// task's cache), pipeline.RunScored for single-camera runs (optionally
// against the task's fault plan through the resilient client), and a
// coverage-monitor walk for drift tasks. Every outcome must pass the
// accounting identities of TaskOut.accountingErr before it enters the
// report; a task that breaks one fails the run.
//
// Determinism contract: stages run serially; a parallel task group runs its
// members concurrently with results slotted by index; every task rebuilds
// its cameras from the same seeds (extractors are stateful; the bundle is
// shared read-only). Each executor is itself deterministic at any
// parallelism — fleet.Run by its two-phase design, the others because they
// are single-goroutine over seeded inputs — so MarshalReport output is
// byte-identical at any Run parallelism. The corpus golden tests hold the
// runner to exactly that.

// Report is the scenario outcome, marshalled by MarshalReport and pinned
// byte-for-byte by the corpus goldens.
type Report struct {
	Name       string      `json:"name"`
	Task       string      `json:"task"`
	Seed       int64       `json:"seed"`
	Quick      bool        `json:"quick"`
	Frames     int         `json:"frames"`
	Confidence float64     `json:"confidence"`
	Coverage   float64     `json:"coverage"`
	Cameras    []CameraOut `json:"cameras"`
	Stages     []StageOut  `json:"stages"`
}

// CameraOut records one compiled camera: its scene assignment (cameras
// sharing a scene share a generation seed, hence identical covariate
// timelines) and any surge/drift schedule inherited from its group.
type CameraOut struct {
	ID       string `json:"id"`
	Scene    int    `json:"scene"`
	Seed     int64  `json:"seed"`
	Arrivals string `json:"arrivals"`
	SurgeAt  int    `json:"surge_at,omitempty"`
	DriftAt  int    `json:"drift_at,omitempty"`
}

// StageOut is one executed stage.
type StageOut struct {
	Name     string    `json:"name"`
	Parallel bool      `json:"parallel"`
	Tasks    []TaskOut `json:"tasks"`
}

// TaskOut is one executed task; exactly one of the kind-specific outcomes
// is set.
type TaskOut struct {
	Name     string       `json:"name"`
	Kind     string       `json:"kind"`
	Fleet    *FleetOut    `json:"fleet,omitempty"`
	Pipeline *PipelineOut `json:"pipeline,omitempty"`
	Drift    *DriftOut    `json:"drift,omitempty"`
}

// FleetOut is a fleet task's outcome: the scheduler report plus
// cross-stream recall means and, for a cached task, the rest of the cache
// meter (fleet.Report.CacheStats, which the report keeps out of its JSON).
// The means skip streams whose REC is fleet.UndefinedREC (meanRECs).
type FleetOut struct {
	fleet.Report
	MeanREC         float64 `json:"mean_rec"`
	MeanRealizedREC float64 `json:"mean_realized_rec"`
	CacheMisses     int64   `json:"cache_misses,omitempty"`
	CacheEvictions  int64   `json:"cache_evictions,omitempty"`
}

// PipelineOut is a single-camera end-to-end marshalling outcome.
type PipelineOut struct {
	Stream         string  `json:"stream"`
	Faulted        bool    `json:"faulted"`
	REC            float64 `json:"rec"`
	RealizedREC    float64 `json:"realized_rec"`
	Relays         int     `json:"relays"`
	Deferred       int     `json:"deferred"`
	Retried        int     `json:"retried"`
	FailedAttempts int64   `json:"failed_attempts"`
	BreakerTrips   int64   `json:"breaker_trips"`
	SpentUSD       float64 `json:"spent_usd"`
	CIMS           float64 `json:"ci_ms"`
}

// DriftOut is a coverage-monitor walk over a drifting camera. DetectFrame
// is the absolute anchor frame of the first alarm (-1 = never raised);
// OutcomesToAlarm counts positive outcomes observed up to and including it.
type DriftOut struct {
	Stream          string  `json:"stream"`
	SwitchFrame     int     `json:"switch_frame"`
	MonitorWindow   int     `json:"monitor_window"`
	MonitorDelta    float64 `json:"monitor_delta"`
	Anchors         int     `json:"anchors"`
	Positives       int     `json:"positives"`
	AlarmRaised     bool    `json:"alarm_raised"`
	DetectFrame     int     `json:"detect_frame"`
	OutcomesToAlarm int     `json:"outcomes_to_alarm"`
	CoveragePre     float64 `json:"coverage_pre"`
	CoveragePost    float64 `json:"coverage_post"`
}

// camera is one compiled camera declaration.
type camera struct {
	id    string
	seed  int64
	scene int
	group *StreamGroup
}

// compileCameras assigns every declared camera a global scene index and the
// scene-keyed generation seed. Within a group of count cameras over s
// scenes, camera i watches scene (i*s)/count — contiguous same-scene runs,
// so consecutive cameras of a scenes<count group are cache twins.
func compileCameras(spec *Spec) []camera {
	var cams []camera
	scene := 0
	for gi := range spec.Streams {
		g := &spec.Streams[gi]
		scenes := g.Scenes
		if scenes == 0 {
			scenes = g.Count
		}
		for i := 0; i < g.Count; i++ {
			sc := scene + (i*scenes)/g.Count
			cams = append(cams, camera{
				id:    fmt.Sprintf("%s-%02d", g.ID, i),
				seed:  spec.Seed + 1000*int64(sc+1),
				scene: sc,
				group: g,
			})
		}
		scene += scenes
	}
	return cams
}

func resolveCamera(cams []camera, id string) (camera, error) {
	if id == "" {
		return cams[0], nil
	}
	for _, c := range cams {
		if c.id == id {
			return c, nil
		}
	}
	return camera{}, fmt.Errorf("scenario: unknown camera %q", id)
}

// buildCamera compiles one camera declaration onto fleet.NewCamera (the
// pipeline executors reuse the same Stream). Rebuilt fresh for every task:
// extractors are stateful. Every camera shares env.Bundle — deciding only
// reads it, and each strategy owns its scratch.
func buildCamera(env *harness.Env, spec *Spec, cam camera) (fleet.Stream, error) {
	g := cam.group
	proc := video.PoissonArrivals
	switch g.Arrivals {
	case "geometric":
		proc = video.GeometricArrivals
	case "regular":
		proc = video.RegularArrivals
	}
	surgeAt, rate := 0, 1.0
	if g.Surge != nil {
		surgeAt, rate = g.Surge.AtFrame, g.Surge.Rate
	}
	after, driftAt := env.Opt.Detector, 0
	if g.Drift != nil {
		after = features.DetectorConfig{
			MissRate: g.Drift.MissRate,
			FPRate:   g.Drift.FPRate,
			Jitter:   g.Drift.Jitter,
			CueGain:  g.Drift.CueGain,
		}
		driftAt = g.Drift.AtFrame
	}
	fs, err := fleet.NewCamera(cam.id, cam.seed, env.Task.Dataset, env.Task.EventIdx,
		proc, surgeAt, rate, env.Opt.Detector, after, driftAt,
		spec.Frames, env.Bundle.EHCR(spec.Confidence, spec.Coverage), env.Cfg)
	if err != nil {
		return fleet.Stream{}, fmt.Errorf("scenario: %w", err)
	}
	return fs, nil
}

// EnvFor trains the spec's environment: the spec's task at quick or full
// sizes, keyed by the spec seed. Run uses exactly this env; tests train it
// once and reuse it across parallelism levels.
func EnvFor(spec *Spec) (*harness.Env, error) {
	task, err := harness.TaskByName(spec.Task)
	if err != nil {
		return nil, err
	}
	return harness.NewEnv(task, harness.Params{Quick: spec.Quick}.Options(), spec.Seed)
}

// Run trains the spec's environment and executes its stages with par
// workers per parallel group (par also becomes fleet.Config.Parallelism).
// The report is byte-identical at any par >= 1.
func Run(spec *Spec, par int) (*Report, error) {
	env, err := EnvFor(spec)
	if err != nil {
		return nil, err
	}
	return RunWithEnv(spec, env, par)
}

// RunWithEnv executes the spec's stages against an already-trained
// environment (tests reuse one env across parallelism levels; the env must
// come from the spec's task, options and seed for reports to be
// reproducible).
func RunWithEnv(spec *Spec, env *harness.Env, par int) (*Report, error) {
	if par < 1 {
		par = 1
	}
	cams := compileCameras(spec)
	rep := &Report{
		Name: spec.Name, Task: spec.Task, Seed: spec.Seed,
		Quick: spec.Quick, Frames: spec.Frames,
		Confidence: spec.Confidence, Coverage: spec.Coverage,
	}
	for _, c := range cams {
		co := CameraOut{ID: c.id, Scene: c.scene, Seed: c.seed, Arrivals: c.group.Arrivals}
		if co.Arrivals == "" {
			co.Arrivals = "poisson"
		}
		if c.group.Surge != nil {
			co.SurgeAt = c.group.Surge.AtFrame
		}
		if c.group.Drift != nil {
			co.DriftAt = c.group.Drift.AtFrame
		}
		rep.Cameras = append(rep.Cameras, co)
	}
	for si, st := range spec.Stages {
		tasks := st.Tasks()
		so := StageOut{Name: st.Name, Parallel: st.Run == nil, Tasks: make([]TaskOut, len(tasks))}
		workers := 1
		if so.Parallel {
			workers = par
		}
		runStage := func() error {
			return harness.ForEachCellN(len(tasks), workers, func(i int) error {
				out, err := runTask(spec, env, cams, tasks[i], par)
				if err == nil {
					err = out.accountingErr()
				}
				if err != nil {
					return fmt.Errorf("scenario: stage %s task %s: %w", st.Name, tasks[i].Name, err)
				}
				so.Tasks[i] = out
				return nil
			})
		}
		var err error
		if st.Timeout > 0 {
			// The timeout is a wall-clock guard on the stage, not a report
			// input: a stage that finishes in time yields exactly the bytes
			// it would without one, and an exceeded stage fails the whole
			// run positionally. The stage goroutine is abandoned on timeout
			// (executors have no cancellation points); its StageOut is never
			// read.
			done := make(chan error, 1)
			go func() { done <- runStage() }()
			timer := time.NewTimer(st.Timeout)
			select {
			case err = <-done:
				timer.Stop()
			case <-timer.C:
				return nil, fmt.Errorf("scenario: stages[%d] (%s): exceeded wall-clock timeout %s", si, st.Name, st.Timeout)
			}
		} else {
			err = runStage()
		}
		if err != nil {
			return nil, err
		}
		rep.Stages = append(rep.Stages, so)
	}
	return rep, nil
}

// accountingErr checks the identities every task outcome satisfies,
// whatever its workload, and names the first one broken: a fleet's relays
// are partitioned into served, deferred and shed per stream and in total, a
// capped fleet never overspends, a pipeline defers at most its relays, and
// realized recall never exceeds model recall.
func (o TaskOut) accountingErr() error {
	const tol = 1e-9
	if f := o.Fleet; f != nil {
		relays := 0
		for _, s := range f.Streams {
			relays += s.Relays
			if s.Served+s.Deferred+s.Shed != s.Relays {
				return fmt.Errorf("stream %s: served %d + deferred %d + shed %d != relays %d",
					s.ID, s.Served, s.Deferred, s.Shed, s.Relays)
			}
			if s.RealizedREC > s.REC+tol {
				return fmt.Errorf("stream %s: realized REC %v above model REC %v", s.ID, s.RealizedREC, s.REC)
			}
		}
		if f.Served+f.Deferred+f.Shed != relays {
			return fmt.Errorf("fleet totals: served %d + deferred %d + shed %d != relays %d",
				f.Served, f.Deferred, f.Shed, relays)
		}
		if f.BudgetUSD > 0 && f.TotalSpentUSD > f.BudgetUSD {
			return fmt.Errorf("spent $%v over the $%v cap", f.TotalSpentUSD, f.BudgetUSD)
		}
		if f.MeanRealizedREC > f.MeanREC+tol {
			return fmt.Errorf("mean realized REC %v above mean model REC %v", f.MeanRealizedREC, f.MeanREC)
		}
	}
	if p := o.Pipeline; p != nil {
		if p.Deferred > p.Relays {
			return fmt.Errorf("deferred %d > relays %d", p.Deferred, p.Relays)
		}
		if p.RealizedREC > p.REC+tol {
			return fmt.Errorf("realized REC %v above model REC %v", p.RealizedREC, p.REC)
		}
	}
	return nil
}

func runTask(spec *Spec, env *harness.Env, cams []camera, ts TaskSpec, par int) (TaskOut, error) {
	out := TaskOut{Name: ts.Name, Kind: ts.Kind}
	var err error
	switch ts.Kind {
	case KindFleet:
		out.Fleet, err = runFleetTask(spec, env, cams, ts, par)
	case KindPipeline:
		out.Pipeline, err = runPipelineTask(spec, env, cams, ts)
	case KindDrift:
		out.Drift, err = runDriftTask(spec, env, cams, ts)
	default:
		err = fmt.Errorf("unknown kind %q", ts.Kind)
	}
	return out, err
}

// fleetConfig compiles the spec's fleet policy (plus per-task overrides)
// onto fleet.DefaultConfig.
func fleetConfig(spec *Spec, ts TaskSpec, par int) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Parallelism = par
	f := spec.Fleet
	cfg.GlobalBudgetUSD = f.BudgetUSD
	cfg.StreamRatePerSec = f.StreamRatePerSec
	cfg.StreamBurst = f.StreamBurst
	if f.QueueMax != nil {
		cfg.QueueMax = *f.QueueMax
	}
	if f.BatchMax != nil {
		cfg.BatchMax = *f.BatchMax
	}
	if f.BatchFramesMax != nil {
		cfg.BatchFramesMax = *f.BatchFramesMax
	}
	if f.CallOverheadMS != nil {
		cfg.CallOverheadMS = *f.CallOverheadMS
	}
	if ts.BudgetUSD != nil {
		cfg.GlobalBudgetUSD = *ts.BudgetUSD
	}
	if ts.Cache != nil {
		cc := cicache.DefaultConfig()
		cc.Epsilon = ts.Cache.Epsilon
		cc.TTLFrames = ts.Cache.TTLFrames
		cfg.Cache = &cc
	}
	return cfg
}

func runFleetTask(spec *Spec, env *harness.Env, cams []camera, ts TaskSpec, par int) (*FleetOut, error) {
	streams := make([]fleet.Stream, len(cams))
	if err := harness.ForEachCellN(len(cams), par, func(i int) error {
		s, err := buildCamera(env, spec, cams[i])
		if err != nil {
			return err
		}
		streams[i] = s
		return nil
	}); err != nil {
		return nil, err
	}
	cfg := fleetConfig(spec, ts, par)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rep, err := fleet.Run(streams, cfg)
	if err != nil {
		return nil, err
	}
	cs := rep.CacheStats()
	out := &FleetOut{Report: *rep, CacheMisses: cs.Misses, CacheEvictions: cs.Evictions}
	out.MeanREC, out.MeanRealizedREC = meanRECs(rep.Streams)
	return out, nil
}

// meanRECs averages REC and RealizedREC over the streams whose REC is
// defined; with none, both means are fleet.UndefinedREC.
func meanRECs(streams []fleet.StreamReport) (rec, realized float64) {
	n := 0
	for _, s := range streams {
		if s.REC != fleet.UndefinedREC {
			rec += s.REC
			realized += s.RealizedREC
			n++
		}
	}
	if n == 0 {
		return fleet.UndefinedREC, fleet.UndefinedREC
	}
	return rec / float64(n), realized / float64(n)
}

// faultPlan compiles a task's fault block to a cloud.FaultPlan; a zero plan
// seed inherits the spec seed so the whole scenario stays one-knob
// reproducible.
func faultPlan(spec *Spec, fs *FaultSpec) cloud.FaultPlan {
	plan := cloud.FaultPlan{
		Seed:           fs.Seed,
		TransientRate:  fs.TransientRate,
		SpikeRate:      fs.SpikeRate,
		SpikeMS:        fs.SpikeMS,
		RateLimitEvery: fs.RateLimitEvery,
		RateLimitBurst: fs.RateLimitBurst,
		FailLatencyMS:  fs.FailLatencyMS,
	}
	if plan.Seed == 0 {
		plan.Seed = spec.Seed
	}
	for _, o := range fs.Outages {
		plan.Outages = append(plan.Outages, cloud.ReqWindow{Start: o.Start, End: o.End})
	}
	return plan
}

func runPipelineTask(spec *Spec, env *harness.Env, cams []camera, ts TaskSpec) (*PipelineOut, error) {
	cam, err := resolveCamera(cams, ts.Stream)
	if err != nil {
		return nil, err
	}
	fs, err := buildCamera(env, spec, cam)
	if err != nil {
		return nil, err
	}
	ci := cloud.NewService(fs.Source.Stream(), cloud.RekognitionPricing(), cloud.DefaultLatency())
	var backend cloud.Backend = ci
	costs := fs.Costs
	if ts.Faults != nil {
		plan := faultPlan(spec, ts.Faults)
		if err := plan.Validate(); err != nil {
			return nil, err
		}
		backend = cloud.Inject(ci, plan)
		rcfg := resilience.DefaultConfig(spec.Seed)
		costs.Resilience = &rcfg
		costs.Degrade = true
	}
	run, err := pipeline.RunScored(fs.Source, fs.Strategy, backend, fs.Cfg, costs, fs.Start, fs.End)
	if err != nil {
		return nil, err
	}
	return &PipelineOut{
		Stream:  cam.id,
		Faulted: ts.Faults != nil,
		REC:     run.REC, RealizedREC: run.RealizedREC,
		Relays:         run.Relays,
		Deferred:       run.CIDeferred,
		Retried:        run.CIRetried,
		FailedAttempts: run.CIFailedAttempts,
		BreakerTrips:   run.BreakerTrips,
		SpentUSD:       run.SpentUSD,
		CIMS:           run.CIMS,
	}, nil
}

// runDriftTask walks anchors over a drifting camera at stride Horizon/4,
// feeding every positive outcome's coverage bit (did the existence set keep
// the true event?) to the Hoeffding monitor, and records where the alarm
// fires. The pre-shift anchors both report clean coverage and fill the
// monitor's window, so the alarm position is meaningful, deterministic and
// golden-pinnable. It is a readout on the bare monitor, not an adaptation
// loop (drift.Loop): nothing relays, audits or recalibrates.
func runDriftTask(spec *Spec, env *harness.Env, cams []camera, ts TaskSpec) (*DriftOut, error) {
	cam, err := resolveCamera(cams, ts.Stream)
	if err != nil {
		return nil, err
	}
	if cam.group.Drift == nil {
		return nil, fmt.Errorf("camera %s has no drift schedule", cam.id)
	}
	fs, err := buildCamera(env, spec, cam)
	if err != nil {
		return nil, err
	}
	window := ts.MonitorWindow
	if window == 0 {
		window = defaultMonitorWindow
	}
	delta := ts.MonitorDelta
	if delta == 0 {
		delta = defaultMonitorDelta
	}
	mon, err := drift.NewMonitor(spec.Confidence, window, delta)
	if err != nil {
		return nil, err
	}
	// The drift walk is a model-coverage readout, not a marshalling run:
	// predictions come straight from the existence strategy (no CI, no
	// billing).
	ehc := env.Bundle.EHC(spec.Confidence)
	out := &DriftOut{
		Stream: cam.id, SwitchFrame: cam.group.Drift.AtFrame,
		MonitorWindow: window, MonitorDelta: delta, DetectFrame: -1,
	}
	stride := fs.Cfg.Horizon / 4
	if stride == 0 {
		stride = 1
	}
	var keptPre, posPre, keptPost, posPost int
	for t := fs.Cfg.Window; t+fs.Cfg.Horizon <= fs.End; t += stride {
		rec, err := dataset.BuildRecord(fs.Source, t, fs.Cfg)
		if err != nil {
			return nil, err
		}
		out.Anchors++
		if !rec.Label[0] {
			continue
		}
		kept := ehc.Predict(rec).Occur[0]
		out.Positives++
		if t+fs.Cfg.Horizon < out.SwitchFrame {
			posPre++
			if kept {
				keptPre++
			}
		} else if t >= out.SwitchFrame {
			posPost++
			if kept {
				keptPost++
			}
		}
		if mon.Observe(kept) && !out.AlarmRaised {
			out.AlarmRaised = true
			out.DetectFrame = t
			out.OutcomesToAlarm = out.Positives
		}
	}
	if posPre > 0 {
		out.CoveragePre = float64(keptPre) / float64(posPre)
	}
	if posPost > 0 {
		out.CoveragePost = float64(keptPost) / float64(posPost)
	}
	return out, nil
}
