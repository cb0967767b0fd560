package scenario

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/drift"
	"eventhit/internal/features"
	"eventhit/internal/fleet"
	"eventhit/internal/harness"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/pipeline"
	"eventhit/internal/resilience"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// The staged runner compiles a validated Spec onto the existing machinery:
// one trained environment (harness.NewEnv, keyed by the spec seed), camera
// streams generated per task from scene-keyed seeds, and one executor per
// task kind — fleet.Run for whole-fleet marshalling (optionally with the
// task's cache), pipeline.RunScored for single-camera runs (optionally
// against the task's fault plan through the resilient client), and a
// drift.Loop walk for drift tasks. Every outcome must pass the
// accounting identities of TaskOut.accountingErr before it enters the
// report; a task that breaks one fails the run.
//
// Determinism contract: stages run serially; a parallel task group runs its
// members on GOMAXPROCS workers with results slotted by index; every task
// rebuilds its cameras from the same seeds (extractors are stateful; the
// bundle is shared read-only). Each executor slots its own concurrent work
// by index too — fleet.Run's stream timelines by its two-phase design,
// pipeline's decide stage by anchor, the drift walk runs on one goroutine —
// so MarshalReport output is byte-identical at any GOMAXPROCS. The corpus
// golden tests hold the runner to exactly that.

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

// DriftOut is one camera walked under the adaptation loop serve ships.
// Relays are the decided relays, Audits the skips the loop bought the truth
// of, and Positives the labelled positives it observed; OutcomesToAlarm and
// OutcomesToRecalibration are Positives when the first episode opened and
// when the first recalibration was cut, and DetectFrame the anchor of the
// first episode (-1: never). Coverage is REC_c against ground truth: the
// deployed calibration's before the shift at SwitchFrame (0 for a steady
// camera, all of whose positives count as before) and after it, and the
// last cut calibration's after it (0: none was cut). BudgetUSD 0 is
// uncapped.
type DriftOut struct {
	Stream                  string  `json:"stream"`
	SwitchFrame             int     `json:"switch_frame"`
	AuditRate               float64 `json:"audit_rate"`
	BudgetUSD               float64 `json:"budget_usd"`
	Anchors                 int     `json:"anchors"`
	Relays                  int     `json:"relays"`
	Audits                  int64   `json:"audits"`
	Positives               int64   `json:"positives"`
	Episodes                int64   `json:"episodes"`
	Recalibrations          int64   `json:"recalibrations"`
	OutcomesToAlarm         int64   `json:"outcomes_to_alarm"`
	OutcomesToRecalibration int64   `json:"outcomes_to_recalibration"`
	DetectFrame             int     `json:"detect_frame"`
	CoveragePre             float64 `json:"coverage_pre"`
	CoveragePost            float64 `json:"coverage_post"`
	CoverageRestored        float64 `json:"coverage_restored"`
	SpentUSD                float64 `json:"spent_usd"`
	BudgetExhausted         bool    `json:"budget_exhausted"`
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
		spec.Frames, env.Bundle.EHCR(deployedConfidence, deployedCoverage), env.Cfg)
	if err != nil {
		return fleet.Stream{}, fmt.Errorf("scenario: %w", err)
	}
	return fs, nil
}

// EnvFor trains the spec's environment: the spec's task at quick or full
// sizes, keyed by the spec seed. Run uses exactly this env; tests train it
// once and reuse it across GOMAXPROCS settings.
func EnvFor(spec *Spec) (*harness.Env, error) {
	task, err := harness.TaskByName(spec.Task)
	if err != nil {
		return nil, err
	}
	return harness.NewEnv(task, harness.Params{Quick: spec.Quick}.Options(), spec.Seed)
}

// Run trains the spec's environment and executes its stages. The report
// is byte-identical at any GOMAXPROCS.
func Run(spec *Spec) (*Report, error) {
	env, err := EnvFor(spec)
	if err != nil {
		return nil, err
	}
	return RunWithEnv(spec, env)
}

// RunWithEnv executes the spec's stages against an already-trained
// environment (tests reuse one env across GOMAXPROCS settings; the env must
// come from the spec's task, options and seed for reports to be
// reproducible).
func RunWithEnv(spec *Spec, env *harness.Env) (*Report, error) {
	cams := compileCameras(spec)
	rep := &Report{
		Name: spec.Name, Task: spec.Task, Seed: spec.Seed,
		Quick: spec.Quick, Frames: spec.Frames,
		Confidence: deployedConfidence, Coverage: deployedCoverage,
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
	for _, st := range spec.Stages {
		tasks := st.Tasks()
		so := StageOut{Name: st.Name, Parallel: st.Run == nil, Tasks: make([]TaskOut, len(tasks))}
		if err := mathx.ForEach(len(tasks), runtime.GOMAXPROCS(0), func(i int) error {
			out, err := runTask(spec, env, cams, tasks[i])
			if err == nil {
				err = out.accountingErr()
			}
			if err != nil {
				return fmt.Errorf("scenario: stage %s task %s: %w", st.Name, tasks[i].Name, err)
			}
			so.Tasks[i] = out
			return nil
		}); err != nil {
			return nil, err
		}
		rep.Stages = append(rep.Stages, so)
	}
	return rep, nil
}

// accountingErr checks the identities every task outcome satisfies,
// whatever its workload, and names the first one broken: a fleet's relays
// are partitioned into served, deferred and shed per stream and in total, a
// capped fleet or drift walk never overspends, a pipeline defers at most its
// relays, realized recall never exceeds model recall, a drift walk cuts at
// most one recalibration per episode and sends at most one relay or audit
// per anchor.
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
	if d := o.Drift; d != nil {
		if d.Recalibrations > d.Episodes {
			return fmt.Errorf("recalibrations %d > episodes %d", d.Recalibrations, d.Episodes)
		}
		if d.BudgetUSD > 0 && d.SpentUSD > d.BudgetUSD {
			return fmt.Errorf("spent $%v over the $%v cap", d.SpentUSD, d.BudgetUSD)
		}
		if int64(d.Relays)+d.Audits > int64(d.Anchors) {
			return fmt.Errorf("relays %d + audits %d > anchors %d", d.Relays, d.Audits, d.Anchors)
		}
	}
	return nil
}

func runTask(spec *Spec, env *harness.Env, cams []camera, ts TaskSpec) (TaskOut, error) {
	out := TaskOut{Name: ts.Name, Kind: ts.Kind}
	var err error
	switch ts.Kind {
	case KindFleet:
		out.Fleet, err = runFleetTask(spec, env, cams, ts)
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
func fleetConfig(spec *Spec, ts TaskSpec) fleet.Config {
	cfg := fleet.DefaultConfig()
	f := spec.Fleet
	cfg.GlobalBudgetUSD = f.BudgetUSD
	cfg.StreamRatePerSec = f.StreamRatePerSec
	cfg.StreamBurst = f.StreamBurst
	if f.QueueMax != nil {
		cfg.QueueMax = *f.QueueMax
	}
	if ts.BudgetUSD != nil {
		cfg.GlobalBudgetUSD = *ts.BudgetUSD
	}
	if ts.Cache != nil {
		cc := cicache.DefaultConfig()
		cc.TTLFrames = ts.Cache.TTLFrames
		cfg.Cache = &cc
	}
	return cfg
}

func runFleetTask(spec *Spec, env *harness.Env, cams []camera, ts TaskSpec) (*FleetOut, error) {
	streams := make([]fleet.Stream, len(cams))
	if err := mathx.ForEach(len(cams), runtime.GOMAXPROCS(0), func(i int) error {
		s, err := buildCamera(env, spec, cams[i])
		if err != nil {
			return err
		}
		streams[i] = s
		return nil
	}); err != nil {
		return nil, err
	}
	cfg := fleetConfig(spec, ts)
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
		Seed:          fs.Seed,
		TransientRate: fs.TransientRate,
		SpikeRate:     fs.SpikeRate,
		SpikeMS:       fs.SpikeMS,
		FailLatencyMS: fs.FailLatencyMS,
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

// runDriftTask walks one camera under drift.Loop at drift.DefaultConfig and
// the task's audit rate, the way a serve session adapts: every anchor at
// stride Horizon/4 is decided with EHCR, a kept decision relays its range
// through pipeline.Relay to a CI over the camera's stream, a skip relays the
// whole horizon when the loop audits it, the CI's verdict labels the
// outcome, and every calibration the loop cuts is swapped in. The clean
// anchors before a shift fill the monitor window, so the alarm position is
// deterministic and golden-pinnable. A task budget is charged before every
// relay; running out ends the walk.
func runDriftTask(spec *Spec, env *harness.Env, cams []camera, ts TaskSpec) (*DriftOut, error) {
	cam, err := resolveCamera(cams, ts.Stream)
	if err != nil {
		return nil, err
	}
	fs, err := buildCamera(env, spec, cam)
	if err != nil {
		return nil, err
	}
	cfg := drift.DefaultConfig()
	if ts.AuditRate != nil {
		cfg.AuditRate = *ts.AuditRate
	}
	loop, err := drift.NewLoop(cfg, deployedConfidence, 1)
	if err != nil {
		return nil, err
	}
	// A fault-free CI never needs the client's retries.
	ci := cloud.NewService(fs.Source.Stream(), cloud.RekognitionPricing(), cloud.DefaultLatency())
	relay := pipeline.NewRelay(ci, nil, 0, resilience.DefaultConfig(spec.Seed), nil)
	out := &DriftOut{
		Stream: cam.id, AuditRate: cfg.AuditRate,
		OutcomesToAlarm: -1, OutcomesToRecalibration: -1, DetectFrame: -1,
	}
	var budget *cloud.Budget
	if ts.BudgetUSD != nil && *ts.BudgetUSD > 0 {
		out.BudgetUSD = *ts.BudgetUSD
		if budget, err = cloud.NewBudget(out.BudgetUSD, cloud.RekognitionPricing().PerFrameUSD); err != nil {
			return nil, err
		}
	}
	shift := math.MaxInt
	if d := cam.group.Drift; d != nil {
		out.SwitchFrame, shift = d.AtFrame, d.AtFrame
	}
	var (
		bundle       = env.Bundle
		rule         = strategy.EHCRRule(deployedConfidence, deployedCoverage)
		events       = fs.Source.Events()
		horizon      = fs.Cfg.Horizon
		sc           strategy.Scratch
		pred         metrics.Prediction
		reqs         []pipeline.RelayRequest
		known, truth = make([]bool, 1), make([]bool, 1)
		pre, post    []dataset.Record // the positives before and after the shift
	)
walk:
	for t := fs.Cfg.Window; t+horizon <= fs.End; t += max(horizon/4, 1) {
		rec, err := dataset.BuildRecord(fs.Source, t, fs.Cfg)
		if err != nil {
			return nil, err
		}
		out.Anchors++
		// Ground truth scores coverage post hoc; the loop sees only the
		// CI's verdicts.
		if rec.Label[0] && t+horizon < shift {
			pre = append(pre, rec)
		} else if rec.Label[0] && t >= shift {
			post = append(post, rec)
		}
		scores := bundle.Decide(rec, rule, &sc, &pred)
		reqs = relay.AppendRequests(reqs[:0], rec, events, &pred, 0, 0)
		if len(reqs) == 0 && loop.Audit() {
			hz := video.Interval{Start: rec.Frame + 1, End: rec.Frame + horizon}
			reqs = append(reqs, pipeline.RelayRequest{EventType: events[0], Win: hz})
		}
		known[0], truth[0] = false, false
		for _, rq := range reqs {
			if budget != nil {
				if err := budget.Charge(rq.Win.Len()); errors.Is(err, cloud.ErrBudgetExhausted) {
					out.BudgetExhausted = true
					break walk
				} else if err != nil {
					return nil, err
				}
			}
			o, err := relay.Serve(rq)
			if err != nil {
				return nil, err
			}
			known[0], truth[0] = !o.Deferred, o.Detections > 0
			if pred.Occur[0] {
				out.Relays++
			}
		}
		if cls := loop.Observe(scores, pred.Occur, known, truth); cls != nil {
			if bundle, err = bundle.WithClassifier(cls); err != nil {
				return nil, err
			}
			if out.OutcomesToRecalibration < 0 {
				out.OutcomesToRecalibration = loop.Stats().Observations
			}
		}
		if st := loop.Stats(); out.DetectFrame < 0 && st.Episodes > 0 {
			out.DetectFrame, out.OutcomesToAlarm = t, st.Observations
		}
	}
	st := loop.Stats()
	out.Audits, out.Positives = st.Audits, st.Observations
	out.Episodes, out.Recalibrations = st.Episodes, st.Recalibrations
	stale := env.Bundle.EHC(deployedConfidence)
	out.CoveragePre, out.CoveragePost = coverage(stale, pre), coverage(stale, post)
	if st.Recalibrations > 0 {
		out.CoverageRestored = coverage(bundle.EHC(deployedConfidence), post)
	}
	out.SpentUSD = ci.Usage().SpentUSD
	return out, nil
}

// coverage is REC_c of s over single-event positives: the share it keeps,
// 0 when there is none.
func coverage(s strategy.Strategy, positives []dataset.Record) float64 {
	if len(positives) == 0 {
		return 0
	}
	kept := 0
	for _, rec := range positives {
		if s.Predict(rec).Occur[0] {
			kept++
		}
	}
	return float64(kept) / float64(len(positives))
}
