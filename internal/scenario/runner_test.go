package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"eventhit/internal/cloud"
	"eventhit/internal/drift"
	"eventhit/internal/fleet"
)

// -update-schema rewrites the report schema golden from the shape test's
// hand-built report (corpus goldens regenerate via the binary instead:
// eventhitscenario -corpus -regen).
var updateSchema = flag.Bool("update-schema", false, "rewrite testdata/report_schema.golden.json")

// TestCorpusGoldens is the regression gate: every committed scenario runs at
// GOMAXPROCS 1 and 4 against one shared trained environment, must produce
// byte-identical reports at both, and must match the committed golden
// exactly. Skipped under -short (it trains one quick env per scenario).
func TestCorpusGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole scenario corpus")
	}
	entries, err := Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			env, err := EnvFor(e.Spec)
			if err != nil {
				t.Fatalf("EnvFor: %v", err)
			}
			runtime.GOMAXPROCS(1)
			serial, err := RunWithEnv(e.Spec, env)
			if err != nil {
				t.Fatalf("RunWithEnv(GOMAXPROCS=1): %v", err)
			}
			got, err := MarshalReport(serial)
			if err != nil {
				t.Fatalf("MarshalReport: %v", err)
			}
			runtime.GOMAXPROCS(4)
			par, err := RunWithEnv(e.Spec, env)
			if err != nil {
				t.Fatalf("RunWithEnv(GOMAXPROCS=4): %v", err)
			}
			gotPar, err := MarshalReport(par)
			if err != nil {
				t.Fatalf("MarshalReport: %v", err)
			}
			if !bytes.Equal(got, gotPar) {
				t.Fatalf("report differs between GOMAXPROCS 1 and 4:\n--- 1\n%s\n--- 4\n%s", got, gotPar)
			}
			want, err := os.ReadFile(filepath.Join("testdata", e.Name+".golden.json"))
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("golden drifted for %s; if the change is intended, regenerate with:\n  go run ./cmd/eventhitscenario -corpus -regen\ngot:\n%s\nwant:\n%s",
					e.Name, got, want)
			}
			// The binary ships the same goldens embedded; a regen that is
			// not rebuilt into cmd/eventhitscenario would silently gate on
			// stale bytes.
			embedded, err := Golden(e.Name)
			if err != nil {
				t.Fatalf("embedded golden: %v", err)
			}
			if !bytes.Equal(embedded, want) {
				t.Fatalf("embedded golden for %s differs from testdata file (rebuild after -regen?)", e.Name)
			}
		})
	}
}

// TestDriftShiftDetection is the end-to-end drift walk: the camera-drift
// scenario induces a detector shift at frame 20000 mid-run, and the
// adaptation loop auditing every skip must alarm after the shift,
// identically at any GOMAXPROCS.
func TestDriftShiftDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a quick env")
	}
	spec := corpusSpec(t, "camera-drift")
	// Run only the drift stage: same spec, trimmed program.
	trimmed := *spec
	trimmed.Stages = nil
	for _, st := range spec.Stages {
		if st.Tasks()[0].Kind == KindDrift {
			trimmed.Stages = append(trimmed.Stages, st)
		}
	}
	if len(trimmed.Stages) != 1 {
		t.Fatalf("camera-drift should declare exactly one drift stage, got %d", len(trimmed.Stages))
	}
	env, err := EnvFor(&trimmed)
	if err != nil {
		t.Fatalf("EnvFor: %v", err)
	}
	var outs [][]TaskOut
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 3} {
		runtime.GOMAXPROCS(p)
		rep, err := RunWithEnv(&trimmed, env)
		if err != nil {
			t.Fatalf("RunWithEnv(GOMAXPROCS=%d): %v", p, err)
		}
		outs = append(outs, rep.Stages[0].Tasks)
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Fatalf("drift outcomes differ across GOMAXPROCS:\n1: %+v\n3: %+v", outs[0], outs[1])
	}
	d := auditEverySkip(t, outs[0], trimmed.Stages[0].Tasks())
	if d.Episodes == 0 {
		t.Fatalf("loop never alarmed on a 90%%-miss detector shift: %+v", d)
	}
	if d.SwitchFrame != 20000 {
		t.Errorf("SwitchFrame = %d, want 20000 (from the spec's drift schedule)", d.SwitchFrame)
	}
	if d.DetectFrame < d.SwitchFrame {
		t.Errorf("DetectFrame %d precedes the shift at %d", d.DetectFrame, d.SwitchFrame)
	}
	if d.OutcomesToAlarm <= 0 || d.OutcomesToAlarm > d.Positives {
		t.Errorf("OutcomesToAlarm = %d, want in (0, %d]", d.OutcomesToAlarm, d.Positives)
	}
	if d.CoveragePost >= d.CoveragePre {
		t.Errorf("post-shift coverage %v did not drop below pre-shift %v", d.CoveragePost, d.CoveragePre)
	}
}

// corpusSpec returns the committed spec of one corpus scenario.
func corpusSpec(t *testing.T, name string) *Spec {
	t.Helper()
	entries, err := Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	for _, e := range entries {
		if e.Name == name {
			return e.Spec
		}
	}
	t.Fatalf("%s scenario missing from corpus", name)
	return nil
}

// auditEverySkip returns the outcome of the one drift task among outs that
// audits every skip (audit_rate: 1).
func auditEverySkip(t *testing.T, outs []TaskOut, decl []TaskSpec) *DriftOut {
	t.Helper()
	var d *DriftOut
	for i, ts := range decl {
		if ts.Kind == KindDrift && ts.AuditRate != nil && *ts.AuditRate == 1 {
			if d != nil {
				t.Fatal("more than one drift task audits every skip")
			}
			d = outs[i].Drift
		}
	}
	if d == nil {
		t.Fatal("no drift outcome audits every skip")
	}
	return d
}

// TestDriftBudgetCutsOff: a drift task whose budget is far below what the
// walk would spend stops cleanly when the budget runs out, within the cap.
func TestDriftBudgetCutsOff(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a quick env")
	}
	spec, err := Parse(specSrc(`"name": "x", "task": "TA10", "quick": true, "frames": 20000`, streamsOK,
		stagesRun(`"name": "t"`, `"kind": "drift"`, `"budget_usd": 0.5`)))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rep, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d := rep.Stages[0].Tasks[0].Drift
	if !d.BudgetExhausted {
		t.Fatalf("tiny budget did not exhaust: %+v", d)
	}
	if d.SpentUSD > 0.5 {
		t.Fatalf("spend %v exceeded the cap", d.SpentUSD)
	}
}

// loadGoldenReports decodes every committed golden from disk (not the
// embedded copies), keyed by scenario name. The invariants below read these
// instead of re-running anything: the goldens ARE the record of what the
// pinned runs did, so structural claims about them hold in -short mode too.
func loadGoldenReports(t *testing.T) map[string]*Report {
	t.Helper()
	entries, err := Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	out := map[string]*Report{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join("testdata", e.Name+".golden.json"))
		if err != nil {
			t.Fatalf("read golden: %v", err)
		}
		var rep Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("golden %s does not decode as a Report: %v", e.Name, err)
		}
		out[e.Name] = &rep
	}
	return out
}

// fleetOuts collects a report's fleet-task outcomes keyed by
// "<stage>/<task>".
func fleetOuts(rep *Report) map[string]*FleetOut {
	out := map[string]*FleetOut{}
	for _, st := range rep.Stages {
		for _, task := range st.Tasks {
			if task.Fleet != nil {
				out[st.Name+"/"+task.Name] = task.Fleet
			}
		}
	}
	return out
}

func pipelineOuts(rep *Report) map[string]*PipelineOut {
	out := map[string]*PipelineOut{}
	for _, st := range rep.Stages {
		for _, task := range st.Tasks {
			if task.Pipeline != nil {
				out[st.Name+"/"+task.Name] = task.Pipeline
			}
		}
	}
	return out
}

// stageOuts returns a report's task outcomes of one stage, in declared
// order, with the spec's task declarations beside them.
func stageOuts(t *testing.T, rep *Report, spec *Spec, stage string) ([]TaskOut, []TaskSpec) {
	t.Helper()
	var outs []TaskOut
	var decl []TaskSpec
	for _, st := range rep.Stages {
		if st.Name == stage {
			outs = st.Tasks
		}
	}
	for _, st := range spec.Stages {
		if st.Name == stage {
			decl = st.Tasks()
		}
	}
	if len(outs) < 2 || len(outs) != len(decl) {
		t.Fatalf("%s stage %s: %d outcomes for %d declared tasks, want a group of >= 2", rep.Name, stage, len(outs), len(decl))
	}
	return outs, decl
}

// exactCacheErr: a cached run over the same workload as base
// hits, never lies, leaves realized recall untouched, and bills exactly the
// baseline's frames minus the ones it saved.
func exactCacheErr(base, cached *FleetOut) error {
	switch {
	case base.CacheHits != 0:
		return fmt.Errorf("uncached baseline recorded %d cache hits", base.CacheHits)
	case cached.CacheHits == 0:
		return fmt.Errorf("cached run over scene twins recorded no hits")
	case cached.CacheBadHits != 0:
		return fmt.Errorf("%d bad hits; exact matching must never lie", cached.CacheBadHits)
	case cached.MeanRealizedREC != base.MeanRealizedREC:
		return fmt.Errorf("realized recall moved: %v vs baseline %v", cached.MeanRealizedREC, base.MeanRealizedREC)
	case cached.TotalFrames+cached.CacheSavedFrames != base.TotalFrames:
		return fmt.Errorf("savings unaccounted: %d billed + %d saved != baseline %d billed",
			cached.TotalFrames, cached.CacheSavedFrames, base.TotalFrames)
	}
	return nil
}

// TestCorpusInvariants holds every committed golden to the runner's
// accounting identities (without re-running anything, so in -short mode
// too) and checks the claims each regime exists to pin, which compare the
// tasks of one scenario: shedding under burst, the exact-match cache, the
// price of CI faults, the budget cliff, the drift alarm, and the recall a
// fleet buys with its cap.
func TestCorpusInvariants(t *testing.T) {
	reports := loadGoldenReports(t)
	entries, _ := Corpus()
	specs := map[string]*Spec{}
	for _, e := range entries {
		specs[e.Name] = e.Spec
	}
	for name, rep := range reports {
		for _, st := range rep.Stages {
			for _, task := range st.Tasks {
				if err := task.accountingErr(); err != nil {
					t.Errorf("%s %s/%s: %v", name, st.Name, task.Name, err)
				}
			}
		}
	}

	t.Run("sports-burst-sheds", func(t *testing.T) {
		f := fleetOuts(reports["sports-burst"])["marshal/fleet"]
		if f == nil {
			t.Fatal("sports-burst golden lacks marshal/fleet outcome")
		}
		if f.Shed == 0 {
			t.Error("burst scenario shed nothing; the small queue regime is gone")
		}
	})

	t.Run("cache-epsilon-zero", func(t *testing.T) {
		outs := fleetOuts(reports["retail-flash-crowd"])
		base, cached := outs["compare/baseline"], outs["compare/cached"]
		if base == nil || cached == nil {
			t.Fatal("retail-flash-crowd golden lacks compare/baseline or compare/cached")
		}
		if err := exactCacheErr(base, cached); err != nil {
			t.Errorf("exact-match cache: %v", err)
		}
	})

	t.Run("cache-sweep", func(t *testing.T) {
		outs, decl := stageOuts(t, reports["cache-sweep"], specs["cache-sweep"], "sweep")
		base := outs[0].Fleet
		if decl[0].Cache != nil || base == nil {
			t.Fatal("cache-sweep's first task must be the uncached fleet baseline")
		}
		for i, out := range outs[1:] {
			c, f := decl[i+1].Cache, out.Fleet
			if c == nil || f == nil {
				t.Fatalf("point %s is not a cached fleet task", out.Name)
			}
			if err := exactCacheErr(base, f); err != nil {
				t.Errorf("point %s: %v", out.Name, err)
			}
		}
	})

	t.Run("ci-fault-sweep", func(t *testing.T) {
		rows, decl := stageOuts(t, reports["ci-fault-sweep"], specs["ci-fault-sweep"], "sweep")
		clean := rows[0].Pipeline
		if clean == nil || clean.Faulted || clean.FailedAttempts != 0 || clean.Deferred != 0 {
			t.Fatalf("clean row is not a clean pipeline run: %+v", clean)
		}
		for i, row := range rows[1:] {
			p, prev := row.Pipeline, rows[i].Pipeline
			if p == nil || !p.Faulted || decl[i+1].Faults == nil {
				t.Fatalf("row %s is not a faulted pipeline run", row.Name)
			}
			if i > 0 && decl[i+1].Faults.TransientRate <= decl[i].Faults.TransientRate {
				t.Fatalf("row %s: fault rates are not declared in ascending order", row.Name)
			}
			if p.Deferred == 0 {
				t.Errorf("row %s deferred nothing; degradation never engaged", row.Name)
			}
			if p.RealizedREC > prev.RealizedREC {
				t.Errorf("row %s: realized REC rises from %v to %v with the fault rate", row.Name, prev.RealizedREC, p.RealizedREC)
			}
		}
	})

	t.Run("fleet-cap-sweep", func(t *testing.T) {
		caps, _ := stageOuts(t, reports["fleet-cap-sweep"], specs["fleet-cap-sweep"], "caps")
		for i, c := range caps {
			f := c.Fleet
			if f == nil || f.BudgetUSD <= 0 || (i > 0 && f.BudgetUSD <= caps[i-1].Fleet.BudgetUSD) {
				t.Fatalf("task %s is not a fleet under an ascending cap", c.Name)
			}
			if i > 0 && f.MeanRealizedREC < caps[i-1].Fleet.MeanRealizedREC {
				t.Errorf("cap $%v: realized REC falls from %v to %v as the cap grows",
					f.BudgetUSD, caps[i-1].Fleet.MeanRealizedREC, f.MeanRealizedREC)
			}
		}
		if ample := caps[len(caps)-1].Fleet; ample.MeanRealizedREC != ample.MeanREC {
			t.Errorf("ample cap $%v: realized REC %v short of model REC %v", ample.BudgetUSD, ample.MeanRealizedREC, ample.MeanREC)
		}
		if cheap := caps[0].Fleet; cheap.Deferred == 0 {
			t.Errorf("cheapest cap $%v deferred nothing", cheap.BudgetUSD)
		}
	})

	t.Run("brownout-degradation", func(t *testing.T) {
		outs := pipelineOuts(reports["brownout"])
		clean, degraded := outs["compare/clean"], outs["compare/degraded"]
		if clean == nil || degraded == nil {
			t.Fatal("brownout golden lacks compare/clean or compare/degraded")
		}
		if clean.Faulted || !degraded.Faulted {
			t.Errorf("fault flags wrong: clean=%v degraded=%v", clean.Faulted, degraded.Faulted)
		}
		if clean.Deferred != 0 || clean.FailedAttempts != 0 {
			t.Errorf("clean run recorded failures: deferred %d, failed %d", clean.Deferred, clean.FailedAttempts)
		}
		if degraded.FailedAttempts == 0 {
			t.Error("degraded run saw no failed CI attempts under a 25% transient rate")
		}
		if degraded.Deferred == 0 {
			t.Error("degraded run deferred nothing; the brownout regime is gone")
		}
		if degraded.RealizedREC >= clean.RealizedREC {
			t.Errorf("brownout did not cost recall: degraded %v vs clean %v",
				degraded.RealizedREC, clean.RealizedREC)
		}
	})

	t.Run("budget-cliff", func(t *testing.T) {
		outs := fleetOuts(reports["budget-cliff"])
		ample, cliff := outs["compare/ample"], outs["compare/cliff"]
		if ample == nil || cliff == nil {
			t.Fatal("budget-cliff golden lacks compare/ample or compare/cliff")
		}
		if ample.Deferred != 0 || ample.Shed != 0 {
			t.Errorf("ample budget still deferred %d / shed %d", ample.Deferred, ample.Shed)
		}
		if cliff.Deferred == 0 {
			t.Error("cliff budget deferred nothing; the cliff regime is gone")
		}
		if cliff.TotalSpentUSD > cliff.BudgetUSD {
			t.Errorf("cliff overshot: spent %v > cap %v", cliff.TotalSpentUSD, cliff.BudgetUSD)
		}
	})

	t.Run("camera-drift-alarm", func(t *testing.T) {
		outs, decl := stageOuts(t, reports["camera-drift"], specs["camera-drift"], "watch")
		d := auditEverySkip(t, outs, decl)
		if d.Episodes == 0 || d.DetectFrame < d.SwitchFrame {
			t.Errorf("pinned alarm wrong: episodes=%d detect=%d switch=%d", d.Episodes, d.DetectFrame, d.SwitchFrame)
		}
		for i, out := range outs {
			if d := out.Drift; cameraDrifts(specs["camera-drift"], decl[i].Stream) && d.CoveragePost >= d.CoveragePre {
				t.Errorf("%s: pinned coverage did not drop: pre %v post %v", out.Name, d.CoveragePre, d.CoveragePost)
			}
		}
	})

	// The drifting camera under the shipped audit rate and auditing every
	// skip: only the second sees the collapse through the CI's labels, and
	// its recalibration restores coverage above the stale calibration's.
	t.Run("camera-drift-adapts", func(t *testing.T) {
		outs, decl := stageOuts(t, reports["camera-drift"], specs["camera-drift"], "watch")
		if decl[0].AuditRate != nil || outs[0].Drift.AuditRate != drift.DefaultConfig().AuditRate {
			t.Errorf("first arm %+v, want the shipped audit rate", outs[0].Drift)
		}
		d := auditEverySkip(t, outs, decl)
		if d.CoveragePre < 0.7 {
			t.Errorf("pre-shift coverage %.3f suspiciously low", d.CoveragePre)
		}
		if d.Episodes == 0 || d.OutcomesToAlarm < 0 {
			t.Error("auditing every skip, the loop failed to alarm on the coverage collapse")
		}
		if d.Recalibrations == 0 || d.OutcomesToRecalibration < d.OutcomesToAlarm {
			t.Errorf("auditing every skip, no recalibration after the alarm: %+v", d)
		}
		if d.CoverageRestored <= d.CoveragePost {
			t.Errorf("recalibration did not improve coverage: %.3f vs %.3f", d.CoverageRestored, d.CoveragePost)
		}
	})

	// The steady camera under the loop and an ample hard budget: continuous
	// operation buys coverage for less than brute force, and neither runs out
	// nor alarms.
	t.Run("camera-drift-operate", func(t *testing.T) {
		spec := specs["camera-drift"]
		outs, decl := stageOuts(t, reports["camera-drift"], spec, "watch")
		var d *DriftOut
		for i, out := range outs {
			if out.Drift != nil && !cameraDrifts(spec, decl[i].Stream) {
				d = out.Drift
			}
		}
		if d == nil || d.BudgetUSD <= 0 {
			t.Fatal("camera-drift's watch stage lacks a steady camera under a budget")
		}
		bf := float64(spec.Frames) * cloud.RekognitionPricing().PerFrameUSD
		if d.SpentUSD <= 0 || d.SpentUSD >= bf {
			t.Errorf("spend %v not inside (0, BF=%v)", d.SpentUSD, bf)
		}
		if d.BudgetExhausted {
			t.Error("ample budget should not exhaust")
		}
		if d.CoveragePre < 0.5 {
			t.Errorf("coverage %.3f too low", d.CoveragePre)
		}
		if d.Episodes != 0 {
			t.Errorf("steady camera raised %d alarm episodes", d.Episodes)
		}
	})

	// One model marshals fresh cameras of its dataset about as well as its
	// own stream's held-out region; far worse would mean it memorized its
	// training stream.
	t.Run("camera-transfer", func(t *testing.T) {
		spec := specs["camera-transfer"]
		env, err := EnvFor(spec)
		if err != nil {
			t.Fatalf("EnvFor: %v", err)
		}
		home, err := env.Eval(env.Bundle.EHCR(deployedConfidence, deployedCoverage), deployedConfidence)
		if err != nil {
			t.Fatal(err)
		}
		outs, _ := stageOuts(t, reports["camera-transfer"], spec, "transfer")
		for _, out := range outs {
			if p := out.Pipeline; p == nil || p.REC < home.REC-0.25 {
				t.Errorf("foreign camera %s: %+v, want REC >= home %.3f - 0.25", out.Name, p, home.REC)
			}
		}
	})
}

// cameraDrifts reports whether the camera's group has a drift schedule.
func cameraDrifts(spec *Spec, id string) bool {
	for _, c := range compileCameras(spec) {
		if c.id == id {
			return c.group.Drift != nil
		}
	}
	return false
}

// TestRunnerRejectsBrokenAccounting: the runner's per-task check passes
// sound fleet, pipeline and drift outcomes (an uncapped one may spend
// anything)
// and refuses each hand-built outcome that breaks exactly one identity,
// naming it.
func TestRunnerRejectsBrokenAccounting(t *testing.T) {
	fleetOut := func(edit func(*FleetOut)) TaskOut {
		f := &FleetOut{MeanREC: 0.9, MeanRealizedREC: 0.45}
		f.Streams = []fleet.StreamReport{{ID: "cam-00", Relays: 4, Served: 2, Deferred: 1, Shed: 1, REC: 0.9, RealizedREC: 0.45}}
		f.Served, f.Deferred, f.Shed = 2, 1, 1
		f.BudgetUSD, f.TotalSpentUSD = 1, 0.5
		edit(f)
		return TaskOut{Name: "t", Kind: KindFleet, Fleet: f}
	}
	pipelineOut := func(edit func(*PipelineOut)) TaskOut {
		p := &PipelineOut{Relays: 4, Deferred: 1, REC: 0.9, RealizedREC: 0.6}
		edit(p)
		return TaskOut{Name: "t", Kind: KindPipeline, Pipeline: p}
	}
	driftOut := func(edit func(*DriftOut)) TaskOut {
		d := &DriftOut{Anchors: 10, Relays: 3, Audits: 2, Episodes: 1, Recalibrations: 1, BudgetUSD: 1, SpentUSD: 0.5}
		edit(d)
		return TaskOut{Name: "t", Kind: KindDrift, Drift: d}
	}
	for _, ok := range []TaskOut{
		fleetOut(func(*FleetOut) {}),
		fleetOut(func(f *FleetOut) { f.BudgetUSD, f.TotalSpentUSD = 0, 99 }),
		pipelineOut(func(*PipelineOut) {}),
		driftOut(func(*DriftOut) {}),
		driftOut(func(d *DriftOut) { d.BudgetUSD, d.SpentUSD = 0, 99 }),
	} {
		if err := ok.accountingErr(); err != nil {
			t.Errorf("sound %s outcome refused: %v", ok.Kind, err)
		}
	}
	for _, tc := range []struct {
		name string
		out  TaskOut
		want string
	}{
		{"stream-partition", fleetOut(func(f *FleetOut) { f.Streams[0].Shed = 0 }),
			"stream cam-00: served 2 + deferred 1 + shed 0 != relays 4"},
		{"fleet-partition", fleetOut(func(f *FleetOut) { f.Shed = 0 }),
			"fleet totals: served 2 + deferred 1 + shed 0 != relays 4"},
		{"over-cap", fleetOut(func(f *FleetOut) { f.TotalSpentUSD = 1.5 }),
			"spent $1.5 over the $1 cap"},
		{"stream-recall", fleetOut(func(f *FleetOut) { f.Streams[0].RealizedREC = 0.95 }),
			"stream cam-00: realized REC 0.95 above model REC 0.9"},
		{"mean-recall", fleetOut(func(f *FleetOut) { f.MeanRealizedREC = 0.95 }),
			"mean realized REC 0.95 above mean model REC 0.9"},
		{"pipeline-deferred", pipelineOut(func(p *PipelineOut) { p.Deferred = 5 }),
			"deferred 5 > relays 4"},
		{"pipeline-recall", pipelineOut(func(p *PipelineOut) { p.RealizedREC = 0.95 }),
			"realized REC 0.95 above model REC 0.9"},
		{"drift-recalibrations", driftOut(func(d *DriftOut) { d.Recalibrations = 2 }),
			"recalibrations 2 > episodes 1"},
		{"drift-over-cap", driftOut(func(d *DriftOut) { d.SpentUSD = 1.5 }),
			"spent $1.5 over the $1 cap"},
		{"drift-anchors", driftOut(func(d *DriftOut) { d.Audits = 8 }),
			"relays 3 + audits 8 > anchors 10"},
	} {
		err := tc.out.accountingErr()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestMeanRECsSkipsIdleStreams: a stream with an undefined REC (no event
// in its region) is left out of the fleet means rather than averaged in as
// -1; with every stream idle the means are undefined too.
func TestMeanRECsSkipsIdleStreams(t *testing.T) {
	u := fleet.UndefinedREC
	for _, tc := range []struct {
		name          string
		streams       []fleet.StreamReport
		rec, realized float64
	}{
		{"none-idle", []fleet.StreamReport{{REC: 0.75, RealizedREC: 0.5}, {REC: 0.25, RealizedREC: 0.25}}, 0.5, 0.375},
		{"one-idle", []fleet.StreamReport{{REC: 0.75, RealizedREC: 0.5}, {REC: u, RealizedREC: u}, {REC: 0.25, RealizedREC: 0.25}}, 0.5, 0.375},
		{"all-idle", []fleet.StreamReport{{REC: u, RealizedREC: u}}, u, u},
	} {
		rec, realized := meanRECs(tc.streams)
		if rec != tc.rec || realized != tc.realized {
			t.Errorf("%s: means %v, %v; want %v, %v", tc.name, rec, realized, tc.rec, tc.realized)
		}
	}
}

// TestScenarioReportShape pins the report schema itself: a hand-built
// report covering all three task outcomes must marshal to the committed
// schema golden, so renaming or retyping a field is a reviewed diff even
// when no corpus golden happens to exercise it.
func TestScenarioReportShape(t *testing.T) {
	q := 8
	rep := &Report{
		Name: "shape", Task: "TA1", Seed: 7, Quick: true, Frames: 1000,
		Confidence: 0.9, Coverage: 0.9,
		Cameras: []CameraOut{
			{ID: "cam-00", Scene: 0, Seed: 1001, Arrivals: "poisson"},
			{ID: "cam-01", Scene: 0, Seed: 1001, Arrivals: "poisson", SurgeAt: 500, DriftAt: 400},
		},
		Stages: []StageOut{
			{Name: "marshal", Parallel: true, Tasks: []TaskOut{
				{Name: "fleet", Kind: KindFleet, Fleet: &FleetOut{
					MeanREC: 0.9, MeanRealizedREC: 0.85, CacheMisses: 7, CacheEvictions: 2,
				}},
				{Name: "solo", Kind: KindPipeline, Pipeline: &PipelineOut{
					Stream: "cam-00", Faulted: true, REC: 0.9, RealizedREC: 0.8,
					Relays: 10, Deferred: 2, Retried: 1, FailedAttempts: 3,
					BreakerTrips: 1, SpentUSD: 1.5, CIMS: 1234.5,
				}},
			}},
			{Name: "watch", Tasks: []TaskOut{
				{Name: "monitor", Kind: KindDrift, Drift: &DriftOut{
					Stream: "cam-01", SwitchFrame: 400, AuditRate: 1, BudgetUSD: 2,
					Anchors: 20, Relays: 6, Audits: 14, Positives: 5, Episodes: 1,
					Recalibrations: 1, OutcomesToAlarm: 4, OutcomesToRecalibration: 5,
					DetectFrame: 700, CoveragePre: 0.9, CoveragePost: 0.4,
					CoverageRestored: 0.8, SpentUSD: 2, BudgetExhausted: true,
				}},
			}},
		},
	}
	rep.Stages[0].Tasks[0].Fleet.Served = 9
	rep.Stages[0].Tasks[0].Fleet.Deferred = 1
	rep.Stages[0].Tasks[0].Fleet.BudgetUSD = 2
	rep.Stages[0].Tasks[0].Fleet.TotalSpentUSD = 1.25
	rep.Stages[0].Tasks[0].Fleet.MaxQueueDepth = q

	got, err := MarshalReport(rep)
	if err != nil {
		t.Fatalf("MarshalReport: %v", err)
	}
	goldenPath := filepath.Join("testdata", "report_schema.golden.json")
	if *updateSchema {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatalf("write schema golden: %v", err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read schema golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report schema drifted; review the diff and update %s:\ngot:\n%s\nwant:\n%s", goldenPath, got, want)
	}
}
