package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// yamlSrc joins line groups into a spec document; tests reference offending
// lines by content (see badCase.at) so line numbers never need hand-counting.
func yamlSrc(groups ...[]string) []byte {
	var all []string
	for _, g := range groups {
		all = append(all, g...)
	}
	return []byte(strings.Join(all, "\n") + "\n")
}

// Shared valid fragments; cases swap out the piece under test.
var (
	headOK    = []string{"name: x", "task: TA1"}
	streamsOK = []string{
		"streams:",
		"  - id: cam",
		"    count: 1",
	}
	stagesOK = []string{
		"stages:",
		"  - name: s",
		"    run:",
		"      name: t",
		"      kind: fleet",
	}
	// timeoutStages writes a stage field the parser no longer knows.
	timeoutStages = []string{
		"stages:",
		"  - name: s",
		"    timeout: 30s",
		"    run:",
		"      name: t",
		"      kind: fleet",
	}
)

// hugeCountSpec declares one group of 10^12 cameras and a pipeline task on
// the given stream.
func hugeCountSpec(stream string) []byte {
	return yamlSrc(headOK, []string{"streams:", "  - id: big", "    count: 1000000000000"},
		stagesRun("name: t", "kind: pipeline", "stream: "+stream))
}

// stagesRun builds a single-stage spec tail with the given run-task body.
func stagesRun(taskLines ...string) []string {
	out := []string{"stages:", "  - name: s", "    run:"}
	for _, l := range taskLines {
		out = append(out, "      "+l)
	}
	return out
}

// stream1 builds a one-group streams block with extra per-group lines.
func stream1(extra ...string) []string {
	out := []string{"streams:", "  - id: cam", "    count: 1"}
	for _, l := range extra {
		out = append(out, "    "+l)
	}
	return out
}

type badCase struct {
	name string
	src  []byte
	// at is a substring of the source line the error must point at
	// ("" skips the line check, for errors with no position).
	at string
	// atN selects which occurrence of at (1-based; 0 means first).
	atN  int
	want string
}

func TestParseRejects(t *testing.T) {
	cases := []badCase{
		// Document-level syntax.
		{name: "empty", src: yamlSrc(), want: "empty spec"},
		{name: "top-level-list", src: yamlSrc([]string{"- a"}),
			at: "- a", want: "top level must be a mapping"},
		{name: "tab-indent", src: yamlSrc([]string{"name: x", "\ttask: TA1"}),
			at: "\ttask", want: "tab indentation is not supported"},
		{name: "no-space-after-colon", src: yamlSrc([]string{"name:x"}),
			at: "name:x", want: `expected a space after "name":`},
		{name: "duplicate-key", src: yamlSrc([]string{"name: x", "name: y"}),
			at: "name: y", want: `duplicate key "name"`},
		{name: "missing-value", src: yamlSrc([]string{"name: x", "task:", "quick: true"}),
			at: "task:", want: "task: missing value"},
		{name: "list-item-in-mapping", src: yamlSrc([]string{"name: x", "- id: y"}),
			at: "- id: y", want: "list item in mapping context"},
		{name: "stray-indent", src: yamlSrc([]string{"name: x", "    task: TA1"}),
			at: "    task", want: "unexpected indentation"},
		{name: "bad-quoted-string", src: yamlSrc([]string{`name: "abc`}),
			at: `name: "abc`, want: "invalid quoted string"},
		{name: "invalid-key", src: yamlSrc([]string{"na me: x"}),
			at: "na me", want: "invalid key"},

		// Top-level fields.
		{name: "name-missing", src: yamlSrc([]string{"task: TA1"}, streamsOK, stagesOK),
			at: "task: TA1", want: "name: required"},
		{name: "name-charset", src: yamlSrc([]string{"name: Big", "task: TA1"}, streamsOK, stagesOK),
			at: "name: Big", want: "name: must be non-empty [a-z0-9-]"},
		{name: "task-missing", src: yamlSrc([]string{"name: x"}, streamsOK, stagesOK),
			at: "name: x", want: "task: required"},
		{name: "task-unknown", src: yamlSrc([]string{"name: x", "task: TA99"}, streamsOK, stagesOK),
			at: "task: TA99", want: `unknown task "TA99"`},
		{name: "seed-not-integer", src: yamlSrc(headOK, []string{"seed: abc"}, streamsOK, stagesOK),
			at: "seed: abc", want: "seed: expected an integer"},
		{name: "quick-not-bool", src: yamlSrc(headOK, []string{"quick: yes"}, streamsOK, stagesOK),
			at: "quick: yes", want: "quick: expected true or false"},
		{name: "frames-negative", src: yamlSrc(headOK, []string{"frames: -1"}, streamsOK, stagesOK),
			at: "frames: -1", want: "frames: must be >= 0"},
		{name: "confidence-high", src: yamlSrc(headOK, []string{"confidence: 1"}, streamsOK, stagesOK),
			at: "confidence: 1", want: "confidence: must be in (0,1)"},
		{name: "confidence-nan", src: yamlSrc(headOK, []string{"confidence: nan"}, streamsOK, stagesOK),
			at: "confidence: nan", want: "confidence: must be in (0,1)"},
		{name: "coverage-zero", src: yamlSrc(headOK, []string{"coverage: 0"}, streamsOK, stagesOK),
			at: "coverage: 0", want: "coverage: must be in (0,1)"},
		{name: "unknown-top-level", src: yamlSrc(headOK, []string{"bogus: 1"}, streamsOK, stagesOK),
			at: "bogus: 1", want: "bogus: unknown field"},

		// Streams.
		{name: "streams-missing", src: yamlSrc(headOK, stagesOK),
			at: "name: x", want: "streams: required"},
		{name: "streams-not-list", src: yamlSrc(headOK, []string{"streams: none"}, stagesOK),
			at: "streams: none", want: "streams: expected a list"},
		{name: "stream-id-missing", src: yamlSrc(headOK, []string{"streams:", "  - count: 1"}, stagesOK),
			at: "- count: 1", want: "streams[0].id: required"},
		{name: "stream-id-duplicate",
			src: yamlSrc(headOK, []string{"streams:", "  - id: cam", "    count: 1", "  - id: cam", "    count: 1"}, stagesOK),
			at:  "- id: cam", atN: 2, want: `duplicate stream group "cam"`},
		{name: "count-zero", src: yamlSrc(headOK, []string{"streams:", "  - id: cam", "    count: 0"}, stagesOK),
			at: "count: 0", want: "streams[0].count: must be >= 1"},
		{name: "count-missing", src: yamlSrc(headOK, []string{"streams:", "  - id: cam"}, stagesOK),
			at: "- id: cam", want: "streams[0].count: must be >= 1"},
		{name: "scenes-over-count", src: yamlSrc(headOK, stream1("scenes: 2"), stagesOK),
			at: "scenes: 2", want: "streams[0].scenes: must be in [0,count]"},
		{name: "arrivals-unknown", src: yamlSrc(headOK, stream1("arrivals: bursty"), stagesOK),
			at: "arrivals: bursty", want: "must be poisson, geometric or regular"},
		{name: "surge-at-missing", src: yamlSrc(headOK, stream1("surge:", "  rate: 2"), stagesOK),
			at: "rate: 2", want: "streams[0].surge.at: must be >= 1"},
		{name: "surge-rate-zero", src: yamlSrc(headOK, stream1("surge:", "  at: 10", "  rate: 0"), stagesOK),
			at: "rate: 0", want: "streams[0].surge.rate: must be a finite value > 0"},
		{name: "surge-unknown-field", src: yamlSrc(headOK, stream1("surge:", "  at: 10", "  rate: 2", "  foo: 1"), stagesOK),
			at: "foo: 1", want: "streams[0].surge.foo: unknown field"},
		{name: "drift-at-zero", src: yamlSrc(headOK, stream1("drift:", "  at: 0"), stagesOK),
			at: "at: 0", want: "streams[0].drift.at: must be >= 1"},
		{name: "drift-miss-rate-high", src: yamlSrc(headOK, stream1("drift:", "  at: 5", "  miss_rate: 1.5"), stagesOK),
			at: "miss_rate: 1.5", want: "streams[0].drift.miss_rate: out of range"},
		{name: "drift-cue-gain-zero", src: yamlSrc(headOK, stream1("drift:", "  at: 5", "  cue_gain: 0"), stagesOK),
			at: "cue_gain: 0", want: "streams[0].drift.cue_gain: must be > 0"},
		{name: "drift-jitter-inf", src: yamlSrc(headOK, stream1("drift:", "  at: 5", "  jitter: +inf"), stagesOK),
			at: "jitter: +inf", want: "streams[0].drift.jitter: out of range"},

		// Fleet policy.
		{name: "fleet-budget-negative", src: yamlSrc(headOK, streamsOK, []string{"fleet:", "  budget_usd: -1"}, stagesOK),
			at: "budget_usd: -1", want: "fleet.budget_usd: must be a finite value >= 0"},
		{name: "fleet-queue-negative", src: yamlSrc(headOK, streamsOK, []string{"fleet:", "  queue_max: -1"}, stagesOK),
			at: "queue_max: -1", want: "fleet.queue_max: must be >= 0 (0 = unbounded)"},
		{name: "fleet-batch-zero", src: yamlSrc(headOK, streamsOK, []string{"fleet:", "  batch_max: 0"}, stagesOK),
			at: "batch_max: 0", want: "fleet.batch_max: must be >= 1"},

		// Task cache blocks.
		{name: "cache-ttl-missing",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: fleet", "cache:", "  epsilon: 0.5")),
			at:  "epsilon: 0.5", want: "stages[0].run.cache.ttl_frames: must be >= 1"},
		{name: "cache-epsilon-negative",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: fleet", "cache:", "  epsilon: -0.5", "  ttl_frames: 10")),
			at:  "epsilon: -0.5", want: "stages[0].run.cache.epsilon: must be a finite value >= 0"},

		// Task fault blocks.
		{name: "faults-rate-high",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: pipeline", "faults:", "  transient_rate: 1.5")),
			at:  "transient_rate: 1.5", want: "stages[0].run.faults.transient_rate: out of range"},
		{name: "faults-rate-limit-negative",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: pipeline", "faults:", "  rate_limit_every: -1")),
			at:  "rate_limit_every: -1", want: "stages[0].run.faults.rate_limit_every: must be >= 0"},
		{name: "outage-empty-window",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: pipeline", "faults:", "  outages:", "    - start: 5", "      end: 5")),
			at:  "- start: 5", want: "stages[0].run.faults.outages[0]: need 0 <= start < end"},

		// Stages and tasks.
		{name: "stages-missing", src: yamlSrc(headOK, streamsOK),
			at: "name: x", want: "stages: required"},
		{name: "stage-run-and-parallel",
			src: yamlSrc(headOK, streamsOK, []string{
				"stages:", "  - name: s",
				"    run:", "      name: t", "      kind: fleet",
				"    parallel:", "      - name: u", "        kind: fleet"}),
			at: "- name: s", want: "stages[0]: exactly one of run/parallel required"},
		{name: "stage-neither-run-nor-parallel",
			src: yamlSrc(headOK, streamsOK, []string{"stages:", "  - name: s"}),
			at:  "- name: s", want: "stages[0]: exactly one of run/parallel required"},
		{name: "stage-duplicate-name",
			src: yamlSrc(headOK, streamsOK, stagesOK, []string{
				"  - name: s", "    run:", "      name: u", "      kind: fleet"}),
			at: "- name: s", atN: 2, want: `duplicate stage "s"`},
		{name: "parallel-not-list",
			src: yamlSrc(headOK, streamsOK, []string{"stages:", "  - name: s", "    parallel: x"}),
			at:  "parallel: x", want: "stages[0].parallel: expected a list"},
		{name: "task-kind-missing", src: yamlSrc(headOK, streamsOK, stagesRun("name: t")),
			at: "name: t", want: "stages[0].run.kind: required"},
		{name: "task-kind-unknown", src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: magic")),
			at: "kind: magic", want: "must be fleet, pipeline or drift"},
		// A cache or fault plan is a block on the task that uses it: a
		// scalar in its place, a `cached:` key or a spec-level section is
		// refused where it stands.
		{name: "cached-needs-cache-section",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: fleet", "cache: true")),
			at:  "cache: true", want: "stages[0].run.cache: expected a mapping, got scalar"},
		{name: "cached-on-pipeline",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: pipeline", "cache:", "  ttl_frames: 10")),
			at:  "cache:", want: "cache: only valid on fleet tasks"},
		{name: "budget-on-pipeline",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: pipeline", "budget_usd: 1")),
			at:  "budget_usd: 1", want: "budget_usd: only valid on fleet/drift tasks"},
		{name: "stream-on-fleet",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: fleet", "stream: cam-00")),
			at:  "stream: cam-00", want: "stream: only valid on pipeline/drift tasks"},
		{name: "stream-unknown-camera",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: pipeline", "stream: ghost-00")),
			at:  "stream: ghost-00", want: `stream: unknown camera "ghost-00"`},
		{name: "stream-index-unpadded",
			src: yamlSrc(headOK, stream1(), stagesRun("name: t", "kind: pipeline", "stream: cam-0")),
			at:  "stream: cam-0", want: `stream: unknown camera "cam-0"`},
		{name: "stream-index-past-count",
			src: yamlSrc(headOK, stream1(), stagesRun("name: t", "kind: pipeline", "stream: cam-01")),
			at:  "stream: cam-01", want: `stream: unknown camera "cam-01"`},
		{name: "faults-on-fleet",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: fleet", "faults:", "  transient_rate: 0.1")),
			at:  "faults:", want: "faults: only valid on pipeline tasks"},
		{name: "faults-need-section",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: pipeline", "faults: true")),
			at:  "faults: true", want: "stages[0].run.faults: expected a mapping, got scalar"},
		{name: "cached-key-removed",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: fleet", "cached: true")),
			at:  "cached: true", want: "stages[0].run.cached: unknown field"},
		{name: "stage-timeout-removed",
			src: yamlSrc(headOK, streamsOK, timeoutStages),
			at:  "timeout: 30s", want: "stages[0].timeout: unknown field"},
		{name: "top-level-cache-removed",
			src: yamlSrc(headOK, streamsOK, []string{"cache:", "  ttl_frames: 10"}, stagesOK),
			at:  "cache:", want: "cache: unknown field"},
		// The monitor's window and significance are drift.DefaultConfig's;
		// no key sets them.
		{name: "monitor-window-on-fleet",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: fleet", "monitor_window: 20")),
			at:  "monitor_window: 20", want: "stages[0].run.monitor_window: unknown field"},
		{name: "monitor-window-small",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: drift", "monitor_window: 5")),
			at:  "monitor_window: 5", want: "stages[0].run.monitor_window: unknown field"},
		{name: "monitor-delta-high",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: drift", "monitor_delta: 1")),
			at:  "monitor_delta: 1", want: "stages[0].run.monitor_delta: unknown field"},
		{name: "audit-rate-high",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: drift", "audit_rate: 1.5")),
			at:  "audit_rate: 1.5", want: "audit_rate: must be in [0,1], got 1.5"},
		{name: "audit-rate-negative",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: drift", "audit_rate: -0.1")),
			at:  "audit_rate: -0.1", want: "audit_rate: must be in [0,1], got -0.1"},
		{name: "audit-rate-nan",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: drift", "audit_rate: NaN")),
			at:  "audit_rate: NaN", want: "audit_rate: must be in [0,1], got NaN"},
		{name: "audit-rate-on-pipeline",
			src: yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: pipeline", "audit_rate: 0.5")),
			at:  "audit_rate: 0.5", want: "audit_rate: only valid on drift tasks"},
		{name: "drift-multi-event-task",
			src: yamlSrc([]string{"name: x", "task: TA7"}, streamsOK, stagesRun("name: t", "kind: drift")),
			at:  "kind: drift", want: "stages[0].run.kind: drift needs a single-event task, TA7 has 2 events"},
		{name: "duplicate-task-in-group",
			src: yamlSrc(headOK, streamsOK, []string{
				"stages:", "  - name: s", "    parallel:",
				"      - name: u", "        kind: fleet",
				"      - name: u", "        kind: fleet"}),
			at: "- name: u", atN: 2, want: `duplicate task "u"`},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted invalid spec:\n%s\ngot %+v", tc.src, spec)
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("error %q does not mention %q", msg, tc.want)
			}
			if tc.at != "" {
				line := findLine(t, tc.src, tc.at, tc.atN)
				if mark := fmt.Sprintf("line %d:", line); !strings.Contains(msg, mark) {
					t.Fatalf("error %q does not point at %q (want %q)", msg, tc.at, mark)
				}
			}
		})
	}
}

// findLine returns the 1-based line number of the n-th source line
// containing sub (n==0 means first).
func findLine(t *testing.T, src []byte, sub string, n int) int {
	t.Helper()
	if n == 0 {
		n = 1
	}
	seen := 0
	for i, ln := range strings.Split(string(src), "\n") {
		if strings.Contains(ln, sub) {
			if seen++; seen == n {
				return i + 1
			}
		}
	}
	t.Fatalf("marker %q (occurrence %d) not found in source:\n%s", sub, n, src)
	return 0
}

func TestParseDefaults(t *testing.T) {
	spec, err := Parse(yamlSrc(headOK, streamsOK, stagesOK))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Seed != 1 {
		t.Errorf("Seed = %d, want default 1", spec.Seed)
	}
	if spec.Confidence != defaultConfidence || spec.Coverage != defaultCoverage {
		t.Errorf("Confidence/Coverage = %v/%v, want %v/%v",
			spec.Confidence, spec.Coverage, defaultConfidence, defaultCoverage)
	}
	if spec.Quick || spec.Frames != 0 {
		t.Errorf("Quick/Frames = %v/%d, want false/0", spec.Quick, spec.Frames)
	}
	if len(spec.Streams) != 1 || spec.Streams[0].Count != 1 || spec.Streams[0].Arrivals != "" {
		t.Errorf("Streams = %+v, want one group, count 1, default arrivals", spec.Streams)
	}
	if spec.Fleet.QueueMax != nil || spec.Fleet.BatchMax != nil ||
		spec.Fleet.BatchFramesMax != nil || spec.Fleet.CallOverheadMS != nil {
		t.Errorf("absent fleet overrides decoded non-nil: %+v", spec.Fleet)
	}
	if len(spec.Stages) != 1 || spec.Stages[0].Run == nil || len(spec.Stages[0].Tasks()) != 1 {
		t.Errorf("Stages = %+v, want one run stage", spec.Stages)
	} else if task := spec.Stages[0].Run; task.Cache != nil || task.Faults != nil {
		t.Errorf("absent cache/faults decoded non-nil: %+v / %+v", task.Cache, task.Faults)
	}
}

// TestParseExplicitZeroOverrides checks that pointer fields distinguish an
// explicit zero from an absent key (queue_max: 0 means unbounded,
// audit_rate: 0 never audits).
func TestParseExplicitZeroOverrides(t *testing.T) {
	spec, err := Parse(yamlSrc(headOK, streamsOK,
		[]string{"fleet:", "  queue_max: 0", "  call_overhead_ms: 0"},
		stagesRun("name: t", "kind: drift", "audit_rate: 0")))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Fleet.QueueMax == nil || *spec.Fleet.QueueMax != 0 {
		t.Errorf("queue_max: 0 decoded as %v, want explicit 0", spec.Fleet.QueueMax)
	}
	if spec.Fleet.CallOverheadMS == nil || *spec.Fleet.CallOverheadMS != 0 {
		t.Errorf("call_overhead_ms: 0 decoded as %v, want explicit 0", spec.Fleet.CallOverheadMS)
	}
	if r := spec.Stages[0].Run.AuditRate; r == nil || *r != 0 {
		t.Errorf("audit_rate: 0 decoded as %v, want explicit 0", r)
	}
}

// TestParseHugeCount: a task's stream: resolves in constant time whatever
// its group's count, so a 10^12-camera spec is accepted or refused at once.
func TestParseHugeCount(t *testing.T) {
	for stream, ok := range map[string]bool{
		"nosuch": false, "big-00": true, "big-999999999999": true,
		"big-1000000000000": false, "big-7": false, "big--1": false,
	} {
		done := make(chan error, 1)
		go func() {
			_, err := Parse(hugeCountSpec(stream))
			done <- err
		}()
		select {
		case err := <-done:
			if (err == nil) != ok {
				t.Errorf("stream %q: err %v, want accepted=%v", stream, err, ok)
			}
		case <-time.After(time.Second):
			t.Fatalf("stream %q: Parse still running after 1s", stream)
		}
	}
}

// TestParseDriftTask: a drift task needs no drifting camera (a steady one
// under the loop is continuous operation), takes a budget, and leaves the
// audit rate to drift.DefaultConfig when the key is absent.
func TestParseDriftTask(t *testing.T) {
	spec, err := Parse(yamlSrc(headOK, streamsOK, stagesRun("name: t", "kind: drift", "budget_usd: 0.5")))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	task := spec.Stages[0].Run
	if task.BudgetUSD == nil || *task.BudgetUSD != 0.5 {
		t.Errorf("budget_usd decoded as %v, want 0.5", task.BudgetUSD)
	}
	if task.AuditRate != nil {
		t.Errorf("absent audit_rate decoded as %v, want nil", *task.AuditRate)
	}
}

// TestCorpusRoundTrip: every committed corpus spec parses to the same spec
// a second time (decode determinism on the raw bytes).
func TestCorpusRoundTrip(t *testing.T) {
	entries, err := Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	if len(entries) < 5 {
		t.Fatalf("corpus has %d scenarios, want >= 5", len(entries))
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			twice, err := Parse(e.Raw)
			if err != nil {
				t.Fatalf("re-parse raw: %v", err)
			}
			if !reflect.DeepEqual(e.Spec, twice) {
				t.Fatalf("raw bytes parse differently on a second decode")
			}
		})
	}
}
