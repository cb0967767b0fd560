package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// specSrc joins top-level fields into a spec document, each fragment
// starting a line; tests reference offending lines by content (see
// badCase.at) so line numbers never need hand-counting.
func specSrc(fields ...string) []byte {
	return []byte("{\n" + strings.Join(fields, ",\n") + "\n}\n")
}

// Shared valid fragments; cases swap out the piece under test.
const (
	headOK    = `"name": "x",` + "\n" + `"task": "TA1"`
	streamsOK = `"streams": [{"id": "cam", "count": 1}]`
	stagesOK  = `"stages": [{"name": "s", "run": {"name": "t", "kind": "fleet"}}]`
	// timeoutStages writes a stage field the parser no longer knows.
	timeoutStages = `"stages": [{"name": "s",` + "\n" + `"timeout": "30s",` + "\n" + `"run": {"name": "t", "kind": "fleet"}}]`
)

// removedKeysSpec holds every fleet and fault key the scheduler's and the
// fault model's constants replaced; the first is an unknown field.
var removedKeysSpec = specSrc(headOK, streamsOK,
	`"fleet": {"batch_max": 8, "batch_frames_max": 4096, "call_overhead_ms": 120}`,
	stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"faults": {"rate_limit_every": 10, "rate_limit_burst": 3}`))

// countSpec declares one group of count cameras and a pipeline task on
// the given stream.
func countSpec(count int64, stream string) []byte {
	return specSrc(headOK, fmt.Sprintf(`"streams": [{"id": "big", "count": %d}]`, count),
		stagesRun(`"name": "t"`, `"kind": "pipeline"`, fmt.Sprintf(`"stream": %q`, stream)))
}

// hugeCountSpec is countSpec at 10^12 cameras: 174 bytes that ask for more
// cameras than any machine holds.
func hugeCountSpec(stream string) []byte { return countSpec(1_000_000_000_000, stream) }

// stagesRun builds a single-stage spec tail whose run task has the given
// fields, one a line.
func stagesRun(taskFields ...string) string {
	return `"stages": [{"name": "s", "run": {` + "\n" + strings.Join(taskFields, ",\n") + "\n}}]"
}

// stream1 builds a one-group streams block with extra per-group fields,
// one a line.
func stream1(extra ...string) string {
	out := `"streams": [{"id": "cam", "count": 1`
	for _, f := range extra {
		out += ",\n" + f
	}
	return out + "}]"
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
		// Document-level syntax: what encoding/json refuses, and what the
		// token pass refuses that json.Unmarshal would take.
		{name: "empty", src: []byte(" \n"), want: "empty spec"},
		{name: "top-level-list", src: []byte(`["a"]`),
			at: `["a"]`, want: "top level: expected a mapping, got list"},
		{name: "duplicate-key", src: specSrc(`"name": "x"`, `"name": "y"`),
			at: `"name": "y"`, want: "name: duplicate key"},
		{name: "nested-duplicate-key", src: specSrc(headOK, `"streams": [{"id": "cam", "count": 1,`+"\n"+`"count": 2}]`, stagesOK),
			at: `"count": 2`, want: "streams[0].count: duplicate key"},
		{name: "missing-value", src: specSrc(`"name": "x"`, `"task": `, `"quick": true`),
			at: `"task": ,`, want: "invalid character ','"},
		{name: "list-item-in-mapping", src: specSrc(`"name": "x"`, `["id"]`),
			at: `["id"]`, want: "looking for beginning of object key string"},
		{name: "bad-quoted-string", src: specSrc(`"name": "a\qc"`),
			at: `"name": "a\qc"`, want: "in string escape code"},
		{name: "invalid-key", src: specSrc(`name: "x"`),
			at: `name: "x"`, want: "invalid character 'n'"},
		{name: "case-folded-key", src: specSrc(`"Name": "x"`, `"task": "TA1"`, streamsOK, stagesOK),
			at: `"Name": "x"`, want: "Name: unknown field"},
		{name: "null-value", src: specSrc(headOK, `"seed": null`, streamsOK, stagesOK),
			at: `"seed": null`, want: "seed: null is not a value"},
		{name: "null-block", src: specSrc(headOK, stream1(`"surge": null`), stagesOK),
			at: `"surge": null`, want: "streams[0].surge: null is not a value"},
		{name: "name-not-string", src: specSrc(`"name": 5`, `"task": "TA1"`, streamsOK, stagesOK),
			at: `"name": 5`, want: "name: expected a string, got 5"},
		{name: "truncated", src: []byte("{\n" + `"name": "x"`),
			at: `"name": "x"`, want: "unexpected end of spec"},
		{name: "trailing-data", src: append(specSrc(headOK, streamsOK, stagesOK), "[1]\n"...),
			at: "[1]", want: "unexpected data after the spec"},

		// Top-level fields.
		{name: "name-missing", src: specSrc(`"task": "TA1"`, streamsOK, stagesOK),
			at: "{", want: "name: required"},
		{name: "name-charset", src: specSrc(`"name": "Big"`, `"task": "TA1"`, streamsOK, stagesOK),
			at: `"name": "Big"`, want: "name: must be non-empty [a-z0-9-]"},
		{name: "task-missing", src: specSrc(`"name": "x"`, streamsOK, stagesOK),
			at: "{", want: "task: required"},
		{name: "task-unknown", src: specSrc(`"name": "x"`, `"task": "TA99"`, streamsOK, stagesOK),
			at: `"task": "TA99"`, want: `unknown task "TA99"`},
		{name: "seed-not-integer", src: specSrc(headOK, `"seed": "abc"`, streamsOK, stagesOK),
			at: `"seed": "abc"`, want: "seed: expected an integer"},
		{name: "quick-not-bool", src: specSrc(headOK, `"quick": "yes"`, streamsOK, stagesOK),
			at: `"quick": "yes"`, want: "quick: expected true or false"},
		{name: "frames-negative", src: specSrc(headOK, `"frames": -1`, streamsOK, stagesOK),
			at: `"frames": -1`, want: "frames: must be >= 0"},
		{name: "confidence-high", src: specSrc(headOK, `"confidence": 1`, streamsOK, stagesOK),
			at: `"confidence": 1`, want: "confidence: must be in (0,1)"},
		// JSON writes no NaN: a bare one is a syntax error.
		{name: "confidence-nan", src: specSrc(headOK, `"confidence": NaN`, streamsOK, stagesOK),
			at: `"confidence": NaN`, want: "invalid character 'N' looking for beginning of value"},
		{name: "coverage-zero", src: specSrc(headOK, `"coverage": 0`, streamsOK, stagesOK),
			at: `"coverage": 0`, want: "coverage: must be in (0,1)"},
		{name: "unknown-top-level", src: specSrc(headOK, `"bogus": 1`, streamsOK, stagesOK),
			at: `"bogus": 1`, want: "bogus: unknown field"},

		// Streams.
		{name: "streams-missing", src: specSrc(headOK, stagesOK),
			at: "{", want: "streams: required"},
		{name: "streams-not-list", src: specSrc(headOK, `"streams": "none"`, stagesOK),
			at: `"streams": "none"`, want: "streams: expected a list"},
		{name: "stream-id-missing", src: specSrc(headOK, `"streams": [{"count": 1}]`, stagesOK),
			at: `{"count": 1}`, want: "streams[0].id: required"},
		{name: "stream-id-duplicate",
			src: specSrc(headOK, `"streams": [`+"\n"+`{"id": "cam", "count": 1},`+"\n"+`{"id": "cam", "count": 1}]`, stagesOK),
			at:  `"id": "cam"`, atN: 2, want: `duplicate stream group "cam"`},
		{name: "count-zero", src: specSrc(headOK, `"streams": [{"id": "cam", "count": 0}]`, stagesOK),
			at: `"count": 0`, want: "streams[0].count: must be >= 1"},
		{name: "count-missing", src: specSrc(headOK, `"streams": [{"id": "cam"}]`, stagesOK),
			at: `{"id": "cam"}`, want: "streams[0].count: must be >= 1"},
		{name: "scenes-over-count", src: specSrc(headOK, stream1(`"scenes": 2`), stagesOK),
			at: `"scenes": 2`, want: "streams[0].scenes: must be in [0,count]"},
		{name: "arrivals-unknown", src: specSrc(headOK, stream1(`"arrivals": "bursty"`), stagesOK),
			at: `"arrivals": "bursty"`, want: "must be poisson, geometric or regular"},
		{name: "surge-at-missing", src: specSrc(headOK, stream1(`"surge": {"rate": 2}`), stagesOK),
			at: `"rate": 2`, want: "streams[0].surge.at: must be >= 1"},
		{name: "surge-rate-zero", src: specSrc(headOK, stream1(`"surge": {"at": 10,`+"\n"+`"rate": 0}`), stagesOK),
			at: `"rate": 0`, want: "streams[0].surge.rate: must be a finite value > 0"},
		{name: "surge-unknown-field", src: specSrc(headOK, stream1(`"surge": {"at": 10, "rate": 2,`+"\n"+`"foo": 1}`), stagesOK),
			at: `"foo": 1`, want: "streams[0].surge.foo: unknown field"},
		{name: "drift-at-zero", src: specSrc(headOK, stream1(`"drift": {"at": 0}`), stagesOK),
			at: `"at": 0`, want: "streams[0].drift.at: must be >= 1"},
		{name: "drift-miss-rate-high", src: specSrc(headOK, stream1(`"drift": {"at": 5,`+"\n"+`"miss_rate": 1.5}`), stagesOK),
			at: `"miss_rate": 1.5`, want: "streams[0].drift.miss_rate: out of range"},
		{name: "drift-cue-gain-zero", src: specSrc(headOK, stream1(`"drift": {"at": 5,`+"\n"+`"cue_gain": 0}`), stagesOK),
			at: `"cue_gain": 0`, want: "streams[0].drift.cue_gain: must be > 0"},
		// JSON writes no infinity: a number past float64's range is refused.
		{name: "drift-jitter-inf", src: specSrc(headOK, stream1(`"drift": {"at": 5,`+"\n"+`"jitter": 1e999}`), stagesOK),
			at: `"jitter": 1e999`, want: "streams[0].drift.jitter: expected a finite number, got 1e999"},

		// Fleet policy.
		{name: "fleet-budget-negative", src: specSrc(headOK, streamsOK, `"fleet": {"budget_usd": -1}`, stagesOK),
			at: `"budget_usd": -1`, want: "fleet.budget_usd: must be a finite value >= 0"},
		{name: "fleet-queue-negative", src: specSrc(headOK, streamsOK, `"fleet": {"queue_max": -1}`, stagesOK),
			at: `"queue_max": -1`, want: "fleet.queue_max: must be >= 0 (0 = unbounded)"},
		// The batch bounds and the call overhead are fleet constants; no key
		// sets them.
		{name: "fleet-batch-max-removed", src: specSrc(headOK, streamsOK, `"fleet": {"batch_max": 8}`, stagesOK),
			at: `"batch_max": 8`, want: "fleet.batch_max: unknown field"},
		{name: "fleet-batch-frames-max-removed", src: specSrc(headOK, streamsOK, `"fleet": {"batch_frames_max": 4096}`, stagesOK),
			at: `"batch_frames_max": 4096`, want: "fleet.batch_frames_max: unknown field"},
		{name: "fleet-call-overhead-ms-removed", src: specSrc(headOK, streamsOK, `"fleet": {"call_overhead_ms": 120}`, stagesOK),
			at: `"call_overhead_ms": 120`, want: "fleet.call_overhead_ms: unknown field"},

		// Task cache blocks.
		{name: "cache-ttl-missing",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "fleet"`, `"cache": {"epsilon": 0.5}`)),
			at:  `"epsilon": 0.5`, want: "stages[0].run.cache.ttl_frames: must be >= 1"},
		{name: "cache-epsilon-negative",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "fleet"`, `"cache": {"epsilon": -0.5, "ttl_frames": 10}`)),
			at:  `"epsilon": -0.5`, want: "stages[0].run.cache.epsilon: must be a finite value >= 0"},

		// Task fault blocks.
		{name: "faults-rate-high",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"faults": {"transient_rate": 1.5}`)),
			at:  `"transient_rate": 1.5`, want: "stages[0].run.faults.transient_rate: out of range"},
		// The CI fault model has no rate-limit mode.
		{name: "faults-rate-limit-every-removed",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"faults": {"rate_limit_every": 10}`)),
			at:  `"rate_limit_every": 10`, want: "stages[0].run.faults.rate_limit_every: unknown field"},
		{name: "faults-rate-limit-burst-removed",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"faults": {"rate_limit_burst": 3}`)),
			at:  `"rate_limit_burst": 3`, want: "stages[0].run.faults.rate_limit_burst: unknown field"},
		{name: "outage-empty-window",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"faults": {"outages": [`+"\n"+`{"start": 5, "end": 5}]}`)),
			at:  `{"start": 5, "end": 5}`, want: "stages[0].run.faults.outages[0]: need 0 <= start < end"},
		{name: "outage-bound-missing",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"faults": {"outages": [`+"\n"+`{"end": 5}]}`)),
			at:  `{"end": 5}`, want: "stages[0].run.faults.outages[0]: need 0 <= start < end, got [0,5)"},
		{name: "outages-empty",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"faults": {"outages": []}`)),
			at:  `"outages": []`, want: "stages[0].run.faults.outages: must not be empty"},

		// Stages and tasks.
		{name: "stages-missing", src: specSrc(headOK, streamsOK),
			at: "{", want: "stages: required"},
		{name: "stage-run-and-parallel",
			src: specSrc(headOK, streamsOK, `"stages": [{"name": "s",`+"\n"+
				`"run": {"name": "t", "kind": "fleet"},`+"\n"+`"parallel": [{"name": "u", "kind": "fleet"}]}]`),
			at: `"stages"`, want: "stages[0]: exactly one of run/parallel required"},
		{name: "stage-neither-run-nor-parallel",
			src: specSrc(headOK, streamsOK, `"stages": [{"name": "s"}]`),
			at:  `"stages"`, want: "stages[0]: exactly one of run/parallel required"},
		{name: "stage-duplicate-name",
			src: specSrc(headOK, streamsOK, `"stages": [`+"\n"+`{"name": "s", "run": {"name": "t", "kind": "fleet"}},`+"\n"+
				`{"name": "s", "run": {"name": "u", "kind": "fleet"}}]`),
			at: `"name": "s"`, atN: 2, want: `duplicate stage "s"`},
		{name: "parallel-not-list",
			src: specSrc(headOK, streamsOK, `"stages": [{"name": "s", "parallel": "x"}]`),
			at:  `"parallel": "x"`, want: "stages[0].parallel: expected a list"},
		{name: "parallel-empty",
			src: specSrc(headOK, streamsOK, `"stages": [{"name": "s", "parallel": []}]`),
			at:  `"parallel": []`, want: "stages[0].parallel: empty task group"},
		{name: "task-kind-missing", src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`)),
			at: `"run": {`, want: "stages[0].run.kind: required"},
		{name: "task-kind-unknown", src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "magic"`)),
			at: `"kind": "magic"`, want: "must be fleet, pipeline or drift"},
		// A cache or fault plan is a block on the task that uses it: a
		// scalar in its place, a `cached` key or a spec-level block is
		// refused where it stands.
		{name: "cached-needs-cache-section",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "fleet"`, `"cache": true`)),
			at:  `"cache": true`, want: "stages[0].run.cache: expected a mapping, got true"},
		{name: "cached-on-pipeline",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"cache": {"ttl_frames": 10}`)),
			at:  `"cache":`, want: "cache: only valid on fleet tasks"},
		{name: "budget-on-pipeline",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"budget_usd": 1`)),
			at:  `"budget_usd": 1`, want: "budget_usd: only valid on fleet/drift tasks"},
		{name: "stream-on-fleet",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "fleet"`, `"stream": "cam-00"`)),
			at:  `"stream": "cam-00"`, want: "stream: only valid on pipeline/drift tasks"},
		{name: "stream-unknown-camera",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"stream": "ghost-00"`)),
			at:  `"stream": "ghost-00"`, want: `stream: unknown camera "ghost-00"`},
		{name: "stream-index-unpadded",
			src: specSrc(headOK, stream1(), stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"stream": "cam-0"`)),
			at:  `"stream": "cam-0"`, want: `stream: unknown camera "cam-0"`},
		{name: "stream-index-past-count",
			src: specSrc(headOK, stream1(), stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"stream": "cam-01"`)),
			at:  `"stream": "cam-01"`, want: `stream: unknown camera "cam-01"`},
		{name: "faults-on-fleet",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "fleet"`, `"faults": {"transient_rate": 0.1}`)),
			at:  `"faults":`, want: "faults: only valid on pipeline tasks"},
		{name: "faults-need-section",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"faults": true`)),
			at:  `"faults": true`, want: "stages[0].run.faults: expected a mapping, got true"},
		{name: "cached-key-removed",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "fleet"`, `"cached": true`)),
			at:  `"cached": true`, want: "stages[0].run.cached: unknown field"},
		{name: "stage-timeout-removed",
			src: specSrc(headOK, streamsOK, timeoutStages),
			at:  `"timeout": "30s"`, want: "stages[0].timeout: unknown field"},
		{name: "top-level-cache-removed",
			src: specSrc(headOK, streamsOK, `"cache": {"ttl_frames": 10}`, stagesOK),
			at:  `"cache":`, want: "cache: unknown field"},
		// The monitor's window and significance are drift.DefaultConfig's;
		// no key sets them.
		{name: "monitor-window-on-fleet",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "fleet"`, `"monitor_window": 20`)),
			at:  `"monitor_window": 20`, want: "stages[0].run.monitor_window: unknown field"},
		{name: "monitor-window-small",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "drift"`, `"monitor_window": 5`)),
			at:  `"monitor_window": 5`, want: "stages[0].run.monitor_window: unknown field"},
		{name: "monitor-delta-high",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "drift"`, `"monitor_delta": 1`)),
			at:  `"monitor_delta": 1`, want: "stages[0].run.monitor_delta: unknown field"},
		{name: "audit-rate-high",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "drift"`, `"audit_rate": 1.5`)),
			at:  `"audit_rate": 1.5`, want: "audit_rate: must be in [0,1], got 1.5"},
		{name: "audit-rate-negative",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "drift"`, `"audit_rate": -0.1`)),
			at:  `"audit_rate": -0.1`, want: "audit_rate: must be in [0,1], got -0.1"},
		// JSON writes no NaN: the string is a value of the wrong type.
		{name: "audit-rate-nan",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "drift"`, `"audit_rate": "NaN"`)),
			at:  `"audit_rate": "NaN"`, want: `audit_rate: expected a finite number, got "NaN"`},
		{name: "audit-rate-on-pipeline",
			src: specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "pipeline"`, `"audit_rate": 0.5`)),
			at:  `"audit_rate": 0.5`, want: "audit_rate: only valid on drift tasks"},
		{name: "drift-multi-event-task",
			src: specSrc(`"name": "x"`, `"task": "TA7"`, streamsOK, stagesRun(`"name": "t"`, `"kind": "drift"`)),
			at:  `"kind": "drift"`, want: "stages[0].run.kind: drift needs a single-event task, TA7 has 2 events"},
		{name: "duplicate-task-in-group",
			src: specSrc(headOK, streamsOK, `"stages": [{"name": "s", "parallel": [`+"\n"+
				`{"name": "u", "kind": "fleet"},`+"\n"+`{"name": "u", "kind": "fleet"}]}]`),
			at: `"name": "u"`, atN: 2, want: `duplicate task "u"`},
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
	spec, err := Parse(specSrc(headOK, streamsOK, stagesOK))
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
	if spec.Fleet.QueueMax != nil {
		t.Errorf("absent queue_max decoded non-nil: %+v", spec.Fleet)
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
	spec, err := Parse(specSrc(headOK, streamsOK, `"fleet": {"queue_max": 0}`,
		stagesRun(`"name": "t"`, `"kind": "drift"`, `"audit_rate": 0`)))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Fleet.QueueMax == nil || *spec.Fleet.QueueMax != 0 {
		t.Errorf("queue_max: 0 decoded as %v, want explicit 0", spec.Fleet.QueueMax)
	}
	if r := spec.Stages[0].Run.AuditRate; r == nil || *r != 0 {
		t.Errorf("audit_rate: 0 decoded as %v, want explicit 0", r)
	}
}

// TestParseHugeCount: a spec declares at most maxCameras cameras. A
// 10^12-camera group is refused at its count within the second, not run
// out of memory; so is a second group that takes the sum past the bound.
// At the bound a task's stream: still resolves in constant time.
func TestParseHugeCount(t *testing.T) {
	parse := func(src []byte) error {
		done := make(chan error, 1)
		go func() {
			_, err := Parse(src)
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(time.Second):
			t.Fatalf("Parse still running after 1s on\n%s", src)
			return nil
		}
	}
	if err := parse(hugeCountSpec("big-00")); err == nil || !strings.Contains(err.Error(), "streams[0].count: must be <= 1024") {
		t.Errorf("10^12 cameras: err %v, want a positional count error", err)
	}
	twoGroups := specSrc(headOK, `"streams": [{"id": "a", "count": 1000}, {"id": "b", "count": 25}]`, stagesOK)
	if err := parse(twoGroups); err == nil || !strings.Contains(err.Error(), "streams[1].count: must be <= 24") {
		t.Errorf("1025 cameras in two groups: err %v, want a count error at the second", err)
	}
	for stream, ok := range map[string]bool{
		"nosuch": false, "big-00": true, fmt.Sprintf("big-%d", maxCameras-1): true,
		fmt.Sprintf("big-%d", maxCameras): false, "big-7": false, "big--1": false,
	} {
		if err := parse(countSpec(maxCameras, stream)); (err == nil) != ok {
			t.Errorf("stream %q: err %v, want accepted=%v", stream, err, ok)
		}
	}
}

// TestParseDriftTask: a drift task needs no drifting camera (a steady one
// under the loop is continuous operation), takes a budget, and leaves the
// audit rate to drift.DefaultConfig when the key is absent.
func TestParseDriftTask(t *testing.T) {
	spec, err := Parse(specSrc(headOK, streamsOK, stagesRun(`"name": "t"`, `"kind": "drift"`, `"budget_usd": 0.5`)))
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

// corpusRaw returns the committed bytes of a corpus scenario.
func corpusRaw(e Entry) []byte {
	raw, err := corpusFS.ReadFile("corpus/" + e.Name + ".json")
	if err != nil {
		panic(err)
	}
	return raw
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
			twice, err := Parse(corpusRaw(e))
			if err != nil {
				t.Fatalf("re-parse raw: %v", err)
			}
			if !reflect.DeepEqual(e.Spec, twice) {
				t.Fatalf("raw bytes parse differently on a second decode")
			}
		})
	}
}

// TestCorpusMarshalRoundTrip: json.Marshal of every parsed corpus spec
// parses back to the same spec, so a spec built in code (a generated world)
// can be saved as a file that runs the same.
func TestCorpusMarshalRoundTrip(t *testing.T) {
	entries, err := Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			data, err := json.Marshal(e.Spec)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			back, err := Parse(data)
			if err != nil {
				t.Fatalf("Parse(Marshal(spec)): %v\n%s", err, data)
			}
			if !reflect.DeepEqual(e.Spec, back) {
				t.Fatalf("Marshal then Parse differs:\n%s", data)
			}
		})
	}
}
