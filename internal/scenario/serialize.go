package scenario

import (
	"strconv"
	"strings"
)

// Marshal emits the canonical form of a spec: fixed field order, two-space
// indentation, defaults omitted, strings quoted only when the plain form
// would not survive the parser. Because Parse applies the same defaults the
// serializer omits, parse -> Marshal -> parse is an identity on valid specs
// and Marshal(parse(Marshal(s))) == Marshal(s) byte-for-byte; the fuzz
// target holds the parser to exactly that.
func Marshal(s *Spec) []byte {
	var w specWriter
	w.kv(0, "name", str(s.Name))
	if s.Description != "" {
		w.kv(0, "description", str(s.Description))
	}
	w.kv(0, "task", str(s.Task))
	if s.Seed != 1 {
		w.kv(0, "seed", strconv.FormatInt(s.Seed, 10))
	}
	if s.Quick {
		w.kv(0, "quick", "true")
	}
	if s.Frames != 0 {
		w.kv(0, "frames", strconv.Itoa(s.Frames))
	}
	if s.Confidence != defaultConfidence {
		w.kv(0, "confidence", num(s.Confidence))
	}
	if s.Coverage != defaultCoverage {
		w.kv(0, "coverage", num(s.Coverage))
	}
	w.key(0, "streams")
	for _, g := range s.Streams {
		w.item(1, "id", str(g.ID))
		w.kv(2, "count", strconv.Itoa(g.Count))
		if g.Scenes != 0 {
			w.kv(2, "scenes", strconv.Itoa(g.Scenes))
		}
		if g.Arrivals != "" {
			w.kv(2, "arrivals", str(g.Arrivals))
		}
		if g.Surge != nil {
			w.key(2, "surge")
			w.kv(3, "at", strconv.Itoa(g.Surge.AtFrame))
			w.kv(3, "rate", num(g.Surge.Rate))
		}
		if g.Drift != nil {
			w.key(2, "drift")
			w.kv(3, "at", strconv.Itoa(g.Drift.AtFrame))
			if g.Drift.MissRate != 0 {
				w.kv(3, "miss_rate", num(g.Drift.MissRate))
			}
			if g.Drift.FPRate != 0 {
				w.kv(3, "fp_rate", num(g.Drift.FPRate))
			}
			if g.Drift.Jitter != 0 {
				w.kv(3, "jitter", num(g.Drift.Jitter))
			}
			if g.Drift.CueGain != 0 {
				w.kv(3, "cue_gain", num(g.Drift.CueGain))
			}
		}
	}
	if f := s.Fleet; f != (FleetSpec{}) {
		w.key(0, "fleet")
		if f.BudgetUSD != 0 {
			w.kv(1, "budget_usd", num(f.BudgetUSD))
		}
		if f.StreamRatePerSec != 0 {
			w.kv(1, "stream_rate", num(f.StreamRatePerSec))
		}
		if f.StreamBurst != 0 {
			w.kv(1, "stream_burst", num(f.StreamBurst))
		}
		if f.QueueMax != nil {
			w.kv(1, "queue_max", strconv.Itoa(*f.QueueMax))
		}
		if f.BatchMax != nil {
			w.kv(1, "batch_max", strconv.Itoa(*f.BatchMax))
		}
		if f.BatchFramesMax != nil {
			w.kv(1, "batch_frames_max", strconv.Itoa(*f.BatchFramesMax))
		}
		if f.CallOverheadMS != nil {
			w.kv(1, "call_overhead_ms", num(*f.CallOverheadMS))
		}
	}
	w.key(0, "stages")
	for _, st := range s.Stages {
		w.item(1, "name", str(st.Name))
		if st.Timeout != 0 {
			// Duration.String() is plain-safe ASCII and reparses to the
			// same value, so the round-trip identity holds.
			w.kv(2, "timeout", st.Timeout.String())
		}
		if st.Run != nil {
			w.key(2, "run")
			writeTask(&w, 3, *st.Run, false)
		} else {
			w.key(2, "parallel")
			for _, t := range st.Parallel {
				writeTask(&w, 3, t, true)
			}
		}
	}
	return []byte(w.b.String())
}

func writeTask(w *specWriter, depth int, t TaskSpec, asItem bool) {
	if asItem {
		w.item(depth, "name", str(t.Name))
		depth++
	} else {
		w.kv(depth, "name", str(t.Name))
	}
	w.kv(depth, "kind", str(t.Kind))
	if c := t.Cache; c != nil {
		w.key(depth, "cache")
		if c.Epsilon != 0 {
			w.kv(depth+1, "epsilon", num(c.Epsilon))
		}
		w.kv(depth+1, "ttl_frames", strconv.Itoa(c.TTLFrames))
	}
	if t.BudgetUSD != nil {
		w.kv(depth, "budget_usd", num(*t.BudgetUSD))
	}
	if t.Stream != "" {
		w.kv(depth, "stream", str(t.Stream))
	}
	if fp := t.Faults; fp != nil {
		d := depth + 1
		w.key(depth, "faults")
		if fp.Seed != 0 {
			w.kv(d, "seed", strconv.FormatInt(fp.Seed, 10))
		}
		if fp.TransientRate != 0 {
			w.kv(d, "transient_rate", num(fp.TransientRate))
		}
		if fp.SpikeRate != 0 {
			w.kv(d, "spike_rate", num(fp.SpikeRate))
		}
		if fp.SpikeMS != 0 {
			w.kv(d, "spike_ms", num(fp.SpikeMS))
		}
		if fp.RateLimitEvery != 0 {
			w.kv(d, "rate_limit_every", strconv.Itoa(fp.RateLimitEvery))
		}
		if fp.RateLimitBurst != 0 {
			w.kv(d, "rate_limit_burst", strconv.Itoa(fp.RateLimitBurst))
		}
		if fp.FailLatencyMS != 0 {
			w.kv(d, "fail_latency_ms", num(fp.FailLatencyMS))
		}
		if len(fp.Outages) > 0 {
			w.key(d, "outages")
			for _, o := range fp.Outages {
				w.item(d+1, "start", strconv.FormatInt(o.Start, 10))
				w.kv(d+2, "end", strconv.FormatInt(o.End, 10))
			}
		}
	}
	if t.AuditRate != nil {
		w.kv(depth, "audit_rate", num(*t.AuditRate))
	}
}

type specWriter struct {
	b strings.Builder
}

func (w *specWriter) indent(depth int) {
	for i := 0; i < depth; i++ {
		w.b.WriteString("  ")
	}
}

// key writes "key:" introducing a nested block.
func (w *specWriter) key(depth int, key string) {
	w.indent(depth)
	w.b.WriteString(key)
	w.b.WriteString(":\n")
}

// kv writes "key: value".
func (w *specWriter) kv(depth int, key, val string) {
	w.indent(depth)
	w.b.WriteString(key)
	w.b.WriteString(": ")
	w.b.WriteString(val)
	w.b.WriteByte('\n')
}

// item writes "- key: value", opening a list-item inline mapping whose
// remaining entries follow at depth+1. The "- " marker sits at the item's
// own depth (one level below the introducing key), so the mapping entries
// after the marker align with the kv lines written at depth+1.
func (w *specWriter) item(depth int, key, val string) {
	w.indent(depth)
	w.b.WriteString("- ")
	w.b.WriteString(key)
	w.b.WriteString(": ")
	w.b.WriteString(val)
	w.b.WriteByte('\n')
}

// num formats a float with the shortest representation that parses back
// exactly (strconv round-trip guarantee).
func num(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// str emits a scalar string, quoting only when the plain form would be
// mangled by the parser (comment stripping, trimming, key ambiguity).
func str(s string) string {
	if plainSafe(s) {
		return s
	}
	return strconv.Quote(s)
}

// plainSafe reports whether s survives the parser unquoted as a map value:
// printable ASCII without quote/escape/comment characters, no edge
// whitespace, and not shaped like a list item.
func plainSafe(s string) bool {
	if s == "" || s != strings.TrimSpace(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '#' {
			return false
		}
	}
	if s == "-" || strings.HasPrefix(s, "- ") {
		return false
	}
	return true
}
