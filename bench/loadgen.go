package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// tick is the camera frame period of the open-loop workload: 30 fps.
const tick = time.Second / 30

// loadSpec is the shape of one HTTP workload's traffic.
type loadSpec struct {
	name          string
	sessionsPerGW int
	framesPerPush int
	pushesPerOp   int
	// paced selects the open loop: every gateway sends each of its cameras'
	// operations back to back on a 30 fps tick and times them from the tick.
	paced bool
	// relay says the server owns the relay (CI, cache, arbiter, adaptation),
	// which changes which counters a reply and /v1/stats must agree on.
	relay bool
}

func (ls loadSpec) framesPerOp() int { return ls.framesPerPush * ls.pushesPerOp }

// decision is one event's verdict as the checks and the scoring need it;
// start and end are horizon offsets (absolute index minus anchor).
type decision struct {
	relay      bool
	start, end int
}

// tally is what one session's replies add up to; /v1/stats must agree.
type tally struct {
	predicts, relays, skipped int64
	served, deferred          int64 // relays by whether the reply marked them deferred
	relayFrames               int64 // frames inside decided relay ranges
	pushedFrames, opsStarted  int64
}

func (t *tally) add(o tally) {
	t.predicts += o.predicts
	t.relays += o.relays
	t.skipped += o.skipped
	t.served += o.served
	t.deferred += o.deferred
	t.relayFrames += o.relayFrames
	t.pushedFrames += o.pushedFrames
	t.opsStarted += o.opsStarted
}

// session is one camera: its prebuilt requests and what it has seen.
type session struct {
	id string
	// origin is the stream frame behind session-local frame index 0; prep
	// frames are pushed during set-up, so operation i pushes local frames
	// [prep+i*fpo, prep+(i+1)*fpo).
	origin, prep int
	// pushes holds nOps*pushesPerOp prebuilt push requests; a session that
	// outruns them starts over (content cycles, indices keep counting).
	pushes  [][]byte
	predict []byte
	nOps    int
	ops     int
	// scored keeps the decisions of the first scoreOps operations: the
	// fixed prefix rec, cost_ratio and the digest are computed over, so
	// they do not depend on how many operations a run completes.
	scored [][]decision
	tally
}

// anchorFrame is the stream frame of operation op's anchor (first pass).
func (s *session) anchorFrame(op, fpo int) int { return s.origin + s.prep + (op+1)*fpo - 1 }

// roundtrip is one request's send-to-reply interval inside an operation.
type roundtrip struct{ start, end time.Time }

// gateway is one generator goroutine with one keep-alive connection and
// the sessions it visits round-robin.
type gateway struct {
	id       int
	load     *httpLoad
	c        *conn
	sessions []*session
	next     int

	samples   []sample
	clientNS  []int64 // generator self time per recorded operation
	tickLate  []int64
	due, miss int64
	failed    int64
	firstErr  error
	rts       []roundtrip
	scoredAll atomic.Bool // every session has completed its scored prefix

	// traced, when set, runs after every operation with the operation's own
	// requests (see trace.go); record says whether it fell in the timed
	// region. opSeq numbers the operations it saw.
	traced func(g *gateway, s *session, op int, begin, end time.Time, record bool)
	opSeq  int64

	// ref times the reference kernel between operations (see speed.go).
	ref refMeter
}

type framesReply struct {
	Next int `json:"next"`
}

type predictReply struct {
	Anchor     int `json:"anchor"`
	HorizonEnd int `json:"horizonEnd"`
	Decisions  []struct {
		Relay    bool `json:"relay"`
		Start    int  `json:"start"`
		End      int  `json:"end"`
		Deferred bool `json:"deferred"`
	} `json:"decisions"`
}

// maxFailures stops a gateway whose connection or server is broken rather
// than letting it spin through errors for the whole run.
const maxFailures = 20

func (g *gateway) fail(err error) {
	g.failed++
	if g.firstErr == nil {
		g.firstErr = err
	}
}

// send issues one prebuilt request, recording its round trip.
func (g *gateway) send(req []byte) ([]byte, error) {
	rt := roundtrip{start: time.Now()}
	code, body, err := g.c.do(req)
	rt.end = time.Now()
	g.rts = append(g.rts, rt)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", code, body)
	}
	return body, nil
}

// doOp runs one operation of s — its pushes, then a predict — and checks
// every reply. It returns false when the operation failed.
func (g *gateway) doOp(s *session) bool {
	ls, geo := g.load.spec, g.load.geo
	g.rts = g.rts[:0]
	s.opsStarted++
	slot := (s.ops % s.nOps) * ls.pushesPerOp
	for p := 0; p < ls.pushesPerOp; p++ {
		body, err := g.send(s.pushes[slot+p])
		if err != nil {
			g.fail(fmt.Errorf("%s op %d push: %w", s.id, s.ops, err))
			return false
		}
		s.pushedFrames += int64(ls.framesPerPush)
		var fr framesReply
		if err := json.Unmarshal(body, &fr); err != nil || fr.Next != int(s.pushedFrames) {
			g.fail(fmt.Errorf("%s op %d push: reply %q, want next=%d (%v)", s.id, s.ops, body, s.pushedFrames, err))
			return false
		}
	}
	body, err := g.send(s.predict)
	if err != nil {
		g.fail(fmt.Errorf("%s op %d predict: %w", s.id, s.ops, err))
		return false
	}
	var pr predictReply
	if err := json.Unmarshal(body, &pr); err != nil {
		g.fail(fmt.Errorf("%s op %d predict: decoding %q: %w", s.id, s.ops, body, err))
		return false
	}
	anchor := int(s.pushedFrames) - 1
	if len(pr.Decisions) != geo.k || pr.Anchor != anchor || pr.HorizonEnd != anchor+geo.horizon {
		g.fail(fmt.Errorf("%s op %d predict: %d decisions anchor %d end %d, want %d decisions anchor %d end %d",
			s.id, s.ops, len(pr.Decisions), pr.Anchor, pr.HorizonEnd, geo.k, anchor, anchor+geo.horizon))
		return false
	}
	var dec []decision
	if s.ops < g.load.scoreOps {
		dec = make([]decision, geo.k)
	}
	s.predicts++
	for k, d := range pr.Decisions {
		switch {
		case d.Relay:
			if !(anchor < d.Start && d.Start <= d.End && d.End <= anchor+geo.horizon) {
				g.fail(fmt.Errorf("%s op %d: relay range [%d,%d] outside (%d,%d]", s.id, s.ops, d.Start, d.End, anchor, anchor+geo.horizon))
				return false
			}
			s.relays++
			s.relayFrames += int64(d.End - d.Start + 1)
			if d.Deferred {
				s.deferred++
			} else {
				s.served++
			}
		case d.Start != 0 || d.End != 0 || d.Deferred:
			g.fail(fmt.Errorf("%s op %d: skipped event %d carries a range or a deferral", s.id, s.ops, k))
			return false
		default:
			s.skipped++
		}
		if d.Deferred && !ls.relay {
			g.fail(fmt.Errorf("%s op %d: deferred relay on a server that does not relay", s.id, s.ops))
			return false
		}
		if dec != nil {
			dec[k] = decision{relay: d.Relay}
			if d.Relay {
				dec[k].start, dec[k].end = d.Start-anchor, d.End-anchor
			}
		}
	}
	if dec != nil {
		s.scored = append(s.scored, dec)
	}
	s.ops++
	return true
}

// clientSelf is the generator's own time in an operation: what is left of
// [begin, end] once the request round trips are taken out.
func (g *gateway) clientSelf(begin, end time.Time) int64 {
	self := end.Sub(begin)
	for _, rt := range g.rts {
		self -= rt.end.Sub(rt.start)
	}
	return int64(self)
}

// control is the run's shared switchboard.
type control struct {
	t0        time.Time
	recording atomic.Bool
	stop      atomic.Bool
}

// closedLoop sends each session's next operation only after the previous
// reply arrived, visiting the gateway's sessions round-robin.
func (g *gateway) closedLoop(ctl *control) {
	for !ctl.stop.Load() && g.failed < maxFailures {
		s := g.sessions[g.next]
		g.next = (g.next + 1) % len(g.sessions)
		rec := ctl.recording.Load()
		begin := time.Now()
		ok := g.doOp(s)
		end := time.Now()
		if ok && rec {
			g.samples = append(g.samples, sample{done: int64(end.Sub(ctl.t0)), lat: int64(end.Sub(begin))})
			g.clientNS = append(g.clientNS, g.clientSelf(begin, end))
		}
		if ok && g.traced != nil {
			g.traced(g, s, s.ops-1, begin, end, rec)
		}
		if g.next == 0 && !g.scoredAll.Load() && s.ops >= g.load.scoreOps {
			g.scoredAll.Store(true)
		}
		g.ref.tick(ctl.t0)
	}
}

// scrapeEvery is how often (in ticks) gateway 0 reads /metrics and
// /v1/stats beside the camera traffic: once per second.
const scrapeEvery = 30

// pacedLoop is the open loop: on every tick each camera's operation is due
// and is timed from the tick, whether or not the previous tick's work is
// done. Ticks [warm, warm+timed) are recorded.
func (g *gateway) pacedLoop(ctl *control, warm, timed int) {
	// Cameras are not synchronized with each other: gateways tick evenly
	// spread over the frame period.
	phase := tick * time.Duration(g.id) / time.Duration(len(g.load.gws))
	for n := 0; n < warm+timed && g.failed < maxFailures; n++ {
		due := ctl.t0.Add(phase + time.Duration(n)*tick)
		rec := n >= warm
		if idle := time.Until(due); idle > 0 {
			time.Sleep(idle)
			if rec {
				g.tickLate = append(g.tickLate, int64(time.Since(due)))
			}
		}
		for _, s := range g.sessions {
			begin := time.Now()
			ok := g.doOp(s)
			end := time.Now()
			if ok && g.traced != nil {
				g.traced(g, s, s.ops-1, begin, end, rec)
			}
			if !rec {
				continue
			}
			g.due++
			if !ok || end.Sub(due) > tick {
				g.miss++
			}
			if ok {
				g.samples = append(g.samples, sample{done: int64(end.Sub(ctl.t0)), lat: int64(end.Sub(due))})
				g.clientNS = append(g.clientNS, g.clientSelf(begin, end))
			}
		}
		g.ref.tick(ctl.t0)
		if g.id == 0 && n%scrapeEvery == 0 {
			for _, req := range g.load.scrapes {
				if code, _, err := g.c.do(req); err != nil || code != http.StatusOK {
					g.fail(fmt.Errorf("operator scrape: HTTP %d: %v", code, err))
				}
			}
		}
	}
	g.scoredAll.Store(true)
}

// regionLengths splits a run into its untimed warm-up and its timed region.
func regionLengths(seconds float64) (warm, timed time.Duration) {
	return time.Duration(seconds * warmShare * float64(time.Second)), time.Duration(seconds * float64(time.Second))
}

// pacedTicks is regionLengths in whole camera ticks.
func pacedTicks(seconds float64) (warm, timed int) {
	w, t := regionLengths(seconds)
	return int(w / tick), int(t / tick)
}

// runGateways drives every gateway through one timed region and returns
// the process cost of that region. For the closed loop the region lasts
// seconds and is extended until every session has completed its scored
// prefix; for the open loop it is the fixed tick count.
func (l *httpLoad) runGateways(seconds float64, hardStop time.Duration) (procDelta, int64) {
	ctl := &control{t0: time.Now()}
	for _, g := range l.gws {
		g.samples, g.clientNS, g.tickLate = g.samples[:0], g.clientNS[:0], g.tickLate[:0]
		g.due, g.miss = 0, 0
		g.ref.readings = g.ref.readings[:0]
		g.scoredAll.Store(false)
	}
	warmFor, runFor := regionLengths(seconds)
	warmTicks, timedTicks := pacedTicks(seconds)
	var wg sync.WaitGroup
	for _, g := range l.gws {
		wg.Add(1)
		go func(g *gateway) {
			defer wg.Done()
			if l.spec.paced {
				g.pacedLoop(ctl, warmTicks, timedTicks)
			} else {
				g.closedLoop(ctl)
			}
		}(g)
	}
	if l.spec.paced {
		warmFor, runFor = time.Duration(warmTicks)*tick, time.Duration(timedTicks)*tick
	}
	time.Sleep(time.Until(ctl.t0.Add(warmFor)))
	before := snapProc()
	ctl.recording.Store(true)
	start := int64(time.Since(ctl.t0))
	time.Sleep(time.Until(ctl.t0.Add(warmFor + runFor)))
	for deadline := ctl.t0.Add(hardStop); !l.scoredAll() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	after := snapProc()
	ctl.recording.Store(false)
	ctl.stop.Store(true)
	wg.Wait()
	return before.until(after), start
}

func (l *httpLoad) scoredAll() bool {
	for _, g := range l.gws {
		if !g.scoredAll.Load() && g.failed < maxFailures {
			return false
		}
	}
	return true
}
