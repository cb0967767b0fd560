package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"eventhit/internal/drift"
	"eventhit/internal/strategy"
)

// session is one camera stream's ingest and decision state. All fields are
// guarded by Server.mu except unit (atomic — the request path loads it
// lock-free), dec (under decMu) and ad (touched only under relayMu; its
// counters are committed into the mu-guarded adapt by handlePredict).
type session struct {
	id   string
	ring frameRing // the last `window` frames
	next int       // absolute index of the next frame to arrive
	counts

	// unit is the session's serving bundle. Global swaps (boot, admin
	// push) install into every session; the adaptation loop swaps only its
	// own session's pointer.
	unit atomic.Pointer[bundleUnit]
	// dec is the stream's decision scratch: it carries the input projections
	// of the frames this session's earlier windows presented, which is why
	// it is the session's and not pooled. Allocated by the first predict, so
	// a session that only ingests holds none. decMu is held around the
	// decision and the copy-out of its scores only — a leaf lock, released
	// before relayMu or mu is taken.
	decMu sync.Mutex
	dec   *strategy.Scratch
	// ad is the online adaptation loop (nil unless Config.Adapt is set).
	ad *drift.Loop
	// adapt is ad's counters as committed under mu at each predict, so
	// /v1/stats never reads the loop.
	adapt drift.Stats
}

// counts are a session's marshalling counters. A predict tallies its own
// in a local counts and commits them with one add under mu.
type counts struct {
	predicts  int64
	relays    int64
	frames    int64 // in admitted relay ranges the cache could not answer
	skipped   int64
	relayedOK int64
	deferred  int64 // CI degradation (retries exhausted, breaker open)
	admitDef  int64 // fleet arbiter declined admission (rate or budget)
}

func (c *counts) add(d counts) {
	c.predicts += d.predicts
	c.relays += d.relays
	c.frames += d.frames
	c.skipped += d.skipped
	c.relayedOK += d.relayedOK
	c.deferred += d.deferred
	c.admitDef += d.admitDef
}

// newSessionLocked creates and registers a session. Caller holds mu. The
// session starts on the globally installed unit and, when adaptation is
// on, gets its own adaptation loop.
func (s *Server) newSessionLocked(id string) error {
	sess := &session{id: id, ring: newFrameRing(s.window, s.inputDim)}
	sess.unit.Store(s.unit.Load())
	if s.cfg.Adapt != nil {
		ad, err := drift.NewLoop(*s.cfg.Adapt, s.cfg.DefaultCoverage, s.k)
		if err != nil {
			return fmt.Errorf("serve: adapt: %w", err)
		}
		sess.ad = ad
	}
	s.sessions[id] = sess
	s.order = append(s.order, id)
	return nil
}

// forSession adapts a session-scoped handler to a session route: the
// session is the one the {id} path segment names, and an unknown id is 404.
func (s *Server) forSession(h func(*session, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.Lock()
		sess := s.sessions[id]
		s.mu.Unlock()
		if sess == nil {
			httpError(w, http.StatusNotFound, "unknown session %q", id)
			return
		}
		h(sess, w, r)
	}
}

// SessionRequest is the POST /v1/sessions body. ID is optional; the server
// generates s1, s2, ... when absent.
type SessionRequest struct {
	ID string `json:"id"`
}

// SessionInfo is one session's row in GET /v1/sessions.
type SessionInfo struct {
	ID                string `json:"id"`
	FramesIngested    int    `json:"framesIngested"`
	Predictions       int64  `json:"predictions"`
	Relays            int64  `json:"relays"`
	RelayedOK         int64  `json:"relayedOK"`
	DeferredRelays    int64  `json:"deferredRelays"`
	AdmissionDeferred int64  `json:"admissionDeferred"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	var req SessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.ID) > MaxSessionID {
		httpError(w, http.StatusBadRequest, "session id longer than %d bytes", MaxSessionID)
		return
	}
	s.mu.Lock()
	if len(s.sessions) >= MaxSessions {
		s.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, "session table full (%d)", MaxSessions)
		return
	}
	id := req.ID
	if id == "" {
		for {
			s.seq++
			id = fmt.Sprintf("s%d", s.seq)
			if s.sessions[id] == nil {
				break
			}
		}
	} else if s.sessions[id] != nil {
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "session %q already exists", id)
		return
	}
	if err := s.newSessionLocked(id); err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusInternalServerError, "creating session: %v", err)
		return
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, SessionRequest{ID: id})
}

func (s *Server) handleSessionList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]SessionInfo, 0, len(s.order))
	for _, id := range s.order {
		sess := s.sessions[id]
		out = append(out, SessionInfo{
			ID:                sess.id,
			FramesIngested:    sess.next,
			Predictions:       sess.predicts,
			Relays:            sess.relays,
			RelayedOK:         sess.relayedOK,
			DeferredRelays:    sess.deferred,
			AdmissionDeferred: sess.admitDef,
		})
	}
	s.mu.Unlock()
	writeJSON(w, out)
}

// handleSessionDelete removes a session: its ingest buffer and counters are
// dropped and its fleet rate bucket (if any) is released.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	if s.sessions[id] == nil {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	delete(s.sessions, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	// The arbiter is internally synchronized; release outside mu to keep
	// the lock order flat.
	if s.arbiter != nil {
		s.arbiter.Release(id)
	}
	w.WriteHeader(http.StatusNoContent)
}
