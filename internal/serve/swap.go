// Hot model swap + drift-triggered online recalibration — the §VIII
// "future work" loop closed inside the server. The served model and its
// conformal calibrations travel together as one immutable bundleUnit
// behind an atomic pointer: every request resolves the unit exactly once,
// so a swap is zero-downtime and an in-flight request can never observe a
// torn model/calibration pair (the cf-faas hot_swap idiom — swap the
// handler behind a pointer, never mutate it in place).
//
// Two things swap units in:
//
//   - POST /v1/model pushes an operator-supplied bundle (retrained
//     offline, A/B candidate, rollback). The push is validated against the
//     server's frozen geometry — input dimensionality, window, horizon,
//     event count — and rejected at swap time, never as a 500 at the next
//     frame.
//   - The per-session adaptation loop (drift.Loop): every served horizon
//     whose ground truth comes back (relayed horizons are CI-labeled for
//     free; skipped horizons are audited at AuditRate) is observed by the
//     session's loop. When the loop cuts a fresh C-CLASSIFY calibration the
//     session's unit is swapped for one carrying it. One sustained shift is
//     one episode is (at most) one recalibration — the edge-triggered
//     episode accounting in internal/drift is what prevents a recalibration
//     storm.
package serve

import (
	"errors"
	"fmt"
	"net/http"

	"eventhit/internal/conformal"
	"eventhit/internal/dataset"
	"eventhit/internal/drift"
	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
)

// MaxBundleBytes caps a POST /v1/model body. Bundles are gob-encoded
// float64 weights plus calibration state; even generously sized models fit
// well under this.
const MaxBundleBytes = 64 << 20

// Swap origins, recorded on each unit and split out in the counters.
const (
	swapOriginBoot          = "boot"
	swapOriginAdmin         = "admin"
	swapOriginRecalibration = "recalibration"
	swapOriginShared        = "shared"
)

// bundleUnit is the atomically swappable serving state: the bundle
// requests predict through plus the frozen geometry every unit must agree
// on. Units are immutable once published — a swap builds a new unit and
// stores the pointer, it never touches a published one.
type bundleUnit struct {
	bundle   *strategy.Bundle
	inputDim int
	window   int
	horizon  int
	k        int
	gen      uint64 // swap generation: boot is 0, each successful swap increments
	origin   string
}

// newUnit validates a bundle against the server's frozen geometry and
// wraps it as a serving unit.
func (s *Server) newUnit(b *strategy.Bundle, gen uint64, origin string) (*bundleUnit, error) {
	if b == nil || b.Model == nil {
		return nil, fmt.Errorf("serve: nil bundle")
	}
	if b.Classifier == nil || b.Regressor == nil {
		return nil, fmt.Errorf("serve: bundle missing conformal calibration state")
	}
	mc := b.Model.Config()
	if origin != swapOriginBoot {
		switch {
		case mc.InputDim != s.inputDim:
			return nil, fmt.Errorf("serve: bundle input dim %d, server expects %d", mc.InputDim, s.inputDim)
		case mc.Window != s.window:
			return nil, fmt.Errorf("serve: bundle window %d, server expects %d", mc.Window, s.window)
		case mc.Horizon != s.horizon:
			return nil, fmt.Errorf("serve: bundle horizon %d, server expects %d", mc.Horizon, s.horizon)
		case mc.NumEvents != s.k:
			return nil, fmt.Errorf("serve: bundle has %d events, server expects %d", mc.NumEvents, s.k)
		}
	}
	if cn := b.Classifier.NumEvents(); cn != mc.NumEvents {
		return nil, fmt.Errorf("serve: classifier covers %d events, model has %d", cn, mc.NumEvents)
	}
	return &bundleUnit{
		bundle:   b,
		inputDim: mc.InputDim,
		window:   mc.Window,
		horizon:  mc.Horizon,
		k:        mc.NumEvents,
		gen:      gen,
		origin:   origin,
	}, nil
}

// decide runs the unit's EHCR decision on rec into pred and returns the raw
// existence scores (which alias dec). It holds no lock: deciding only
// reads the unit.
func (u *bundleUnit) decide(rec dataset.Record, conf, cov float64, dec *strategy.Scratch, pred *metrics.Prediction) []float64 {
	return u.bundle.Decide(rec, strategy.EHCRRule(conf, cov), dec, pred)
}

// Swap validates b and atomically installs it as the serving unit of every
// session (and of sessions created later). Running requests finish on the
// unit they resolved; new requests see the new one. Each session's
// adaptation state is rebased onto the new model: the coverage monitor's
// window is cleared (lifetime counters kept) and the recalibration buffer
// — whose scores came from the old model — is discarded. It returns the
// new swap generation.
func (s *Server) Swap(b *strategy.Bundle, origin string) (uint64, error) {
	// Validate before burning a generation number.
	probe, err := s.newUnit(b, 0, origin)
	if err != nil {
		return 0, err
	}
	// Lock order matches handlePredict: relayMu (serializes the adaptation
	// state we are about to rebase) before mu (session table).
	s.lockRelay()
	defer s.unlockRelay()
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.derive(probe, probe.bundle, origin)
	s.unit.Store(u)
	for _, sess := range s.sessions {
		sess.unit.Store(u)
		if sess.ad != nil {
			sess.ad.Rebase()
		}
	}
	if origin == swapOriginAdmin {
		s.adminSwaps++
	}
	return u.gen, nil
}

// derive returns a copy of u serving b under the next swap generation.
func (s *Server) derive(u *bundleUnit, b *strategy.Bundle, origin string) *bundleUnit {
	nu := *u
	nu.bundle, nu.gen, nu.origin = b, s.gens.Add(1), origin
	return &nu
}

// resolveUnit returns the session's current serving unit.
func (s *Server) resolveUnit(sess *session) *bundleUnit {
	if u := sess.unit.Load(); u != nil {
		return u
	}
	// Sessions are always created with a unit; this is only a guard.
	return s.unit.Load()
}

// ModelResponse acknowledges a POST /v1/model swap.
type ModelResponse struct {
	Generation uint64 `json:"generation"`
	Params     int    `json:"params"`
}

// handleModelPush is POST /v1/model: the body is a bundle in
// strategy.Bundle.Save format (the eventhittrain artifact). A bundle that
// decodes but does not fit the server — wrong input dimensionality,
// window, horizon or event count — is rejected here with 422, so a bad push can never become a
// 500 at the next frame.
func (s *Server) handleModelPush(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBundleBytes)
	b, err := strategy.LoadBundle(r.Body)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "decoding bundle: %v", err)
		return
	}
	gen, err := s.Swap(b, swapOriginAdmin)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, ModelResponse{Generation: gen, Params: b.Model.NumParams()})
}

// AdaptConfig parametrizes the per-session online adaptation loop
// (drift.Loop). The loop needs the server to own the relay (Config.CI):
// realized labels come back from the CI itself. Audits are billed CI spend
// (visible as DriftAuditFrames) but are not marshalling relays: they bypass
// the fleet arbiter and are excluded from EstimatedUSD.
type AdaptConfig = drift.Config

// DefaultAdaptConfig returns drift.DefaultConfig: a 40-outcome window at 5%
// significance, a 1024-record buffer, 48 post-alarm outcomes before
// recalibrating, and a 10% audit rate.
func DefaultAdaptConfig() AdaptConfig { return drift.DefaultConfig() }

// AdoptClassifier installs cls into every session tagged with scene except
// exceptSession (the publishing session, which already swapped itself).
// Each adopting session gets a fresh unit built from its CURRENT bundle
// with the sibling's calibration grafted on, a new swap generation, and a
// rebased adaptation loop — the rebase Swap performs, because the adopted
// calibration invalidates buffered scores the same way. Returns how many
// sessions adopted. Scene-less sessions never adopt: "" is not a scene.
//
// The cluster tier calls this on sibling WORKERS when a scene-tagged
// session recalibrates anywhere in the fleet; handlePredict calls it
// locally on the publishing worker. Lock order matches Swap: relayMu
// (Rebase touches the loop) before mu (session table walk).
func (s *Server) AdoptClassifier(scene string, cls *conformal.Classifier, exceptSession string) (int, error) {
	if scene == "" {
		return 0, fmt.Errorf("serve: adopt: empty scene")
	}
	if cls == nil {
		return 0, fmt.Errorf("serve: adopt: nil classifier")
	}
	if cn := cls.NumEvents(); cn != s.k {
		return 0, fmt.Errorf("serve: adopt: classifier covers %d events, server expects %d", cn, s.k)
	}
	s.lockRelay()
	defer s.unlockRelay()
	s.mu.Lock()
	defer s.mu.Unlock()
	adopted := 0
	for _, id := range s.order {
		sess := s.sessions[id]
		if sess.scene != scene || sess.id == exceptSession {
			continue
		}
		u := s.resolveUnit(sess)
		nb, err := u.bundle.WithClassifier(cls)
		if err != nil {
			return adopted, fmt.Errorf("serve: adopt into session %q: %w", sess.id, err)
		}
		sess.unit.Store(s.derive(u, nb, swapOriginShared))
		if sess.ad != nil {
			sess.ad.Rebase()
		}
		sess.sharedAdopted++
		adopted++
	}
	return adopted, nil
}
