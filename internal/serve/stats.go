package serve

import (
	"net/http"

	"eventhit/internal/cloud"
	"eventhit/internal/resilience"
)

// relaySnapshot is the relay/CI state captured atomically with the server
// counters at each predict commit.
type relaySnapshot struct {
	stats   resilience.Stats
	usage   cloud.Usage
	breaker resilience.State
}

// Stats is the GET /v1/stats body, totalled across every session.
// RelayEnabled reports whether the server owns the relay (Config.CI set);
// the CI*/relay numeric fields are always present — a zero must be
// distinguishable from an omitted field, and prior to RelayEnabled a client
// could not tell "relay disabled" from "relay enabled, nothing deferred
// yet" because omitempty dropped both. Only the breakerState string is
// omitted when there is no breaker to report. FleetEnabled plays the same
// role for the admission fields.
type Stats struct {
	FramesIngested  int     `json:"framesIngested"`
	Predictions     int64   `json:"predictions"`
	Relays          int64   `json:"relays"`
	SkippedHorizons int64   `json:"skippedHorizons"`
	FramesToCloud   int64   `json:"framesToCloud"`
	EstimatedUSD    float64 `json:"estimatedUSD"`
	BruteForceUSD   float64 `json:"bruteForceUSD"`
	Sessions        int     `json:"sessions"`
	// Server-side relay health (zero values when the caller relays).
	RelayEnabled     bool    `json:"relayEnabled"`
	RelayedOK        int64   `json:"relayedOK"`
	DeferredRelays   int64   `json:"deferredRelays"`
	CIFailedAttempts int64   `json:"ciFailedAttempts"`
	CIRetried        int64   `json:"ciRetried"`
	CIBackoffMS      float64 `json:"ciBackoffMS"`
	CIBusyMS         float64 `json:"ciBusyMS"`
	CISpentUSD       float64 `json:"ciSpentUSD"`
	BreakerTrips     int64   `json:"breakerTrips"`
	BreakerState     string  `json:"breakerState,omitempty"`
	// Fleet admission control (zero values when Config.Fleet is unset).
	FleetEnabled      bool    `json:"fleetEnabled"`
	AdmissionDeferred int64   `json:"admissionDeferred"`
	AdmittedUSD       float64 `json:"admittedUSD"`
	BudgetUSD         float64 `json:"budgetUSD"`
	// CI result cache (zero values when Config.Cache is unset). CacheEnabled
	// distinguishes "cache off" from "cache on, nothing cached yet".
	CacheEnabled   bool    `json:"cacheEnabled"`
	CacheHits      int64   `json:"cacheHits"`
	CacheMisses    int64   `json:"cacheMisses"`
	CacheHitRatio  float64 `json:"cacheHitRatio"`
	CacheEntries   int     `json:"cacheEntries"`
	CacheEvictions int64   `json:"cacheEvictions"`
	CacheSavedUSD  float64 `json:"cacheSavedUSD"`
	// Hot swap & online adaptation. ModelGeneration and AdminSwaps advance
	// on POST /v1/model regardless of Adapt; the drift/recalibration fields
	// are zero unless Config.Adapt is set (AdaptEnabled distinguishes
	// "adaptation off" from "on, nothing observed yet").
	AdaptEnabled           bool   `json:"adaptEnabled"`
	ModelGeneration        uint64 `json:"modelGeneration"`
	AdminSwaps             int64  `json:"adminSwaps"`
	RecalibrationSwaps     int64  `json:"recalibrationSwaps"`
	DriftObservations      int64  `json:"driftObservations"`
	DriftAlarmEpisodes     int64  `json:"driftAlarmEpisodes"`
	DriftAudits            int64  `json:"driftAudits"`
	DriftAuditFrames       int64  `json:"driftAuditFrames"`
	RecalibrationsDeferred int64  `json:"recalibrationsDeferred"`
}

// snapshot assembles Stats from one critical section. The relay/CI fields
// come from the snapshot committed by the most recent predict, not from
// live reads of the relay client and CI locks — that is what makes the view
// tear-free: counters and CI health were captured at the same instant.
func (s *Server) snapshot() Stats {
	s.mu.Lock()
	st := Stats{
		Sessions:        len(s.sessions),
		RelayEnabled:    s.relay != nil,
		FleetEnabled:    s.arbiter != nil,
		AdaptEnabled:    s.cfg.Adapt != nil,
		ModelGeneration: s.gens.Load(),
		AdminSwaps:      s.adminSwaps,
	}
	for _, sess := range s.sessions {
		st.FramesIngested += sess.next
		st.Predictions += sess.predicts
		st.Relays += sess.relays
		st.SkippedHorizons += sess.skipped
		st.FramesToCloud += sess.frames
		st.RelayedOK += sess.relayedOK
		st.DeferredRelays += sess.deferred
		st.AdmissionDeferred += sess.admitDef
		st.RecalibrationSwaps += sess.adapt.Recalibrations
		st.DriftObservations += sess.adapt.Observations
		st.DriftAlarmEpisodes += sess.adapt.Episodes
		st.DriftAudits += sess.adapt.Audits
		st.RecalibrationsDeferred += sess.adapt.Deferred
	}
	// Every audit relays one full horizon.
	st.DriftAuditFrames = st.DriftAudits * int64(s.horizon)
	st.EstimatedUSD = float64(st.FramesToCloud) * s.cfg.PerFrameUSD
	st.BruteForceUSD = float64(st.Predictions) * float64(s.horizon) * float64(s.k) * s.cfg.PerFrameUSD
	if s.relay != nil {
		st.CIFailedAttempts = s.relaySnap.stats.Failures
		st.CIRetried = s.relaySnap.stats.Retries
		st.CIBackoffMS = s.relaySnap.stats.BackoffMS
		st.CIBusyMS = s.relaySnap.stats.BusyMS
		st.CISpentUSD = s.relaySnap.usage.SpentUSD
		st.BreakerTrips = s.relaySnap.stats.Trips
		st.BreakerState = s.relaySnap.breaker.String()
	}
	s.mu.Unlock()
	// The arbiter is internally synchronized; read it outside mu to keep
	// the lock order flat.
	if s.arbiter != nil {
		as := s.arbiter.Stats()
		st.AdmittedUSD = as.AdmittedUSD
		st.BudgetUSD = as.GlobalBudgetUSD
	}
	// The cache is likewise internally synchronized.
	if cached := s.relay.Cached(); cached != nil {
		st.CacheEnabled = true
		cs := cached.Cache().Stats()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheHitRatio = cs.HitRatio()
		st.CacheEntries = cs.Entries
		st.CacheEvictions = cs.Evictions
		st.CacheSavedUSD = cached.Savings().SavedUSD
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.snapshot())
}

// registerServeMetrics exposes the marshalling counters as func-backed
// series. A scrape takes one snapshot and every family reads it, so the
// families report one instant, and a scrape costs one pass over the
// sessions under mu and nothing on the request path.
func (s *Server) registerServeMetrics() {
	fields := []struct {
		name, help string
		get        func(Stats) float64
	}{
		{"eventhit_serve_frames_ingested_total", "frames pushed to the hosted sessions", func(st Stats) float64 { return float64(st.FramesIngested) }},
		{"eventhit_serve_predictions_total", "marshalling decisions served", func(st Stats) float64 { return float64(st.Predictions) }},
		{"eventhit_serve_relays_total", "event ranges decided for relay", func(st Stats) float64 { return float64(st.Relays) }},
		{"eventhit_serve_skipped_horizons_total", "per-event horizons not relayed", func(st Stats) float64 { return float64(st.SkippedHorizons) }},
		{"eventhit_serve_frames_to_cloud_total", "frames inside decided relay ranges", func(st Stats) float64 { return float64(st.FramesToCloud) }},
		{"eventhit_serve_relayed_ok_total", "server-side relays served by the CI", func(st Stats) float64 { return float64(st.RelayedOK) }},
		{"eventhit_serve_deferred_relays_total", "server-side relays lost to degradation", func(st Stats) float64 { return float64(st.DeferredRelays) }},
		{"eventhit_serve_admission_deferred_total", "relays declined by the fleet arbiter", func(st Stats) float64 { return float64(st.AdmissionDeferred) }},
		{"eventhit_serve_sessions", "sessions hosted by this server", func(st Stats) float64 { return float64(st.Sessions) }},
		{"eventhit_serve_estimated_usd_total", "estimated spend of decided relays", func(st Stats) float64 { return st.EstimatedUSD }},
		{"eventhit_serve_brute_force_usd_total", "what relaying every horizon would cost", func(st Stats) float64 { return st.BruteForceUSD }},
		{"eventhit_serve_swap_admin_total", "bundles swapped in via POST /v1/model", func(st Stats) float64 { return float64(st.AdminSwaps) }},
		{"eventhit_serve_swap_recalibration_total", "calibration swaps cut by the adaptation loop", func(st Stats) float64 { return float64(st.RecalibrationSwaps) }},
		{"eventhit_serve_drift_observations_total", "realized coverage outcomes fed to drift monitors", func(st Stats) float64 { return float64(st.DriftObservations) }},
		{"eventhit_serve_drift_alarm_episodes_total", "distinct coverage alarm episodes (edge-triggered)", func(st Stats) float64 { return float64(st.DriftAlarmEpisodes) }},
		{"eventhit_serve_drift_audits_total", "skipped horizons ground-truthed by audit relays", func(st Stats) float64 { return float64(st.DriftAudits) }},
		{"eventhit_serve_drift_audit_frames_total", "frames relayed for audits (CI-billed, not marshalling)", func(st Stats) float64 { return float64(st.DriftAuditFrames) }},
		{"eventhit_serve_drift_recalibrations_deferred_total", "recalibration attempts deferred for lack of post-shift positives", func(st Stats) float64 { return float64(st.RecalibrationsDeferred) }},
	}
	var snap Stats // written and read under the registry's lock
	s.metrics.OnScrape(func() { snap = s.snapshot() })
	for _, f := range fields {
		get := f.get
		s.metrics.CounterFunc(f.name, f.help, nil, func() float64 { return get(snap) })
	}
	s.metrics.GaugeFunc("eventhit_http_owned_connections",
		"keep-alive connections the server answers itself, taken over from net/http by a hot route", nil,
		func() float64 { return float64(s.owner.Len()) })
	s.metrics.GaugeFunc("eventhit_serve_swap_generation",
		"current model swap generation (boot is 0)", nil,
		func() float64 { return float64(s.gens.Load()) })
}
