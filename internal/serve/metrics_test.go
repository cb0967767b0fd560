package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"eventhit/internal/cloud"
)

func getBody(t *testing.T, url string) (string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header
}

// TestStatsJSONShapeWithRelay pins the wire shape when the server owns the
// relay: relayEnabled is true and every CI numeric is present even at zero —
// before this, omitempty made "relay enabled, nothing deferred yet"
// indistinguishable from "relay disabled".
func TestStatsJSONShapeWithRelay(t *testing.T) {
	c, _, _ := newRelayServer(t, cloud.FaultPlan{})
	body, _ := getBody(t, c.base+"/v1/stats")
	for _, want := range []string{
		`"relayEnabled":true`,
		`"relayedOK":0`,
		`"deferredRelays":0`,
		`"ciFailedAttempts":0`,
		`"ciRetried":0`,
		`"ciBackoffMS":0`,
		`"ciBusyMS":0`,
		`"ciSpentUSD":0`,
		`"breakerTrips":0`,
		`"breakerState":"closed"`,
		`"adaptEnabled":false`,
		`"modelGeneration":0`,
		`"adminSwaps":0`,
		`"recalibrationSwaps":0`,
		`"driftAlarmEpisodes":0`,
		`"recalibrationsDeferred":0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("stats body missing %s:\n%s", want, body)
		}
	}
}

// TestStatsJSONShapeWithoutRelay: without a CI the numerics are still
// present (explicit zeros), relayEnabled is false, and only breakerState —
// a string with no meaningful zero — is omitted.
func TestStatsJSONShapeWithoutRelay(t *testing.T) {
	ts, _, _ := newTestServer(t)
	body, _ := getBody(t, ts.URL+"/v1/stats")
	for _, want := range []string{
		`"relayEnabled":false`,
		`"ciBackoffMS":0`,
		`"ciSpentUSD":0`,
		`"deferredRelays":0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("stats body missing %s:\n%s", want, body)
		}
	}
	if strings.Contains(body, "breakerState") {
		t.Errorf("breakerState leaked into a no-relay stats body:\n%s", body)
	}
}

var (
	sampleLine = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? -?[0-9.eE+-]+(Inf|NaN)?$`)
	helpLine   = regexp.MustCompile(`^# HELP [a-zA-Z_][a-zA-Z0-9_]* `)
	typeLine   = regexp.MustCompile(`^# TYPE [a-zA-Z_][a-zA-Z0-9_]* (counter|gauge|histogram)$`)
)

// TestMetricsEndpoint scrapes /metrics after real activity and checks both
// the Prometheus text framing and that every layer's families showed up.
func TestMetricsEndpoint(t *testing.T) {
	c, bw, _ := newRelayServer(t, cloud.FaultPlan{})
	pushImminentWindow(t, c, bw)
	if _, err := c.Predict(tctx, "c0", 0.95, 0.9); err != nil {
		t.Fatal(err)
	}
	body, hdr := getBody(t, c.base+"/metrics")
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case helpLine.MatchString(line), typeLine.MatchString(line), sampleLine.MatchString(line):
		default:
			t.Errorf("line %d is not valid exposition text: %q", i+1, line)
		}
	}
	for _, want := range []string{
		// serve layer
		"eventhit_serve_predictions_total 1",
		"eventhit_serve_relayed_ok_total 1",
		// HTTP layer
		`eventhit_http_requests_total{code="200",endpoint="/v1/sessions/predict"} 1`,
		`eventhit_http_request_duration_seconds_bucket{endpoint="/v1/sessions/predict",le="+Inf"} 1`,
		// the client's keep-alive connection, taken over by its first push
		"eventhit_http_owned_connections 1",
		// resilience layer
		"eventhit_resilience_requests_total 1",
		"eventhit_resilience_breaker_state 0",
		// cloud layer
		"eventhit_cloud_billed_frames_total",
		"eventhit_cloud_spent_usd_total",
		// hot swap / adaptation layer (present at zero even when Adapt is off)
		"eventhit_serve_swap_generation 0",
		"eventhit_serve_swap_admin_total 0",
		"eventhit_serve_swap_recalibration_total 0",
		"eventhit_serve_drift_observations_total 0",
		"eventhit_serve_drift_alarm_episodes_total 0",
		"eventhit_serve_drift_audits_total 0",
		"eventhit_serve_drift_recalibrations_deferred_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestPprofGatedByConfig: the profiling mux is reachable only when
// EnablePprof is set.
func TestPprofGatedByConfig(t *testing.T) {
	bw := getBundle(t)
	for _, enabled := range []bool{false, true} {
		srv, err := New(Config{
			Bundle:            bw.b,
			EventNames:        []string{"Volleyball Spiking"},
			PerFrameUSD:       0.001,
			DefaultConfidence: 0.9,
			DefaultCoverage:   0.9,
			EnablePprof:       enabled,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		if enabled && resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof enabled but index returned %d", resp.StatusCode)
		}
		if !enabled && resp.StatusCode == http.StatusOK {
			t.Fatal("pprof reachable without EnablePprof")
		}
	}
}

// TestStatsConsistentUnderLoad scrapes /v1/stats and /metrics while
// predicts relay to a healthy CI — run with -race. Every scrape must be
// internally consistent: with zero faults each decided relay is served, so
// relayedOK == relays and the CI bill equals the server's own estimate
// (both price frames at $0.001). A torn read — counters from one predict,
// CI snapshot from another — breaks the equality by at least one relay's
// worth (>= $0.001), far above float noise.
func TestStatsConsistentUnderLoad(t *testing.T) {
	c, bw, _ := newRelayServer(t, cloud.FaultPlan{})
	pushImminentWindow(t, c, bw)
	const predictors, scrapers, perG = 4, 4, 6
	var wg sync.WaitGroup
	for i := 0; i < predictors; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				if _, err := c.Predict(tctx, "c0", 0.95, 0.9); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG*4; j++ {
				st, err := c.Stats(tctx)
				if err != nil {
					t.Error(err)
					return
				}
				if st.RelayedOK+st.DeferredRelays != st.Relays {
					t.Errorf("torn stats: relayedOK %d + deferred %d != relays %d",
						st.RelayedOK, st.DeferredRelays, st.Relays)
				}
				if math.Abs(st.CISpentUSD-st.EstimatedUSD) > 1e-9 {
					t.Errorf("torn stats: CI bill %.6f != estimate %.6f", st.CISpentUSD, st.EstimatedUSD)
				}
				if j%8 == 0 {
					getBody(t, c.base+"/metrics")
				}
			}
		}()
	}
	wg.Wait()
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(predictors * perG); st.Predictions != want || st.RelayedOK != want {
		t.Fatalf("final stats = %+v, want %d predictions all relayed ok", st, want)
	}
}

// TestMetricsScrapeIsOneInstant: a scrape reads one snapshot, which every
// serve family reports. Each predict decides relay or skip for each of the
// K events, so under concurrent predicts every exposition must hold
// relays + skipped horizons = K x predictions.
func TestMetricsScrapeIsOneInstant(t *testing.T) {
	bw := getBundle(t)
	const cams, perCam = 4, 300
	srv := sessionServer(t, nil, cams)
	for i := 0; i < cams; i++ {
		pushTo(t, srv, fmt.Sprintf("c%d", i), bw.ex, 300+i, 309+i)
	}
	sample := func(text, name string) float64 {
		m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("/metrics has no %s sample:\n%s", name, text)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	var running atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < cams; i++ {
		running.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			predict := predictCall(srv, fmt.Sprintf("c%d", i))
			for j := 0; j < perCam; j++ {
				predict()
			}
		}()
	}
	scrapes := 0
	for running.Load() > 0 || scrapes == 0 {
		var b strings.Builder
		srv.metrics.WriteText(&b)
		text := b.String()
		preds := sample(text, "eventhit_serve_predictions_total")
		decided := sample(text, "eventhit_serve_relays_total") + sample(text, "eventhit_serve_skipped_horizons_total")
		if want := float64(srv.k) * preds; decided != want {
			t.Fatalf("scrape %d mixes instants: relays + skipped = %v, K x predictions = %v", scrapes, decided, want)
		}
		scrapes++
	}
	wg.Wait()
	if st := srv.snapshot(); st.Predictions != cams*perCam {
		t.Fatalf("%d predictions, want %d", st.Predictions, cams*perCam)
	}
	t.Logf("%d scrapes held the identity", scrapes)
}
