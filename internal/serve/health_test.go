package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHealthzAlwaysAlive: liveness is process-level — a draining server and
// a server with a failing ready probe still answer /healthz (and the legacy
// /v1/healthz alias) 200.
func TestHealthzAlwaysAlive(t *testing.T) {
	bw := getBundle(t)
	srv, err := New(Config{
		Bundle:            bw.b,
		EventNames:        []string{"Volleyball Spiking"},
		PerFrameUSD:       0.001,
		DefaultConfidence: 0.9,
		DefaultCoverage:   0.9,
		ReadyProbe:        func() error { return errors.New("coordinator unreachable") },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetDraining(true)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, path := range []string{"/healthz", "/v1/healthz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200 even while draining", path, resp.StatusCode)
		}
	}
}

// TestReadyz exercises the readiness gate table-driven: each case mutates
// one condition and states the HTTP code plus the reason substring the 503
// body must carry.
func TestReadyz(t *testing.T) {
	probeErr := errors.New("coordinator unreachable")
	cases := []struct {
		name       string
		probe      func() error
		mutate     func(*Server)
		wantReady  bool
		wantReason string
	}{
		{name: "ready", wantReady: true},
		{
			name:       "draining",
			mutate:     func(s *Server) { s.SetDraining(true) },
			wantReady:  false,
			wantReason: "draining",
		},
		{
			name: "draining cleared",
			mutate: func(s *Server) {
				s.SetDraining(true)
				s.SetDraining(false)
			},
			wantReady: true,
		},
		{
			name:       "ready probe failing",
			probe:      func() error { return probeErr },
			wantReady:  false,
			wantReason: "coordinator unreachable",
		},
		{name: "ready probe passing", probe: func() error { return nil }, wantReady: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bw := getBundle(t)
			srv, err := New(Config{
				Bundle:            bw.b,
				EventNames:        []string{"Volleyball Spiking"},
				PerFrameUSD:       0.001,
				DefaultConfidence: 0.9,
				DefaultCoverage:   0.9,
				ReadyProbe:        tc.probe,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.mutate != nil {
				tc.mutate(srv)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			resp, err := ts.Client().Get(ts.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body ReadyResponse
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			wantCode := http.StatusOK
			if !tc.wantReady {
				wantCode = http.StatusServiceUnavailable
			}
			if resp.StatusCode != wantCode || body.Ready != tc.wantReady {
				t.Fatalf("readyz = %d ready=%v, want %d ready=%v (reasons %v)",
					resp.StatusCode, body.Ready, wantCode, tc.wantReady, body.Reasons)
			}
			if tc.wantReason != "" && !strings.Contains(fmt.Sprint(body.Reasons), tc.wantReason) {
				t.Fatalf("reasons %v missing %q", body.Reasons, tc.wantReason)
			}
			c := NewClient(ts.URL, ts.Client())
			if got := c.Ready(tctx); got != tc.wantReady {
				t.Fatalf("Client.Ready = %v, want %v", got, tc.wantReady)
			}
			if !c.Healthy(tctx) {
				t.Fatal("liveness must hold regardless of readiness")
			}
		})
	}
}

// TestClientReadyUnreachable: transport errors count as not ready — exactly
// how a front tier must score a dead worker.
func TestClientReadyUnreachable(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", nil)
	if c.Ready(tctx) {
		t.Fatal("unreachable server reported ready")
	}
	if c.Healthy(tctx) {
		t.Fatal("unreachable server reported healthy")
	}
}
