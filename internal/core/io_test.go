package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"eventhit/internal/nn"
)

// legacyConfig is Config as bundles carried it while the shared encoder was
// selectable: the same fields plus Encoder, where "" and "lstm" meant the
// LSTM. Gob matches fields by name, so encoding it writes the config those
// bundles hold.
type legacyConfig struct {
	InputDim, Window, Horizon, NumEvents int
	HiddenLSTM, HiddenTrunk, HiddenHead  int
	Dropout                              float64
	Encoder                              string
	Beta, Gamma                          []float64
	Seed                                 int64
}

// legacyBundle is what Save wrote for a model of cfg with encoder enc and
// weights params.
func legacyBundle(t *testing.T, cfg Config, enc string, params []*nn.Param) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	lc := legacyConfig{
		InputDim: cfg.InputDim, Window: cfg.Window, Horizon: cfg.Horizon, NumEvents: cfg.NumEvents,
		HiddenLSTM: cfg.HiddenLSTM, HiddenTrunk: cfg.HiddenTrunk, HiddenHead: cfg.HiddenHead,
		Dropout: cfg.Dropout, Encoder: enc, Beta: cfg.Beta, Gamma: cfg.Gamma, Seed: cfg.Seed,
	}
	if err := gob.NewEncoder(&buf).Encode(lc); err != nil {
		t.Fatal(err)
	}
	if err := nn.SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestParamNames pins the parameter names in model order. A bundle's
// weights are matched by these names, and gob drops the Encoder field of
// an older config unread, so the names are the only thing that tells a
// bundle of another encoder apart.
func TestParamNames(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range m.params {
		got = append(got, p.Name)
	}
	want := []string{
		"shared.lstm.wx", "shared.lstm.wh", "shared.lstm.b",
		"shared.trunk.w", "shared.trunk.b",
		"head0.fc1.w", "head0.fc1.b", "head0.fc2.w", "head0.fc2.b",
		"head1.fc1.w", "head1.fc1.b", "head1.fc2.w", "head1.fc2.b",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("parameter names %q, want %q", got, want)
	}
}

// TestLoadLegacyBundles: a bundle whose config still carries Encoder loads
// when that names the LSTM, predicts bit for bit as the model it was
// written from and saves again as that model does; one naming another
// encoder, with that encoder's weights, is refused.
func TestLoadLegacyBundles(t *testing.T) {
	cfg := tinyConfig()
	m, x := inferModelOf(t, cfg)
	want := outputBits(m, x, 0, &Scratch{})
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	for _, enc := range []string{"", "lstm"} {
		legacy := legacyBundle(t, cfg, enc, m.params)
		got, err := Load(legacy, int64(legacy.Len()))
		if err != nil {
			t.Fatalf("encoder %q: %v", enc, err)
		}
		sameOutputs(t, "encoder "+enc, outputBits(got, x, 0, &Scratch{}), want)
		var again bytes.Buffer
		if err := got.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), saved.Bytes()) {
			t.Fatalf("encoder %q: loaded bundle saves to other bytes than its model", enc)
		}
	}

	D, H := cfg.InputDim, cfg.HiddenLSTM
	for _, c := range []struct {
		enc    string
		params []*nn.Param // the encoder's weights, as that encoder named them
	}{
		{"gru", []*nn.Param{
			nn.NewParam("shared.gru.wx", 2*H*D), nn.NewParam("shared.gru.wh", 2*H*H), nn.NewParam("shared.gru.b", 2*H),
			nn.NewParam("shared.gru.wxc", H*D), nn.NewParam("shared.gru.whc", H*H), nn.NewParam("shared.gru.bc", H),
		}},
		{"conv", []*nn.Param{nn.NewParam("shared.conv.w", H*5*D), nn.NewParam("shared.conv.b", H)}},
		{"mean", []*nn.Param{nn.NewParam("shared.meanproj.w", H*D), nn.NewParam("shared.meanproj.b", H)}},
	} {
		// The LSTM's three weights lead m.params; the rest are shared.
		params := append(c.params, m.params[3:]...)
		legacy := legacyBundle(t, cfg, c.enc, params)
		_, err := Load(legacy, int64(legacy.Len()))
		if err == nil || !strings.Contains(err.Error(), "shared."+c.enc) {
			t.Errorf("encoder %q: Load returned %v, want an error naming its weights", c.enc, err)
		}
	}
}

// TestLoadRefusesOversizedConfig: Load checks the weights a config asks for
// against its byte limit before it builds the model. The limit is exact at
// 8 bytes per parameter, and a config whose count overflows is refused, not
// wrapped.
func TestLoadRefusesOversizedConfig(t *testing.T) {
	cfg := tinyConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	need := int64(8 * m.NumParams())
	if got, ok := cfg.weightBytes(); !ok || got != uint64(need) {
		t.Fatalf("weightBytes = %d, %v; the model has %d bytes of weights", got, ok, need)
	}
	if _, err := Load(bytes.NewReader(saved.Bytes()), need); err != nil {
		t.Fatalf("limit = the weights' size: %v", err)
	}
	if _, err := Load(bytes.NewReader(saved.Bytes()), need-1); err == nil || !strings.Contains(err.Error(), "bytes allowed for weights") {
		t.Fatalf("limit one byte short: %v, want a refusal", err)
	}
	for _, c := range []struct {
		name      string
		d, h, hor int
	}{
		{"wide", 2048, 2048, 6},
		{"count-overflows", math.MaxInt, math.MaxInt, 6},
		{"horizon-overflows", 3, 3, math.MaxInt},
	} {
		big := cfg
		big.InputDim, big.HiddenLSTM, big.Horizon = c.d, c.h, c.hor
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(big); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(&body, 64<<20)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "bytes allowed for weights") {
			t.Errorf("%s: Load = %v, want a refusal", c.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: allocated %d bytes before refusing", c.name, got)
		}
	}
}
