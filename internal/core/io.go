package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math/bits"

	"eventhit/internal/nn"
)

// Save writes the model configuration and weights to w.
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m.cfg); err != nil {
		return fmt.Errorf("core: encode config: %w", err)
	}
	return nn.SaveParams(w, m.params)
}

// Load reads a model written by Save, refusing one whose weights would take
// more than maxBytes in memory, 8 bytes each. The configuration comes first
// in the stream and fixes how many weights follow, so the refusal comes
// before anything is allocated: a bundle of a few hundred bytes cannot make
// Load build a model of gigabytes. A trained weight is a full-precision
// float64, 9 bytes of gob, so the size of a bundle file bounds what its own
// weights take (eventhittrain loads every bundle it saves back under that
// limit). The reader is normalized to an io.ByteReader so multiple gob
// streams decode without over-reading.
func Load(r io.Reader, maxBytes int64) (*Model, error) {
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	var cfg Config
	if err := gob.NewDecoder(r).Decode(&cfg); err != nil {
		return nil, fmt.Errorf("core: decode config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n, ok := cfg.weightBytes(); !ok || n > uint64(max(maxBytes, 0)) {
		return nil, fmt.Errorf("core: config (InputDim %d, HiddenLSTM %d, HiddenTrunk %d, HiddenHead %d, Horizon %d, NumEvents %d) takes more than the %d bytes allowed for weights",
			cfg.InputDim, cfg.HiddenLSTM, cfg.HiddenTrunk, cfg.HiddenHead, cfg.Horizon, cfg.NumEvents, maxBytes)
	}
	m := build(cfg, false) // LoadParams writes every weight
	if err := nn.LoadParams(r, m.params); err != nil {
		return nil, err
	}
	return m, nil
}

// weightBytes returns 8 bytes per parameter of a model of the validated
// configuration c — the parameters New allocates, layer by layer — and
// false if the count overflows a uint64.
func (c Config) weightBytes() (uint64, bool) {
	over := false
	mul := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		over = over || hi != 0
		return lo
	}
	add := func(a, b uint64) uint64 {
		s, carry := bits.Add64(a, b, 0)
		over = over || carry != 0
		return s
	}
	d, h, t, hh := uint64(c.InputDim), uint64(c.HiddenLSTM), uint64(c.HiddenTrunk), uint64(c.HiddenHead)
	lstm := mul(mul(4, h), add(add(d, h), 1))                               // wx, wh, b
	trunk := mul(t, h+1)                                                    // w, b
	head := add(mul(hh, add(add(t, d), 1)), mul(uint64(c.Horizon)+1, hh+1)) // fc1, fc2
	n := add(add(lstm, trunk), mul(uint64(c.NumEvents), head))
	return mul(n, 8), !over
}
