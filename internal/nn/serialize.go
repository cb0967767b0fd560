package nn

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"
)

// snapshot is the on-disk form. SaveParams writes Params, the weights in
// model order, so equal weights encode to equal bytes; files written before
// that hold the Weights map instead, whose gob order is random. Gob matches
// fields by name, so one struct reads both.
type snapshot struct {
	Weights map[string][]float64
	Params  []namedWeights
}

// namedWeights is one parameter of a snapshot.
type namedWeights struct {
	Name string
	W    []float64
}

// SaveParams writes the weights of params to w in gob format.
func SaveParams(w io.Writer, params []*Param) error {
	s := snapshot{Params: make([]namedWeights, len(params))}
	seen := make(map[string]bool, len(params))
	for i, p := range params {
		if seen[p.Name] {
			return fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
		s.Params[i] = namedWeights{p.Name, p.W}
	}
	return gob.NewEncoder(w).Encode(s)
}

// LoadParams reads weights written by SaveParams, in either form, into
// params, matching by name. The snapshot must hold every parameter once,
// with an identical length and only finite weights, and nothing else. When
// reading several gob streams from one reader (as core.Load does), pass a
// reader implementing io.ByteReader.
func LoadParams(r io.Reader, params []*Param) error {
	var s snapshot
	if err := gob.NewDecoder(byteReader(r)).Decode(&s); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	if s.Weights == nil {
		s.Weights = make(map[string][]float64, len(s.Params))
		for _, p := range s.Params {
			if _, dup := s.Weights[p.Name]; dup {
				return fmt.Errorf("nn: snapshot lists parameter %q twice", p.Name)
			}
			s.Weights[p.Name] = p.W
		}
	}
	known := make(map[string]bool, len(params))
	for _, p := range params {
		known[p.Name] = true
	}
	var unknown []string
	for name := range s.Weights {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return fmt.Errorf("nn: snapshot has parameter %q the model lacks", unknown[0])
	}
	for _, p := range params {
		w, ok := s.Weights[p.Name]
		if !ok {
			return fmt.Errorf("nn: snapshot missing parameter %q", p.Name)
		}
		if len(w) != len(p.W) {
			return fmt.Errorf("nn: parameter %q has %d weights, snapshot has %d",
				p.Name, len(p.W), len(w))
		}
		for i, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: parameter %q weight %d is %v", p.Name, i, v)
			}
		}
		copy(p.W, w)
	}
	return nil
}

// byteReader normalizes r so that consecutive gob streams can be decoded
// from the same underlying reader: gob.Decoder wraps non-ByteReaders in
// its own buffer and over-reads past the first stream.
func byteReader(r io.Reader) io.Reader {
	if _, ok := r.(io.ByteReader); ok {
		return r
	}
	return bufio.NewReader(r)
}
