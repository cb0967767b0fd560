// Package nn is a small, dependency-free neural network library: dense and
// LSTM layers with hand-written backpropagation, inverted dropout, a fused
// sigmoid + binary-cross-entropy loss, Xavier initialization, the Adam
// optimizer, numerical gradient checking, and gob serialization.
//
// Layers hold only their parameters. A forward pass writes its activations
// where the caller says (the LSTM's into an LSTMTape), and backward comes
// in two halves: Backward derives one sample's input and output gradients
// from its activations, reading the weights and writing only the caller's
// buffers, so samples run concurrently on one layer; AccumulateGrads sums
// a batch of samples' weight gradients into Param.G, each element in list
// order, and splits into row ranges that run concurrently. An optimizer
// step then consumes G. That is all EventHit's minibatch training loop
// (§III of the paper) requires.
package nn

import "fmt"

// Param is a learnable tensor stored flat, together with its accumulated
// gradient. Layers expose their Params so optimizers and serializers can
// treat every model uniformly.
type Param struct {
	Name string
	W    []float64 // weights, row-major where 2-D
	G    []float64 // accumulated gradient, same shape as W
}

// NewParam allocates a zeroed parameter of n weights.
func NewParam(name string, n int) *Param {
	return &Param{Name: name, W: make([]float64, n), G: make([]float64, n)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// CopyFrom copies src's weights into p, leaving gradients untouched. The
// two parameters must have the same shape.
func (p *Param) CopyFrom(src *Param) {
	if len(p.W) != len(src.W) {
		panic(fmt.Sprintf("nn: CopyFrom %q: size %d, source %q has %d",
			p.Name, len(p.W), src.Name, len(src.W)))
	}
	copy(p.W, src.W)
}

// Layer is the interface shared by every trainable component.
type Layer interface {
	// Params returns the learnable parameters (possibly none).
	Params() []*Param
}

// ZeroGrads clears the gradients of every parameter in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of scalar weights in ps.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += len(p.W)
	}
	return n
}

// CopyParams copies weights from src into dst pairwise, leaving dst's
// gradients untouched. Both slices must come from structurally identical
// models (same layer order and shapes), as produced by constructing two
// models from the same configuration.
func CopyParams(dst, src []*Param) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: CopyParams: %d parameters, source has %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i].CopyFrom(src[i])
	}
}

// CollectParams concatenates the parameters of several layers, checking for
// duplicate names (which would break serialization).
func CollectParams(layers ...Layer) []*Param {
	var out []*Param
	seen := make(map[string]bool)
	for _, l := range layers {
		for _, p := range l.Params() {
			if seen[p.Name] {
				panic(fmt.Sprintf("nn: duplicate parameter name %q", p.Name))
			}
			seen[p.Name] = true
			out = append(out, p)
		}
	}
	return out
}
