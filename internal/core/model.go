// Package core implements EventHit, the paper's primary contribution
// (§III): a lightweight deep model that, given the covariates of a
// collection window, simultaneously predicts for every event of interest
// (a) whether the event occurs within the next time horizon and (b) a
// per-frame occurrence score over the horizon from which an occurrence
// interval is decoded.
//
// The architecture follows Figure 3: a shared sub-network (LSTM encoder
// over the M covariate vectors, then fully connected + dropout producing a
// latent vector z, concatenated with the final covariate X_n) feeding K
// event-specific sub-networks, each emitting the vector
// Θ_k = [b_k, θ_{k,1}, ..., θ_{k,H}] through a sigmoid. Training minimizes
// L_Total = L1 + L2: the existence cross-entropy and the per-frame
// occurrence cross-entropy with the inside/outside-interval normalization
// of §III, weighted per event by β_k and γ_k.
package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"eventhit/internal/mathx"
	"eventhit/internal/nn"
	"eventhit/internal/video"
)

// Config describes an EventHit network. The zero value is not usable; see
// DefaultConfig.
type Config struct {
	// InputDim is the covariate dimensionality D.
	InputDim int
	// Window is the collection-window length M.
	Window int
	// Horizon is the prediction horizon H.
	Horizon int
	// NumEvents is the number of event-specific sub-networks K.
	NumEvents int

	// HiddenLSTM is the LSTM state width of the shared encoder.
	HiddenLSTM int
	// HiddenTrunk is the width of the latent vector z.
	HiddenTrunk int
	// HiddenHead is the hidden width of each event-specific sub-network.
	HiddenHead int
	// Dropout is the drop probability applied to z during training.
	Dropout float64

	// Beta and Gamma are the per-event loss weights β_k and γ_k (§III);
	// nil means all ones.
	Beta, Gamma []float64

	// Seed keys weight initialization and dropout.
	Seed int64
}

// DefaultConfig returns a compact configuration that trains in seconds on
// a single core while following the paper's architecture.
func DefaultConfig(inputDim, window, horizon, numEvents int) Config {
	return Config{
		InputDim:    inputDim,
		Window:      window,
		Horizon:     horizon,
		NumEvents:   numEvents,
		HiddenLSTM:  24,
		HiddenTrunk: 24,
		HiddenHead:  32,
		Dropout:     0.1,
		Seed:        1,
	}
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	switch {
	case c.InputDim <= 0:
		return fmt.Errorf("core: InputDim %d must be positive", c.InputDim)
	case c.Window <= 0:
		return fmt.Errorf("core: Window %d must be positive", c.Window)
	case c.Horizon <= 0:
		return fmt.Errorf("core: Horizon %d must be positive", c.Horizon)
	case c.NumEvents <= 0:
		return fmt.Errorf("core: NumEvents %d must be positive", c.NumEvents)
	case c.HiddenLSTM <= 0 || c.HiddenTrunk <= 0 || c.HiddenHead <= 0:
		return fmt.Errorf("core: hidden sizes must be positive")
	case !(c.Dropout >= 0 && c.Dropout < 1):
		return fmt.Errorf("core: Dropout %v must be in [0,1)", c.Dropout)
	case c.Beta != nil && len(c.Beta) != c.NumEvents:
		return fmt.Errorf("core: Beta has %d weights, want %d", len(c.Beta), c.NumEvents)
	case c.Gamma != nil && len(c.Gamma) != c.NumEvents:
		return fmt.Errorf("core: Gamma has %d weights, want %d", len(c.Gamma), c.NumEvents)
	}
	return nil
}

// head is one event-specific sub-network: zcat -> ReLU(hidden) -> 1+H
// logits.
type head struct {
	fc1 *nn.Dense
	fc2 *nn.Dense
}

// Model is a trained or trainable EventHit network.
//
// Inference through Exist, ThetaRows and Theta only reads the weights and
// writes the caller's Scratch, so any number of goroutines may share one
// Model as long as each brings its own Scratch and nothing trains or loads
// weights meanwhile. Predict, PredictInto, Logits and Loss run on scratch
// the Model owns, and Train writes the weights (its workers keep their
// activations in tapes of their own): those are for one goroutine at a
// time.
type Model struct {
	cfg    Config
	lstm   *nn.LSTM
	trunk  *nn.Dense
	drop   *nn.Dropout
	heads  []*head
	params []*nn.Param
	// version counts weight changes (Train bumps it after every optimizer
	// step): a Scratch that kept projections under an earlier version drops
	// them, and so does packed.
	version int
	// packed is every forward weight matrix packed under version, built by
	// the first forward pass under it and shared by training and every
	// Scratch.
	packed atomic.Pointer[packed]

	// sc backs Predict and PredictInto.
	sc Scratch
}

// New constructs an EventHit model from cfg with freshly initialized
// weights. Each layer draws from a stream of its own, split off the seed's
// in a fixed order: the streams' seeds are drawn first, and the layers then
// seed their streams and initialize on runtime.GOMAXPROCS(0) workers, so
// the weights are the serial construction's. The model carries no
// gradients: Train attaches them for the call.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return build(cfg, true), nil
}

// build constructs a model from cfg, which validates, with its weights
// initialized when init is set and zero otherwise (for Clone and Load,
// which copy or decode them in). The dropout stream is New's either way.
func build(cfg Config, init bool) *Model {
	g := mathx.NewRNG(cfg.Seed)
	// SplitSeed advances g: the trunk's stream is drawn first, then
	// dropout's, the encoder's, and each head's fc1 and fc2 in head order.
	// Reordering the draws changes every seed's weights.
	trunkS, dropS, lstmS := g.SplitSeed(2), g.SplitSeed(3), g.SplitSeed(1)
	stream := func(seed int64) *mathx.RNG {
		if !init {
			return nil // nn leaves the weights zero
		}
		return mathx.NewRNG(seed)
	}
	m := &Model{cfg: cfg}
	inits := []func(){
		func() { m.drop = nn.NewDropout(cfg.Dropout, mathx.NewRNG(dropS)) },
		func() { m.trunk = nn.NewDense("shared.trunk", cfg.HiddenLSTM, cfg.HiddenTrunk, stream(trunkS)) },
		func() { m.lstm = nn.NewLSTM("shared.lstm", cfg.InputDim, cfg.HiddenLSTM, stream(lstmS)) },
	}
	for k := 0; k < cfg.NumEvents; k++ {
		h, fc1S, fc2S := new(head), g.SplitSeed(int64(10+2*k)), g.SplitSeed(int64(11+2*k))
		m.heads = append(m.heads, h)
		inits = append(inits,
			func() {
				h.fc1 = nn.NewDense(fmt.Sprintf("head%d.fc1", k), cfg.HiddenTrunk+cfg.InputDim, cfg.HiddenHead, stream(fc1S))
			},
			func() { h.fc2 = nn.NewDense(fmt.Sprintf("head%d.fc2", k), cfg.HiddenHead, 1+cfg.Horizon, stream(fc2S)) })
	}
	_ = mathx.ForEach(len(inits), runtime.GOMAXPROCS(0), func(i int) error { // fn never fails
		inits[i]()
		return nil
	})
	layers := []nn.Layer{m.lstm, m.trunk}
	for _, h := range m.heads {
		layers = append(layers, h.fc1, h.fc2)
	}
	m.params = nn.CollectParams(layers...)
	return m
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Clone returns a structurally identical model carrying a copy of m's
// current weights. Nothing is shared: the clone has its own scratch and
// dropout stream (the one New(m.Config()) seeds), so it can predict or
// train concurrently with m. strategy.Bundle.Clone builds on it.
func (m *Model) Clone() *Model {
	c := build(m.cfg, false)
	nn.CopyParams(c.params, m.params)
	return c
}

// NumParams returns the number of scalar weights.
func (m *Model) NumParams() int { return nn.NumParams(m.params) }

// Output is the decoded network output for one record: per-event existence
// probabilities b_k and per-frame occurrence probabilities θ_{k,v}
// (Theta[k][v-1] scores horizon offset v).
type Output struct {
	B     []float64
	Theta [][]float64
}

// tape is one record's pass through the network in training: every
// activation its backward pass reads, the gradients it leaves for the
// weight update, and its loss. Workers fill distinct tapes from the same
// weights, so records of a minibatch run concurrently.
type tape struct {
	lstm nn.LSTMTape
	h    []float64   // h_n, the trunk's input (in lstm)
	z    []float64   // the trunk's output after the ReLU
	mask []float64   // the dropout mask over z; nil without dropout
	zcat []float64   // [dropout(z) ; X_n], every head's input
	hid  [][]float64 // per head: the hidden layer after the ReLU
	// out holds per head the 1+H logits (see forward) until recordLoss
	// replaces them with dL/dlogits.
	out   [][]float64
	dhid  [][]float64 // per head: dL/dhidden, gated by the ReLU
	dzk   []float64   // one head's dL/dzcat
	dzcat []float64   // dL/dzcat over the heads; [:HiddenTrunk] ends as the trunk's dL/dy
	dh    []float64   // dL/dh_n
	// target and weight hold one head's H per-frame targets and loss
	// weights (see recordLoss).
	target, weight []float64
	loss           float64
}

// newTape returns a tape sized for m, its buffers carved from one
// allocation (see nn.LSTMTape); dropout gives it a mask.
func (m *Model) newTape() *tape {
	c := m.cfg
	nz, k := c.HiddenTrunk+c.InputDim, c.NumEvents
	buf := make([]float64, 2*c.HiddenTrunk+3*nz+c.HiddenLSTM+k*(2*c.HiddenHead+1+c.Horizon)+2*c.Horizon)
	take := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	rows := func(w int) [][]float64 {
		out := make([][]float64, k)
		for i := range out {
			out[i] = take(w)
		}
		return out
	}
	tp := &tape{
		z:      take(c.HiddenTrunk),
		zcat:   take(nz),
		hid:    rows(c.HiddenHead),
		out:    rows(1 + c.Horizon),
		dhid:   rows(c.HiddenHead),
		dzk:    take(nz),
		dzcat:  take(nz),
		dh:     take(c.HiddenLSTM),
		target: take(c.Horizon),
		weight: take(c.Horizon),
	}
	if mask := take(c.HiddenTrunk); c.Dropout > 0 {
		tp.mask = mask
	}
	return tp
}

// forward runs x through the network over p (the weights packed under the
// current version) into tp, dropping out z under tp.mask when there is one.
// Every head gets its hidden layer and b_k's logit; the H occurrence logits
// follow where want is nil or want[k] holds. recordLoss reads nothing more
// of a head whose event is absent, and each logit is its own row of fc2,
// so what it reads is the same either way.
func (m *Model) forward(tp *tape, x [][]float64, want []bool, p *packed) {
	if len(x) != m.cfg.Window {
		panic(fmt.Sprintf("core: covariates have %d rows, model window is %d", len(x), m.cfg.Window))
	}
	tp.h = m.lstm.Forward(&tp.lstm, x, &p.lstm)
	m.trunk.ApplyRows(tp.z, tp.h, 0, &p.trunk)
	nn.ReLU(tp.z)
	z := tp.zcat[:m.cfg.HiddenTrunk]
	if tp.mask != nil {
		nn.ApplyMask(z, tp.z, tp.mask)
	} else {
		copy(z, tp.z)
	}
	copy(tp.zcat[m.cfg.HiddenTrunk:], x[len(x)-1])
	for k, hd := range m.heads {
		hd.fc1.ApplyRows(tp.hid[k], tp.zcat, 0, &p.fc1[k])
		nn.ReLU(tp.hid[k])
		if want == nil || want[k] {
			hd.fc2.ApplyRows(tp.out[k], tp.hid[k], 0, &p.fc2[k])
		} else {
			hd.fc2.ApplyRows(tp.out[k][:1], tp.hid[k], 0, &p.fc2[k])
		}
	}
}

// backward propagates the logits' gradients in tp.out down to every
// layer's output gradient, leaving in tp what the weight update sums (see
// trainer.collect). It reads the weights and writes only tp. A head whose
// event is absent has zero gradient past b_k's logit, whose rows the
// backward kernels skip.
func (m *Model) backward(tp *tape) {
	dzcat := tp.dzcat
	mathx.Fill(dzcat, 0)
	for k, hd := range m.heads {
		hd.fc2.Backward(tp.dhid[k], tp.out[k])
		nn.ReLUGrad(tp.dhid[k], tp.hid[k])
		hd.fc1.Backward(tp.dzk, tp.dhid[k])
		mathx.Axpy(1, tp.dzk, dzcat)
	}
	dz := dzcat[:m.cfg.HiddenTrunk]
	if tp.mask != nil {
		nn.MaskGrad(dz, tp.mask)
	}
	nn.ReLUGrad(dz, tp.z)
	m.trunk.Backward(tp.dh, dz)
	m.lstm.Backward(&tp.lstm, tp.dh, nil)
}

// Scratch is the memory one inference writes: every activation between the
// covariate window and the head logits, plus — once an Exist names a stream
// frame — that stream's input-projection ring (see projRing), which makes a
// Scratch worth keeping per stream. The zero value is ready; it sizes itself
// to the model it is used with and regrows when a later model is wider (a
// hot swap may change the hidden widths). One Scratch serves one inference
// at a time.
type Scratch struct {
	buf []float64
	// owner is the model of the last Exist: Theta reads the activations
	// that pass left behind, so it must follow on the same pair.
	owner *Model
	ring  projRing
}

// carve sizes sc for m and returns its three regions: encoder state,
// [z ; X_n] and the K post-ReLU head hidden vectors.
func (m *Model) carve(sc *Scratch) (enc, zcat, hid []float64) {
	ne := m.lstm.InferLen()
	nz := ne + m.cfg.HiddenTrunk + m.cfg.InputDim
	n := nz + m.cfg.NumEvents*m.cfg.HiddenHead
	if len(sc.buf) < n {
		sc.buf = make([]float64, n)
	}
	return sc.buf[:ne], sc.buf[ne:nz], sc.buf[nz:n]
}

// hidden runs the shared sub-network and every head's hidden layer with
// dropout off — forward's arithmetic up to the last layer, reading the
// weights and writing only sc. frame > 0 names the stream frame of x's last
// row and lets the encoder take Wx·x_t from sc's ring.
func (m *Model) hidden(x [][]float64, frame int, sc *Scratch) {
	if len(x) != m.cfg.Window {
		panic(fmt.Sprintf("core: covariates have %d rows, model window is %d", len(x), m.cfg.Window))
	}
	enc, zcat, hid := m.carve(sc)
	p := m.packs()
	sc.owner = m
	var h []float64
	if frame > 0 {
		h = m.lstm.InferProjected(sc.ring.project(m, x, frame, &p.lstm), &p.lstm, enc)
	} else {
		h = m.lstm.Infer(x, &p.lstm, enc)
	}
	z := zcat[:m.cfg.HiddenTrunk]
	m.trunk.ApplyRows(z, h, 0, &p.trunk)
	nn.ReLU(z)
	copy(zcat[m.cfg.HiddenTrunk:], x[len(x)-1])
	hh := m.cfg.HiddenHead
	for k, hd := range m.heads {
		a := hid[k*hh : (k+1)*hh]
		hd.fc1.ApplyRows(a, zcat, 0, &p.fc1[k])
		nn.ReLU(a)
	}
}

// packed is every forward weight matrix of a model — the LSTM's pair, the
// trunk and each head's fc1 and fc2 — packed under one weight version, the
// form every forward pass reads them in.
type packed struct {
	version  int
	lstm     nn.Packed
	trunk    nn.PackedDense
	fc1, fc2 []nn.PackedDense
}

// pack packs the current weights into p, reusing its memory, and stamps it
// with the current version.
func (m *Model) pack(p *packed) {
	m.lstm.PackInto(&p.lstm)
	m.trunk.PackInto(&p.trunk)
	if len(p.fc1) != len(m.heads) {
		p.fc1, p.fc2 = make([]nn.PackedDense, len(m.heads)), make([]nn.PackedDense, len(m.heads))
	}
	for k, hd := range m.heads {
		hd.fc1.PackInto(&p.fc1[k])
		hd.fc2.PackInto(&p.fc2[k])
	}
	p.version = m.version
}

// packs returns the weights packed under the current version, packing them
// first if they changed. Racing first callers pack the same weights.
func (m *Model) packs() *packed {
	p := m.packed.Load()
	if p == nil || p.version != m.version {
		p = new(packed)
		m.pack(p)
		m.packed.Store(p)
	}
	return p
}

// weightsChanged records that the weights were written: every packed copy
// and projection ring made before is stale from here on.
func (m *Model) weightsChanged() { m.version++ }

// headLogits computes rows [lo, lo+len(dst)) of head k's output layer from
// the hidden vector the last hidden pass left in sc.
func (m *Model) headLogits(k int, sc *Scratch, lo int, dst []float64) {
	if sc.owner != m {
		panic("core: Scratch was last used with another model")
	}
	_, _, hid := m.carve(sc)
	hh := m.cfg.HiddenHead
	m.heads[k].fc2.ApplyRows(dst, hid[k*hh:(k+1)*hh], lo, &m.packs().fc2[k])
}

// Exist is the first phase of inference: it runs the network up to every
// head's hidden layer and writes the K existence probabilities b_k into b.
// frame > 0 says x's last row is that frame of the stream sc is kept for
// (row i is frame frame-M+1+i): the LSTM encoder then reuses the input
// projections sc holds of frames it saw in earlier windows, each verified
// against the row presented, so b is bit-identical whatever frame says;
// frame <= 0 means no identity and recomputes everything. What the decision
// does not read is not computed: Θ_k, H output rows and H sigmoids per
// head, waits for ThetaRows.
func (m *Model) Exist(x [][]float64, frame int, sc *Scratch, b []float64) {
	m.hidden(x, frame, sc)
	for k := range m.heads {
		var l [1]float64
		m.headLogits(k, sc, 0, l[:])
		b[k] = mathx.Sigmoid(l[0])
	}
}

// ThetaRows is the second phase: dst receives θ_{k,lo+1} … θ_{k,lo+len(dst)},
// rows [lo, lo+len(dst)) of head k's per-frame occurrence probabilities,
// from the activations the last Exist left in sc. Each value is
// bit-identical to what a full forward pass computes, whichever heads and
// rows are asked for and in whatever order.
func (m *Model) ThetaRows(k int, sc *Scratch, lo int, dst []float64) {
	m.headLogits(k, sc, 1+lo, dst)
	mathx.SigmoidInto(dst, dst)
}

// Theta is ThetaRows over all H rows.
func (m *Model) Theta(k int, sc *Scratch, theta []float64) { m.ThetaRows(k, sc, 0, theta) }

// Predict runs inference (dropout disabled) on one covariate window and
// returns probabilities. The Output owns its slices; it survives any later
// Predict.
func (m *Model) Predict(x [][]float64) Output {
	var out Output
	m.PredictInto(x, &out)
	return out
}

// PredictInto is Predict writing into caller-owned buffers: out's slices
// are reused when large enough, so a hot loop that recycles one Output
// allocates nothing per call. The buffers are overwritten by the next
// PredictInto with the same out.
func (m *Model) PredictInto(x [][]float64, out *Output) {
	growOutput(out, len(m.heads), m.cfg.Horizon)
	m.Exist(x, 0, &m.sc, out.B)
	for k := range m.heads {
		m.Theta(k, &m.sc, out.Theta[k])
	}
}

// growOutput sizes out for k events over horizon h, reusing capacity.
func growOutput(out *Output, k, h int) {
	if cap(out.B) < k {
		out.B = make([]float64, k)
	}
	out.B = out.B[:k]
	if cap(out.Theta) < k {
		out.Theta = append(out.Theta[:cap(out.Theta)], make([][]float64, k-cap(out.Theta))...)
	}
	out.Theta = out.Theta[:k]
	for i := range out.Theta {
		if cap(out.Theta[i]) < h {
			out.Theta[i] = make([]float64, h)
		}
		out.Theta[i] = out.Theta[i][:h]
	}
}

// DecodeExistence applies Equation (4): event k is predicted to occur when
// b_k >= tau1.
func DecodeExistence(out Output, tau1 float64) []bool {
	pred := make([]bool, len(out.B))
	for k, b := range out.B {
		pred[k] = b >= tau1
	}
	return pred
}

// DecodeInterval applies Equations (5)-(6): the occurrence interval spans
// the first through last horizon offsets whose θ is at least tau2
// (1-based offsets). When no offset reaches tau2 the interval degenerates
// to the argmax offset and thresholdMet is false — a defined point estimate
// is required downstream by C-REGRESS.
func DecodeInterval(theta []float64, tau2 float64) (iv video.Interval, thresholdMet bool) {
	lo, hi := -1, -1
	for v, p := range theta {
		if p >= tau2 {
			if lo < 0 {
				lo = v
			}
			hi = v
		}
	}
	if lo < 0 {
		best := mathx.MaxIdx(theta)
		return video.Interval{Start: best + 1, End: best + 1}, false
	}
	return video.Interval{Start: lo + 1, End: hi + 1}, true
}

// ThetaRower is the row-range view of Θ that DecodeEdges reads; *Model and
// *QuantModel implement it.
type ThetaRower interface {
	ThetaRows(k int, sc *Scratch, lo int, dst []float64)
}

// edgeBlock is how many rows of Θ DecodeEdges asks for at a time: a
// multiple of the four- and eight-row passes of the float and fixed-point
// output layers.
const edgeBlock = 16

// DecodeEdges is DecodeInterval(Θ_k, tau2) computing only the rows the
// answer depends on: blocks from the left until the first θ >= tau2, then
// from the right until the last; rows between the two are never looked at
// by Equations (5)-(6), so they are not computed. When no row reaches tau2
// every row has been computed and the argmax fallback sees all of Θ_k.
// theta is H floats of scratch; only the rows computed are written.
func DecodeEdges(p ThetaRower, k int, sc *Scratch, theta []float64, tau2 float64) (iv video.Interval, thresholdMet bool) {
	H := len(theta)
	first, done := -1, 0 // rows [0, done) are computed
	for first < 0 && done < H {
		hi := min(done+edgeBlock, H)
		p.ThetaRows(k, sc, done, theta[done:hi])
		for v := done; v < hi; v++ {
			if theta[v] >= tau2 {
				first = v
				break
			}
		}
		done = hi
	}
	if first < 0 {
		best := mathx.MaxIdx(theta)
		return video.Interval{Start: best + 1, End: best + 1}, false
	}
	for top := H; top > done; {
		lo := max(top-edgeBlock, done)
		p.ThetaRows(k, sc, lo, theta[lo:top])
		for v := top - 1; v >= lo; v-- {
			if theta[v] >= tau2 {
				return video.Interval{Start: first + 1, End: v + 1}, true
			}
		}
		top = lo
	}
	last := done - 1 // the right scan met the left one: the last hit is at or above first
	for !(theta[last] >= tau2) {
		last--
	}
	return video.Interval{Start: first + 1, End: last + 1}, true
}

// DecodeIntervals is the multi-instance extension of Equation (6) the
// paper sketches in footnote 1 (§II): instead of collapsing all
// above-threshold offsets into one min..max span, it returns every
// maximal run of offsets with θ >= tau2, merging runs separated by gaps
// of at most mergeGap frames (small dips below the threshold inside one
// occurrence). With mergeGap >= len(theta) it degenerates to
// DecodeInterval's single span. An empty slice means no offset reached
// tau2.
func DecodeIntervals(theta []float64, tau2 float64, mergeGap int) []video.Interval {
	if mergeGap < 0 {
		mergeGap = 0
	}
	var out []video.Interval
	runStart := -1
	last := -1
	for v, p := range theta {
		if p < tau2 {
			continue
		}
		switch {
		case runStart < 0:
			runStart = v
		case v-last > mergeGap+1:
			out = append(out, video.Interval{Start: runStart + 1, End: last + 1})
			runStart = v
		}
		last = v
	}
	if runStart >= 0 {
		out = append(out, video.Interval{Start: runStart + 1, End: last + 1})
	}
	return out
}
