package core

import (
	"fmt"

	"eventhit/internal/nn"
)

// QuantModel is the int16 fixed-point inference twin of a trained Model:
// the LSTM encoder, trunk and every head run in Q12 activations with
// LUT-based sigmoid/tanh (see internal/nn/lut.go for the number formats
// and the per-activation error bounds). It shares no state with the source
// model and is inference-only.
//
// Nothing serves through the twin: on CPUs with the float SIMD kernel it is
// the slower path. It stays as the reference the repository benchmark times
// (core.forward_quant_us, core.forward_quant_frame_us and
// strategy.predict_quant_us in bench/).
//
// Accuracy contract: per-logit probability error against the float model
// is bounded by QuantProbTol — pinned here and enforced on trained models
// by the core tests. Unlike Model, a QuantModel is single-stream state: its
// activations and the encoder's frame-keyed projection ring live in the
// twin itself, so one goroutine at a time may use it.
type QuantModel struct {
	cfg   Config
	lstm  *nn.QuantLSTM
	trunk *nn.QuantDense
	heads []quantHead
	zcat  []int32 // [z ; X_n] in Q12
}

type quantHead struct {
	fc1, fc2 *nn.QuantDense
	a        []int32 // post-ReLU hidden vector of the last hidden pass (fc1's scratch)
}

// QuantProbTol is the pinned per-logit probability error bound of the
// quantized path: for every existence score b_k and per-frame score
// θ_{k,v}, |quant - float| <= QuantProbTol on trained models. The bound
// stacks weight quantization (step/2 per weight through ~2H-term dots),
// activation quantization (2^-13 per step through the recurrence) and the
// LUT error (1e-4); empirically trained TA-task models stay under 6e-3,
// so 0.02 holds a 3x margin. Verified by core's TestQuantModelParity*.
const QuantProbTol = 0.02

// Quantize builds the fixed-point twin of m. It never fails; the error
// result is kept for the callers that already check it.
func Quantize(m *Model) (*QuantModel, error) {
	q := &QuantModel{
		cfg:   m.cfg,
		lstm:  nn.QuantizeLSTM(m.lstm),
		trunk: nn.QuantizeDense(m.trunk),
		zcat:  make([]int32, m.cfg.HiddenTrunk+m.cfg.InputDim),
	}
	for _, hd := range m.heads {
		q.heads = append(q.heads, quantHead{
			fc1: nn.QuantizeDense(hd.fc1),
			fc2: nn.QuantizeDense(hd.fc2),
		})
	}
	// Size the encoder's input-projection ring to double the window so the
	// stride-1 regime keeps every shared frame warm (results are identical
	// at any size; see nn.QuantLSTM.EnableFrameCache).
	q.lstm.EnableFrameCache(2 * m.cfg.Window)
	return q, nil
}

// Config returns the source model's configuration.
func (q *QuantModel) Config() Config { return q.cfg }

// hidden runs the fixed-point network up to every head's post-ReLU hidden
// vector. frames true marks x as a window of consecutive stream frames
// ending at frame `end`, which lets the encoder reuse cached input
// projections of overlapping windows.
func (q *QuantModel) hidden(x [][]float64, end int, frames bool) {
	if len(x) != q.cfg.Window {
		panic(fmt.Sprintf("core: covariates have %d rows, model window is %d", len(x), q.cfg.Window))
	}
	var h []int32
	if frames {
		h = q.lstm.ForwardQFrames(x, end-len(x)+1)
	} else {
		h = q.lstm.ForwardQ(x)
	}
	z := q.trunk.ForwardQ(h)
	for i, v := range z {
		if v < 0 {
			z[i] = 0 // trunk ReLU
		}
	}
	copy(q.zcat[:q.cfg.HiddenTrunk], z)
	last := x[len(x)-1]
	for i, v := range last {
		q.zcat[q.cfg.HiddenTrunk+i] = nn.QuantAct(v)
	}
	for k := range q.heads {
		hd := &q.heads[k]
		hd.a = hd.fc1.ForwardQ(q.zcat)
		for i, v := range hd.a {
			if v < 0 {
				hd.a[i] = 0 // head ReLU
			}
		}
	}
}

// exist writes b_k from output row 0 of every head.
func (q *QuantModel) exist(b []float64) {
	for k := range q.heads {
		hd := &q.heads[k]
		b[k] = nn.DequantGate(nn.SigmoidQ(hd.fc2.ForwardQRows(hd.a, 0, 1)[0]))
	}
}

// Exist mirrors Model.Exist on the fixed-point path for a window of
// consecutive stream frames ending at `frame` (see PredictFrameInto). sc is
// not used: the twin's activations live in the QuantModel, which is why it
// serves one stream at a time.
func (q *QuantModel) Exist(x [][]float64, frame int, sc *Scratch, b []float64) {
	q.hidden(x, frame, true)
	q.exist(b)
}

// ThetaRows mirrors Model.ThetaRows: rows [lo, lo+len(dst)) of head k's
// per-frame probabilities from the hidden vector the last Exist or Predict
// left in the twin.
func (q *QuantModel) ThetaRows(k int, sc *Scratch, lo int, dst []float64) {
	hd := &q.heads[k]
	for v, l := range hd.fc2.ForwardQRows(hd.a, 1+lo, 1+lo+len(dst)) {
		dst[v] = nn.DequantGate(nn.SigmoidQ(l))
	}
}

// Theta is ThetaRows over all H rows.
func (q *QuantModel) Theta(k int, sc *Scratch, theta []float64) { q.ThetaRows(k, sc, 0, theta) }

// Predict mirrors Model.Predict on the fixed-point path. The Output owns
// its slices.
func (q *QuantModel) Predict(x [][]float64) Output {
	var out Output
	q.PredictInto(x, &out)
	return out
}

// PredictInto mirrors Model.PredictInto: zero allocations per call once
// out's buffers are warm.
func (q *QuantModel) PredictInto(x [][]float64, out *Output) {
	q.predictInto(x, 0, false, out)
}

// PredictFrameInto is PredictInto for a window of consecutive stream
// frames ending at frame `end` (row i is frame end-len(x)+1+i). It returns
// the same output as PredictInto — cached input projections are verified
// against the presented covariates — but skips the encoder's Wx dot
// products for frames shared with recent calls, the dominant saving of the
// stride-1 sliding-window regime.
func (q *QuantModel) PredictFrameInto(x [][]float64, end int, out *Output) {
	q.predictInto(x, end, true, out)
}

func (q *QuantModel) predictInto(x [][]float64, end int, frames bool, out *Output) {
	growOutput(out, len(q.heads), q.cfg.Horizon)
	q.hidden(x, end, frames)
	q.exist(out.B)
	for k := range q.heads {
		q.Theta(k, nil, out.Theta[k])
	}
}
