package core

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/nn"
)

// TrainConfig controls the end-to-end training loop.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the number of records whose gradients are accumulated
	// per optimizer step (the paper trains with batch size 128; smaller
	// values work fine for the compact configurations here).
	BatchSize int
	// LR is the Adam learning rate, positive and finite.
	LR float64
	// GradClip is a per-element gradient clamp; 0 disables. Negative and
	// NaN are refused.
	GradClip float64
	// Seed keys the per-epoch shuffle.
	Seed int64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
	// Parallelism must be 0; Train rejects any other value. Training uses
	// every P (runtime.GOMAXPROCS) and is bit-identical at any count, so
	// there is nothing to choose. The field selected the removed
	// data-parallel engine and stays only because bench/probes.go (frozen)
	// still assigns it; it goes when a [benchmark] change drops that
	// assignment.
	Parallelism int
}

// DefaultTrainConfig returns settings that converge on the simulated
// workloads in a few seconds of CPU time.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 12, BatchSize: 32, LR: 3e-3, GradClip: 5, Seed: 1}
}

// TrainStats reports the loss trajectory.
type TrainStats struct {
	// EpochLoss is the mean per-record loss after each epoch.
	EpochLoss []float64
	// ValLoss, BestEpoch and StoppedEarly are what the removed early-stopping
	// option reported when it was off: nil, -1, false. Nothing sets or reads
	// them any more, but bench/offline.go (frozen) hashes fmt's %v of this
	// struct into offline_repro's decisions_digest, so the shape stays until
	// a [benchmark] PR digests EpochLoss instead.
	ValLoss      []float64
	BestEpoch    int
	StoppedEarly bool
}

// Train fits the model on recs, minimizing the mean of L1+L2 with Adam:
// per epoch a seeded shuffle, then minibatches of BatchSize records (the
// last one short), each averaging its records' gradients into one step.
//
// The loop is batch-synchronous and runs on runtime.GOMAXPROCS(0) workers
// that live for this call. Within a minibatch the weights do not change,
// so once each record's dropout mask is drawn — from the model's stream,
// in record order, before any record runs — the records are independent:
// workers take them in any order, each into a tape of its own. The weight
// gradients are then summed in parallel over disjoint row ranges, every
// element taking its records' products in record order (and the LSTM's
// steps from the last), and each range takes its Adam step as soon as it
// is summed: the step is element-wise. Each gradient, weight and loss is
// therefore bit-identical to running the records one by one on one
// goroutine, at any worker count. The same job then repacks the rows it
// stepped for the next minibatch's forward passes.
//
// The parameters' gradients belong to the call: it attaches zeroed ones,
// and they are gone from the model when it returns.
func (m *Model) Train(recs []dataset.Record, tc TrainConfig) (TrainStats, error) {
	if len(recs) == 0 {
		return TrainStats{}, fmt.Errorf("core: empty training set")
	}
	if tc.Epochs <= 0 || tc.BatchSize <= 0 || !(tc.LR > 0 && tc.LR <= math.MaxFloat64) || !(tc.GradClip >= 0) {
		return TrainStats{}, fmt.Errorf("core: invalid train config Epochs=%d BatchSize=%d LR=%v GradClip=%v", tc.Epochs, tc.BatchSize, tc.LR, tc.GradClip)
	}
	if tc.Parallelism != 0 {
		return TrainStats{}, fmt.Errorf("core: invalid train config Parallelism=%d, must be 0", tc.Parallelism)
	}
	for i, r := range recs {
		if len(r.X) != m.cfg.Window {
			return TrainStats{}, fmt.Errorf("core: record %d window %d, model expects %d", i, len(r.X), m.cfg.Window)
		}
		if len(r.Label) != m.cfg.NumEvents {
			return TrainStats{}, fmt.Errorf("core: record %d has %d events, model expects %d", i, len(r.Label), m.cfg.NumEvents)
		}
	}
	t := m.newTrainer(recs, tc)
	defer t.stop()
	g := mathx.NewRNG(tc.Seed)
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	stats := TrainStats{BestEpoch: -1}
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		g.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for lo := 0; lo < len(order); lo += tc.BatchSize {
			batch := order[lo:min(lo+tc.BatchSize, len(order))]
			t.last = epoch == tc.Epochs-1 && lo+tc.BatchSize >= len(order)
			t.minibatch(batch)
			for _, tp := range t.tapes[:len(batch)] {
				epochLoss += tp.loss
			}
		}
		mean := epochLoss / float64(len(recs))
		stats.EpochLoss = append(stats.EpochLoss, mean)
		if tc.Log != nil {
			fmt.Fprintf(tc.Log, "epoch %2d/%d  loss %.4f\n", epoch+1, tc.Epochs, mean)
		}
	}
	return stats, nil
}

// phase is one parallel stage of a minibatch.
type phase int

const (
	passes phase = iota // job i: record i's pass into tapes[i]
	grads               // job i: gradJobs[i]
	packs               // job i: gradJobs[i]'s rows packed into own
)

// gradJob is a row range of one layer: the LSTM's gate rows, the trunk's
// rows, or head k's fc1 or fc2 rows, on the layer's packed blocks. The job
// sums the minibatch's gradients of those rows, takes the optimizer step on
// them, the elements steps lists, and repacks them.
type gradJob struct {
	layer  gradLayer
	k      int
	lo, hi int
	steps  []stepJob
}

type gradLayer int

const (
	lstmRows gradLayer = iota
	trunkRows
	fc1Rows
	fc2Rows
)

// stepJob is elements [lo, hi) of parameter i.
type stepJob struct{ i, lo, hi int }

// Rows per job of the LSTM's gates (a multiple of mathx.BackRowsG's
// four-row tile) and of fc2 (a multiple of the four-row packed blocks).
const (
	lstmJobRows = 16
	fc2JobRows  = 128
)

// trainer is one Train call's state: the optimizer, a tape per minibatch
// slot, the minibatch's gradient terms listed in summation order, and the
// workers. The caller's goroutine is worker 0 and helpers goroutines join
// it for each phase. All but the model and the records is kept for the
// next call of the same shape (spareTrainers).
type trainer struct {
	shape  shape
	m      *Model
	recs   []dataset.Record
	opt    *nn.Adam
	tapes  []*tape
	batch  []int   // the minibatch: indices into recs, in order
	packed *packed // the weights this minibatch's passes read
	// own is the pack the trainer publishes as the model's after each
	// step, its rows repacked in place by the jobs that stepped them:
	// nothing else reads it while Train runs, and stop takes it back.
	own *packed
	// last says the minibatch is Train's last: its step is not repacked,
	// since nothing reads own after it.
	last bool

	// The minibatch's terms of each weight gradient, record by record:
	// (dL/dy, x) pairs, the LSTM's step by step from the last.
	lstmDa, lstmX, lstmH [][]float64
	trunkDy, trunkX      [][]float64
	fc1Dy, fc1X          [][][]float64
	fc2Dy, fc2X          [][][]float64
	gradJobs             []gradJob
	scale                float64 // 1/len(batch), the gradients' mean; 0: no step

	phase   phase
	jobs    int
	next    atomic.Int64 // the next job to claim
	helpers int
	wake    chan struct{}
	done    sync.WaitGroup
}

// shape is what a trainer's buffers depend on.
type shape struct {
	inputDim, window, horizon, events   int
	hiddenLSTM, hiddenTrunk, hiddenHead int
	dropout                             bool
}

func (c Config) shape() shape {
	return shape{c.InputDim, c.Window, c.Horizon, c.NumEvents, c.HiddenLSTM, c.HiddenTrunk, c.HiddenHead, c.Dropout > 0}
}

// spareTrainers keeps the trainers of finished Train calls for the next
// call on a model of the same shape: a fresh model per call, as the
// benchmark's rounds train, would otherwise allocate and clear every tape
// again. A spare trainer may keep its last records reachable until the
// pool drops it.
var spareTrainers sync.Pool

// newTrainer sets up a Train call on recs and starts its helpers: one per
// P beyond the caller's, never more than a minibatch has records.
func (m *Model) newTrainer(recs []dataset.Record, tc TrainConfig) *trainer {
	t, _ := spareTrainers.Get().(*trainer)
	if t == nil || t.shape != m.cfg.shape() {
		t = m.allocTrainer()
	}
	slots := min(tc.BatchSize, len(recs))
	for len(t.tapes) < slots {
		t.tapes = append(t.tapes, m.newTape())
	}
	t.m, t.recs, t.last = m, recs, false
	if t.opt == nil {
		t.opt = nn.NewAdam(m.params, tc.LR)
	} else {
		t.opt.Reset(m.params, tc.LR)
	}
	if tc.GradClip > 0 {
		t.opt.SetGradClip(tc.GradClip)
	}
	if t.own == nil {
		// Sized for the model's shape, which is all the jobs need: they
		// overwrite every row before own is published.
		t.own = new(packed)
		m.pack(t.own)
	}
	t.helpers = min(runtime.GOMAXPROCS(0), slots) - 1
	t.wake = nil
	if t.helpers > 0 {
		t.wake = make(chan struct{}, t.helpers)
		for range t.helpers {
			go func(wake <-chan struct{}) {
				for range wake {
					t.work()
					t.done.Done()
				}
			}(t.wake)
		}
	}
	return t
}

// allocTrainer returns a trainer with m's gradient jobs and no tapes.
func (m *Model) allocTrainer() *trainer {
	t := &trainer{shape: m.cfg.shape()}
	k := m.cfg.NumEvents
	t.fc1Dy, t.fc1X = make([][][]float64, k), make([][][]float64, k)
	t.fc2Dy, t.fc2X = make([][][]float64, k), make([][][]float64, k)
	index := make(map[*nn.Param]int, len(m.params))
	for i, p := range m.params {
		index[p] = i
	}
	// add lists a job over rows [lo, hi) of a layer of rows output rows,
	// and the elements of each of its parameters those rows hold.
	add := func(l nn.Layer, rows int, layer gradLayer, k, lo, hi int) {
		j := gradJob{layer: layer, k: k, lo: lo, hi: hi}
		for _, p := range l.Params() {
			n := len(p.W) / rows
			j.steps = append(j.steps, stepJob{index[p], lo * n, hi * n})
		}
		t.gradJobs = append(t.gradJobs, j)
	}
	for lo, n := 0, 4*m.cfg.HiddenLSTM; lo < n; lo += lstmJobRows {
		add(m.lstm, n, lstmRows, 0, lo, min(lo+lstmJobRows, n))
	}
	for hk, hd := range m.heads {
		// fc2 packs from row n%4 (see nn.PackedDense): the first job takes
		// the rows before it too.
		n := 1 + m.cfg.Horizon
		for lo := 0; lo < n; {
			hi := min(n%4+(lo/fc2JobRows+1)*fc2JobRows, n)
			add(hd.fc2, n, fc2Rows, hk, lo, hi)
			lo = hi
		}
		add(hd.fc1, m.cfg.HiddenHead, fc1Rows, hk, 0, m.cfg.HiddenHead)
	}
	add(m.trunk, m.cfg.HiddenTrunk, trunkRows, 0, 0, m.cfg.HiddenTrunk)
	return t
}

// stop ends the helpers, takes the gradients back from the model's
// parameters and leaves the trainer for the next Train call. The pack stays
// with the trainer: unpublishing it lets the next call repack the same
// memory, and the model packs afresh when it next runs. A pack the model
// does not hold (never published, or replaced since) is dropped.
func (t *trainer) stop() {
	if t.wake != nil {
		close(t.wake)
	}
	t.opt.Release()
	if !t.m.packed.CompareAndSwap(t.own, nil) {
		t.own = nil
	}
	t.m, t.recs, t.packed = nil, nil, nil
	spareTrainers.Put(t)
}

// minibatch runs one optimizer step on the records batch names, leaving
// each record's loss in its tape, and, unless t.last, publishes own, which
// the step's jobs repacked, as the model's pack.
func (t *trainer) minibatch(batch []int) {
	t.scale = 1 / float64(len(batch))
	t.opt.Begin()
	t.sum(batch)
	t.m.weightsChanged()
	if !t.last {
		t.publish()
	}
}

// publish makes own, packed from the current weights, the model's pack.
func (t *trainer) publish() {
	t.own.version = t.m.version
	t.m.packed.Store(t.own)
}

// sum runs batch through the network and sums its gradients, stepping each
// row range after its sum when t.scale is set: each record's dropout mask
// drawn in order, the records' passes, then the gradient jobs.
func (t *trainer) sum(batch []int) {
	t.batch = batch
	t.pack()
	for _, tp := range t.tapes[:len(batch)] {
		if tp.mask != nil {
			t.m.drop.Mask(tp.mask)
		}
	}
	t.run(passes, len(batch))
	t.collect()
	t.run(grads, len(t.gradJobs))
}

// pack points t.packed at the weights packed under the current version:
// the model's pack when it is current (after a step, the trainer's own),
// else the trainer's own, packed by the workers and published as the
// model's.
func (t *trainer) pack() {
	m := t.m
	if p := m.packed.Load(); p != nil && p.version == m.version {
		t.packed = p
		return
	}
	t.run(packs, len(t.gradJobs))
	t.publish()
	t.packed = t.own
}

// collect lists the minibatch's gradient terms in record order.
func (t *trainer) collect() {
	t.lstmDa, t.lstmX, t.lstmH = t.lstmDa[:0], t.lstmX[:0], t.lstmH[:0]
	t.trunkDy, t.trunkX = t.trunkDy[:0], t.trunkX[:0]
	for k := range t.fc1Dy {
		t.fc1Dy[k], t.fc1X[k] = t.fc1Dy[k][:0], t.fc1X[k][:0]
		t.fc2Dy[k], t.fc2X[k] = t.fc2Dy[k][:0], t.fc2X[k][:0]
	}
	for _, tp := range t.tapes[:len(t.batch)] {
		t.lstmDa, t.lstmX, t.lstmH = tp.lstm.AppendSteps(t.lstmDa, t.lstmX, t.lstmH)
		t.trunkDy = append(t.trunkDy, tp.dzcat[:t.m.cfg.HiddenTrunk])
		t.trunkX = append(t.trunkX, tp.h)
		for k := range t.fc1Dy {
			t.fc1Dy[k], t.fc1X[k] = append(t.fc1Dy[k], tp.dhid[k]), append(t.fc1X[k], tp.zcat)
			t.fc2Dy[k], t.fc2X[k] = append(t.fc2Dy[k], tp.out[k]), append(t.fc2X[k], tp.hid[k])
		}
	}
}

// run runs a phase of jobs on every worker and returns when all are done.
func (t *trainer) run(ph phase, jobs int) {
	t.phase, t.jobs = ph, jobs
	t.next.Store(0)
	t.done.Add(t.helpers)
	for range t.helpers {
		t.wake <- struct{}{}
	}
	t.work()
	t.done.Wait()
}

// work claims and runs the current phase's jobs until none is left.
func (t *trainer) work() {
	m := t.m
	for {
		i := int(t.next.Add(1) - 1)
		if i >= t.jobs {
			return
		}
		switch t.phase {
		case passes:
			tp, rec := t.tapes[i], t.recs[t.batch[i]]
			m.forward(tp, rec.X, rec.Label, t.packed)
			tp.loss = m.recordLoss(tp, rec)
			m.backward(tp)
		case grads:
			j := t.gradJobs[i]
			switch j.layer {
			case lstmRows:
				m.lstm.AccumulateGrads(t.lstmDa, t.lstmX, t.lstmH, j.lo, j.hi)
			case trunkRows:
				m.trunk.AccumulateGrads(t.trunkDy, t.trunkX, j.lo, j.hi)
			case fc1Rows:
				m.heads[j.k].fc1.AccumulateGrads(t.fc1Dy[j.k], t.fc1X[j.k], j.lo, j.hi)
			case fc2Rows:
				m.heads[j.k].fc2.AccumulateGrads(t.fc2Dy[j.k], t.fc2X[j.k], j.lo, j.hi)
			}
			if t.scale == 0 {
				continue
			}
			for _, st := range j.steps {
				mathx.Scale(t.scale, m.params[st.i].G[st.lo:st.hi])
				t.opt.Update(st.i, st.lo, st.hi)
			}
			if !t.last {
				t.packRows(j)
			}
		case packs:
			t.packRows(t.gradJobs[i])
		}
	}
}

// packRows packs j's rows of the current weights into own.
func (t *trainer) packRows(j gradJob) {
	m, p := t.m, t.own
	switch j.layer {
	case lstmRows:
		m.lstm.PackRowsInto(&p.lstm, j.lo, j.hi)
	case trunkRows:
		m.trunk.PackRowsInto(&p.trunk, j.lo, j.hi)
	case fc1Rows:
		m.heads[j.k].fc1.PackRowsInto(&p.fc1[j.k], j.lo, j.hi)
	case fc2Rows:
		m.heads[j.k].fc2.PackRowsInto(&p.fc2[j.k], j.lo, j.hi)
	}
}
