//go:build amd64

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"eventhit/internal/mathx"
)

// digestCase is one pinned training run: a configuration, its records and
// the SHA-256 of the trained model's Save bytes followed by the
// little-endian bits of every EpochLoss, recorded from the serial
// per-record training loop that the batch-synchronous one replaced.
type digestCase struct {
	name  string
	cfg   Config
	scale float64
	want  string
}

func digestCases() []digestCase {
	def := DefaultConfig(12, 8, 30, 2)
	def.Dropout = 0.25
	return []digestCase{
		{"tiny", tinyConfig(), 1, "e002ac43d2a351dd3206abfac394ee599be1bc001c37632816e1fec3eeaca894"},
		{"odd-x400", Config{InputDim: 5, Window: 6, Horizon: 9, NumEvents: 2, HiddenLSTM: 5, HiddenTrunk: 7, HiddenHead: 9, Dropout: 0.2, Seed: 4}, 400, "d7139d1761d4ea145b237d4f5c0b5d850e44121faea6604ad4c285e6c86dae09"},
		{"default-dropout", def, 1, "67427cffc93e005596149344e6cbbd23dba3e9e0411722e6a5622b8248c36521"},
	}
}

// trainDigest trains a fresh model of c on 21 records (two batches of 8 and
// a short one of 5 per epoch) and returns its digest.
func trainDigest(t *testing.T, c digestCase) string {
	t.Helper()
	recs := trainRecords(mathx.NewRNG(int64(c.cfg.InputDim)+21), c.cfg, 21, c.scale)
	m, err := New(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Train(recs, TrainConfig{Epochs: 3, BatchSize: 8, LR: 3e-3, GradClip: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, l := range stats.EpochLoss {
		buf.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(l)))
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestTrainMatchesParentDigest: Train ends with the weights and epoch
// losses of the serial per-record loop, bit for bit, at any GOMAXPROCS and
// on either kernel path. The digests hold where they were recorded: amd64
// (Go fuses multiply-adds on arm64) with math.Exp on its FMA path, the
// one mathx's vector kernels mirror and select themselves on. Without it
// (no AVX2 or FMA, or GODEBUG turning either off) math.Exp rounds
// differently and so does every trained weight. One configuration's runs
// follow each other, so most take the spare trainer the previous one left.
func TestTrainMatchesParentDigest(t *testing.T) {
	if !vectorKernels {
		t.Skip("math.Exp is not on its FMA path here: the pinned digests do not apply")
	}
	saved, procs := vectorKernels, runtime.GOMAXPROCS(0)
	defer func() { vectorKernels = saved; runtime.GOMAXPROCS(procs) }()
	for _, c := range digestCases() {
		for _, vector := range []bool{true, false} {
			for _, p := range []int{1, 2, 3, 8} {
				vectorKernels = vector
				runtime.GOMAXPROCS(p)
				if got := trainDigest(t, c); got != c.want {
					t.Errorf("%s vector=%v GOMAXPROCS=%d: digest %s, want %s", c.name, vector, p, got, c.want)
				}
			}
		}
	}
}
