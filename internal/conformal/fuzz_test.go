package conformal

import (
	"bytes"
	"runtime"
	"testing"

	"eventhit/internal/mathx"
)

// allocBound is what decoding an untrusted input of n bytes may allocate:
// a fixed multiple of n, plus what encoding/gob sets aside before the bytes
// a count claims arrive — a message is read, and a slice made, in chunks
// of at most 10 MiB, each further chunk only once the last one filled.
func allocBound(n int) uint64 { return 64*uint64(n) + 32<<20 }

// allocated runs f and returns the bytes the process allocated meanwhile.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzDecoder is FuzzBundleLoad's contract for one calibration decoder: on
// any bytes it never panics and allocates at most allocBound of them; an
// input it loads saves to canonical bytes, which load and save again to
// the same bytes; the seed saves back to itself. Seeded with seed, each
// truncation of it and seed twice over.
func fuzzDecoder[T any](f *testing.F, seed []byte, load func(*bytes.Reader) (T, error), save func(T, *bytes.Buffer) error) {
	f.Add(seed)
	for _, n := range []int{0, 1, len(seed) / 4, len(seed) / 2, len(seed) - 1} {
		f.Add(seed[:n])
	}
	f.Add(append(append([]byte(nil), seed...), seed...))
	canonical := func(t *testing.T, v T) []byte {
		var buf bytes.Buffer
		if err := save(v, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v T
		var err error
		if n := allocated(func() { v, err = load(bytes.NewReader(data)) }); n > allocBound(len(data)) {
			t.Fatalf("loading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		canon := canonical(t, v)
		if bytes.Equal(data, seed) && !bytes.Equal(canon, seed) {
			t.Fatal("the seed does not save back to its own bytes")
		}
		again, err := load(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("the canonical save of a loaded snapshot does not load: %v", err)
		}
		if !bytes.Equal(canonical(t, again), canon) {
			t.Fatal("a loaded snapshot's canonical save does not save back to itself")
		}
	})
}

// fuzzScores returns k events' random calibration values, n each.
func fuzzScores(g *mathx.RNG, k, n int) [][]float64 {
	out := make([][]float64, k)
	for j := range out {
		for i := 0; i < n; i++ {
			out[j] = append(out[j], float64(g.Intn(200))*g.Float64())
		}
	}
	return out
}

// FuzzClassifierLoad: fuzzDecoder's contract for LoadClassifier, seeded
// with a saved three-event C-CLASSIFY calibration.
func FuzzClassifierLoad(f *testing.F) {
	g := mathx.NewRNG(5)
	scores := fuzzScores(g, 3, 40)
	labels := make([][]bool, 40)
	b := make([][]float64, 40)
	for i := range b {
		labels[i] = []bool{true, i%2 == 0, i%3 == 0}
		b[i] = []float64{scores[0][i] / 200, scores[1][i] / 200, scores[2][i] / 200}
	}
	c, err := NewClassifier(b, labels)
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := c.Save(&seed); err != nil {
		f.Fatal(err)
	}
	fuzzDecoder(f, seed.Bytes(), func(r *bytes.Reader) (*Classifier, error) { return LoadClassifier(r) },
		func(c *Classifier, w *bytes.Buffer) error { return c.Save(w) })
}

// FuzzRegressorLoad: fuzzDecoder's contract for LoadRegressor, seeded with
// a saved three-event C-REGRESS calibration.
func FuzzRegressorLoad(f *testing.F) {
	g := mathx.NewRNG(6)
	r, err := NewRegressor(200, fuzzScores(g, 3, 30), fuzzScores(g, 3, 30))
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := r.Save(&seed); err != nil {
		f.Fatal(err)
	}
	fuzzDecoder(f, seed.Bytes(), func(rd *bytes.Reader) (*Regressor, error) { return LoadRegressor(rd) },
		func(r *Regressor, w *bytes.Buffer) error { return r.Save(w) })
}
