package strategy_test

import (
	"bytes"
	"runtime"
	"testing"

	"eventhit/internal/harness"
	"eventhit/internal/strategy"
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

func saveBundle(t *testing.T, b *strategy.Bundle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzBundleLoad: LoadBundle under a limit of the input's own size, as
// eventhitserve -bundle applies it to a file, on any bytes. It never
// panics and allocates at most allocBound of the input; an input it loads
// saves to canonical bytes, which load and save again to the same bytes.
// Seeded with a TA1 -quick bundle, which must save back to itself, with
// its truncations (each of its gob streams cut short) and with it twice
// over (LoadBundle reads only the first).
func FuzzBundleLoad(f *testing.F) {
	task, err := harness.TaskByName("TA1")
	if err != nil {
		f.Fatal(err)
	}
	env, err := harness.NewEnv(task, harness.Quick(), 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := env.Bundle.Save(&buf); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	// The streams in order: the model's configuration and weights, then
	// C-CLASSIFY, C-REGRESS and the thresholds. Each is cut after its first
	// byte, in its middle and before its last byte.
	var model, cls, reg bytes.Buffer
	b := env.Bundle
	if b.Model.Save(&model) != nil || b.Classifier.Save(&cls) != nil || b.Regressor.Save(&reg) != nil {
		f.Fatal("saving the seed's parts")
	}
	start := 0
	for _, n := range []int{model.Len(), cls.Len(), reg.Len(), len(seed) - model.Len() - cls.Len() - reg.Len()} {
		for _, cut := range []int{start + 1, start + n/2, start + n - 1} {
			f.Add(seed[:cut])
		}
		start += n
	}
	f.Add(seed[:0])
	f.Add(append(append([]byte(nil), seed...), seed...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var b *strategy.Bundle
		var err error
		if n := allocated(func() { b, err = strategy.LoadBundle(bytes.NewReader(data), int64(len(data))) }); n > allocBound(len(data)) {
			t.Fatalf("loading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		canon := saveBundle(t, b)
		if bytes.Equal(data, seed) && !bytes.Equal(canon, seed) {
			t.Fatal("the seed bundle does not save back to its own bytes")
		}
		again, err := strategy.LoadBundle(bytes.NewReader(canon), int64(len(canon)))
		if err != nil {
			t.Fatalf("the canonical save of a loaded bundle does not load: %v", err)
		}
		if !bytes.Equal(saveBundle(t, again), canon) {
			t.Fatal("a loaded bundle's canonical save does not save back to itself")
		}
	})
}
