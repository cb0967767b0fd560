package mathx

import (
	"math"
	"testing"
)

func TestHashU64Deterministic(t *testing.T) {
	if HashU64(1, 2, 3) != HashU64(1, 2, 3) {
		t.Fatal("HashU64 not deterministic")
	}
	if HashU64(1, 2, 3) == HashU64(1, 2, 4) {
		t.Fatal("HashU64 insensitive to last key")
	}
	if HashU64(1, 2) == HashU64(2, 1) {
		t.Fatal("HashU64 insensitive to key order")
	}
}

// TestHashFoldsPrefix: a Hash taking its keys in parts, from any split,
// is HashU64 and Hash01 of the whole sequence, bit for bit.
func TestHashFoldsPrefix(t *testing.T) {
	for i := 0; i < 2000; i++ {
		keys := make([]uint64, i%6)
		for j := range keys {
			keys[j] = HashU64(uint64(i), uint64(j)) >> (i % 64)
		}
		for cut := 0; cut <= len(keys); cut++ {
			h := HashOf(keys[:cut]...)
			for _, k := range keys[cut:] {
				h = h.With(k)
			}
			if uint64(h) != HashU64(keys...) || math.Float64bits(h.Unit()) != math.Float64bits(Hash01(keys...)) {
				t.Fatalf("keys %v folded from %d: %x, HashU64 %x", keys, cut, uint64(h), HashU64(keys...))
			}
		}
	}
}

func TestHash01UniformMoments(t *testing.T) {
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := Hash01(uint64(i), 7)
		if v < 0 || v >= 1 {
			t.Fatalf("Hash01 out of range: %v", v)
		}
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Hash01 mean = %v", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("Hash01 variance = %v, want ~1/12", variance)
	}
}

func TestHashNormalMoments(t *testing.T) {
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := HashOf(uint64(i), 13).Normal()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("Normal variance = %v", variance)
	}
}
