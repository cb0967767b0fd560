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
		v := HashNormal(uint64(i), 13)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("HashNormal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("HashNormal variance = %v", variance)
	}
}
