package mathx

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	// Children with different labels from identically seeded parents differ;
	// same label gives the same child stream.
	p1, p2 := NewRNG(1), NewRNG(1)
	c1, c2 := p1.Split(10), p2.Split(10)
	if c1.Float64() != c2.Float64() {
		t.Fatal("same label split must match")
	}
	p3 := NewRNG(1)
	c3 := p3.Split(11)
	same := true
	c4 := NewRNG(1).Split(10)
	for i := 0; i < 8; i++ {
		if c3.Float64() != c4.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different labels should give different streams")
	}
}

func TestGeometricMean(t *testing.T) {
	g := NewRNG(6)
	p := 0.25
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(g.Geometric(p))
	}
	mean := sum / float64(n)
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.1*want {
		t.Errorf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
	if g.Geometric(1) != 0 {
		t.Error("Geometric(1) must be 0")
	}
}

func TestGeometricPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p<=0")
		}
	}()
	NewRNG(1).Geometric(0)
}

func TestTruncNormalStaysInRange(t *testing.T) {
	g := NewRNG(8)
	for i := 0; i < 5000; i++ {
		v := g.TruncNormal(50, 30, 10, 90)
		if v < 10 || v > 90 {
			t.Fatalf("TruncNormal out of range: %v", v)
		}
	}
	// Far-tail range falls back to clamped mean.
	if v := g.TruncNormal(0, 0.001, 100, 200); v != 100 {
		t.Fatalf("tail fallback = %v, want 100", v)
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(9)
	rate := 0.02
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exponential(rate)
	}
	mean := sum / float64(n)
	if math.Abs(mean-1/rate) > 0.05/rate {
		t.Errorf("Exponential mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(10)
	n := 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.Normal(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-3) > 0.1 || math.Abs(variance-4) > 0.3 {
		t.Errorf("Normal moments mean=%v var=%v", mean, variance)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	g := NewRNG(12)
	hits := 0
	for i := 0; i < 10000; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / 10000
	if math.Abs(freq-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) freq = %v", freq)
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := NewRNG(13).Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestLognormalMeanStdMoments(t *testing.T) {
	g := NewRNG(14)
	mean, std := 97.2, 107.5
	n := 40000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.LognormalMeanStd(mean, std)
		if v <= 0 {
			t.Fatal("lognormal sample must be positive")
		}
		sum += v
		sumsq += v * v
	}
	m := sum / float64(n)
	s := math.Sqrt(sumsq/float64(n) - m*m)
	if math.Abs(m-mean) > 0.05*mean {
		t.Errorf("lognormal mean = %v, want ~%v", m, mean)
	}
	if math.Abs(s-std) > 0.15*std {
		t.Errorf("lognormal std = %v, want ~%v", s, std)
	}
}

func TestLognormalPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).LognormalMeanStd(0, 1)
}

func TestShuffleIsPermutation(t *testing.T) {
	g := NewRNG(17)
	x := []int{0, 1, 2, 3, 4, 5, 6, 7}
	g.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
	seen := make([]bool, len(x))
	for _, v := range x {
		if seen[v] {
			t.Fatalf("Shuffle duplicated %d", v)
		}
		seen[v] = true
	}
}

// replaySeeds are the seeds the replay tests start from: zero and ±1, the
// seeding generator's modulus 2^31−1 and its multiples on both sides (each
// reduces to math/rand's stand-in seed for 0), the int64 extremes, and
// ordinary seeds of every magnitude.
func replaySeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 2, m, -m, 2 * m, -2 * m, 3*m + 1, -(5*m + 7), m - 1, m + 1, 89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 1 << 31, 1 << 62, -1 << 62}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 12; i++ {
		seeds = append(seeds, r.Int63()-r.Int63(), int64(r.Int31()))
	}
	return seeds
}

// replayOps draws from NewRNG(seed) and from math/rand's
// rand.New(rand.NewSource(seed)), the oracle, by ops, and reports the
// first draw that differs. Each byte is one draw: its low three bits pick
// the sampler and the rest, p in 0..31, its argument — Float64, a bulk
// Float64s of 23·p values, Intn of a small bound, of 2^31−1−p and of
// math.MaxInt−p, Perm(p), Shuffle(p), Normal, Exponential, and a Split
// whose child is replayed through the next 16 ops as well.
func replayOps(seed int64, ops []byte) error {
	return replayOn(NewRNG(seed), rand.New(rand.NewSource(seed)), ops, 1)
}

func replayOn(g *RNG, ref *rand.Rand, ops []byte, depth int) error {
	for at, op := range ops {
		p := int(op >> 3)
		fail := func(got, want any) error {
			return fmt.Errorf("op %d (%d, arg %d): %v, math/rand %v", at, op&7, p, got, want)
		}
		switch op & 7 {
		case 0:
			if got, want := g.Float64(), ref.Float64(); got != want {
				return fail(got, want)
			}
		case 1:
			got := make([]float64, 23*p)
			g.Float64s(got)
			for i := range got {
				if want := ref.Float64(); got[i] != want {
					return fail(fmt.Sprintf("value %d %v", i, got[i]), want)
				}
			}
		case 2:
			n := []int{p + 1, 1<<31 - 1 - p, math.MaxInt - p}[p%3]
			if got, want := g.Intn(n), ref.Intn(n); got != want {
				return fail(got, want)
			}
		case 3:
			if got, want := g.Perm(p), ref.Perm(p); !slices.Equal(got, want) {
				return fail(got, want)
			}
		case 4:
			got, want := make([]int, p), make([]int, p)
			for i := range got {
				got[i], want[i] = i, i
			}
			g.Shuffle(p, func(i, j int) { got[i], got[j] = got[j], got[i] })
			ref.Shuffle(p, func(i, j int) { want[i], want[j] = want[j], want[i] })
			if !slices.Equal(got, want) {
				return fail(got, want)
			}
		case 5:
			if got, want := g.Normal(0, 1), ref.NormFloat64(); got != want {
				return fail(got, want)
			}
		case 6:
			if got, want := g.Exponential(1), ref.ExpFloat64(); got != want {
				return fail(got, want)
			}
		case 7:
			const golden = int64(0x9e3779b97f4a7c15 & 0x7fffffffffffffff)
			label := int64(p) - 16
			child := g.Split(label)
			refChild := rand.New(rand.NewSource(ref.Int63() ^ label*golden))
			if depth > 0 {
				if err := replayOn(child, refChild, ops[at+1:min(at+17, len(ops))], depth-1); err != nil {
					return fmt.Errorf("op %d: child of Split(%d): %w", at, label, err)
				}
			}
		}
	}
	return nil
}

// TestRNGReplaysMathRand: NewRNG(seed) is math/rand's stream for seed, with
// math/rand as the oracle, over seeds at the seeding generator's edges and
// random ones, through mixed sequences of every sampler that cross the
// 273rd and 607th outputs (where the recurrence first reads its own
// outputs, and where a block ends) many times, and through bulk fills of
// every length 0–700 from every offset into a block.
func TestRNGReplaysMathRand(t *testing.T) {
	ops := make([]byte, 3000)
	r := rand.New(rand.NewSource(7))
	for i := range ops {
		ops[i] = byte(r.Intn(256))
		if ops[i]&7 == 1 && r.Intn(4) > 0 {
			ops[i] &^= 0xf8 // most bulk fills short: every sampler gets its turn at a block edge
			ops[i] |= byte(r.Intn(4)) << 3
		}
	}
	for _, seed := range replaySeeds() {
		if err := replayOps(seed, ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for n := 0; n <= 700; n++ {
		seed := int64(n)*7919 - 350
		g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < n%lagLong; i++ { // start the fill n values into a block
			g.Float64()
			ref.Float64()
		}
		got := make([]float64, n)
		g.Float64s(got)
		for i := range got {
			if want := ref.Float64(); got[i] != want {
				t.Fatalf("Float64s of %d, value %d: %v, math/rand %v", n, i, got[i], want)
			}
		}
		if got, want := g.Float64(), ref.Float64(); got != want {
			t.Fatalf("Float64 after Float64s of %d: %v, math/rand %v", n, got, want)
		}
	}
}

// TestFloat64DrawsAgainAtOne: a draw of 2^63−512 or more divides to 1,
// which math/rand's Float64 discards for the next draw (once in 2^54
// draws, so no seed shows it); Float64 and Float64s discard the same
// draws, alone in a run or several together, and keep 2^63−513. The
// oracle is math/rand's Float64 over a copy of the generator's state.
func TestFloat64DrawsAgainAtOne(t *testing.T) {
	for _, draws := range []map[int]uint64{
		{1: 1<<63 - 1, 2: 1<<63 - 2, 5: 1<<63 - 5, 6: 1<<63 - 6, 7: 1<<63 - 7, 9: math.MaxUint64, 10: 1<<63 - 512, 11: 1<<63 - 513},
		{3: 1<<63 - 512, 5: 1<<63 - 513},
		{0: 1<<63 - 513, 4: math.MaxUint64 - 511},
	} {
		g := NewRNG(5)
		g.Float64()
		for off, v := range draws {
			g.src.x[g.src.i+off] = v
		}
		single, ref := &RNG{src: g.src}, g.src
		oracle := rand.New(&ref)
		got := make([]float64, 12-len(draws)/2)
		g.Float64s(got)
		for i := range got {
			want := oracle.Float64()
			if want == 1 || got[i] != want {
				t.Fatalf("draws %v: Float64s value %d: %v, math/rand %v", draws, i, got[i], want)
			}
			if one := single.Float64(); one != want {
				t.Fatalf("draws %v: Float64 value %d: %v, math/rand %v", draws, i, one, want)
			}
		}
	}
}

// FuzzRNGReplaysMathRand is TestRNGReplaysMathRand's replay from any seed
// through any op string (see replayOps).
func FuzzRNGReplaysMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-1<<63), []byte{0xf9, 0xf9, 0x2a, 0x37, 0x0f})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if err := replayOps(seed, ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
