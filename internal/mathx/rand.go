package mathx

import (
	"math"
	"math/rand"
)

// RNG is a seeded random stream with the samplers the workload generators
// need. It is math/rand's stream, bit for bit: NewRNG(seed) draws what
// rand.New(rand.NewSource(seed)) draws, sampler by sampler, so every
// experiment is reproducible from a single seed. Independent components
// should derive their own stream via Split so that adding draws to one
// component does not perturb another.
//
// The generator itself is replayed here (see source), which makes seeding
// and uniform draws cheap; Intn, Perm, Shuffle, Normal and Exponential run
// math/rand's own samplers over it.
type RNG struct {
	src source
	r   *rand.Rand // math/rand's samplers over &src
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Split derives an independent child stream. The child's seed mixes the
// parent stream and the supplied label so distinct labels give distinct
// streams deterministically.
func (g *RNG) Split(label int64) *RNG { return NewRNG(g.SplitSeed(label)) }

// SplitSeed is Split without the seeding: it advances g as Split does and
// returns the seed of the child Split would return, for a caller that
// seeds the children elsewhere (concurrently, or not at all).
func (g *RNG) SplitSeed(label int64) int64 {
	const golden = int64(0x9e3779b97f4a7c15 & 0x7fffffffffffffff)
	return g.src.Int63() ^ (label * golden)
}

// Float64 returns a uniform sample from [0, 1).
func (g *RNG) Float64() float64 {
	for {
		// math/rand's Float64, which draws again when the quotient
		// rounds up to 1: scaling by 2^-63 is its division, exactly.
		if f := float64(g.src.Int63()) * 0x1p-63; f != 1 {
			return f
		}
	}
}

// Float64s fills dst with len(dst) successive Float64 draws. It converts
// the generator's block in place, a run at a time; a run holding a draw
// that divides to 1 is converted again, skipping those draws as Float64
// does.
func (g *RNG) Float64s(dst []float64) {
	s := &g.src
	for len(dst) > 0 {
		if s.i == lagLong {
			s.next()
		}
		run := s.x[s.i:min(lagLong, s.i+len(dst))]
		s.i += len(run)
		d := dst[:len(run)]
		var top uint64
		for k, v := range run {
			v &= int63Mask
			d[k] = float64(int64(v)) * 0x1p-63
			top |= v + 512 // bit 63 is set once some v >= 2^63-512, which rounds to 2^63
		}
		n := len(run)
		if top>>63 != 0 {
			n = 0
			for _, v := range run {
				if f := float64(int64(v&int63Mask)) * 0x1p-63; f != 1 {
					dst[n] = f
					n++
				}
			}
		}
		dst = dst[n:]
	}
}

// Intn returns a uniform sample from {0, ..., n-1}.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of {0, ..., n-1}.
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Normal returns a sample from N(mu, sigma^2).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// TruncNormal samples N(mu, sigma^2) conditioned on [lo, hi] by rejection,
// falling back to clamping after a bounded number of attempts (which only
// triggers when [lo, hi] is far in the tail).
func (g *RNG) TruncNormal(mu, sigma, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		v := g.Normal(mu, sigma)
		if v >= lo && v <= hi {
			return v
		}
	}
	return Clamp(mu, lo, hi)
}

// LognormalMeanStd samples a lognormal distribution parameterized by its
// (arithmetic) mean and standard deviation, i.e. the unique lognormal with
// E[X]=mean and Std[X]=std. It is the right duration model when the
// coefficient of variation is large (a truncated normal would badly inflate
// the mean there).
func (g *RNG) LognormalMeanStd(mean, std float64) float64 {
	if mean <= 0 {
		panic("mathx: LognormalMeanStd requires positive mean")
	}
	cv2 := (std * std) / (mean * mean)
	sigma2 := math.Log1p(cv2)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(g.Normal(mu, math.Sqrt(sigma2)))
}

// Exponential returns a sample from Exp(rate), i.e. mean 1/rate.
func (g *RNG) Exponential(rate float64) float64 {
	return g.r.ExpFloat64() / rate
}

// Geometric returns the number of failures before the first success for
// success probability p in (0, 1]; i.e. support {0, 1, 2, ...} with mean
// (1-p)/p.
func (g *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("mathx: Geometric requires p in (0,1]")
	}
	u := g.Float64()
	return int(math.Floor(math.Log1p(-u) / math.Log1p(-p)))
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.Float64() < p }

// Shuffle permutes the first n indices via the provided swap function.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// source is the generator behind rand.NewSource, the additive lagged
// Fibonacci recurrence x_n = x_{n-607} + x_{n-273} (mod 2^64) of Mitchell
// and Reeds, kept in output order instead of math/rand's ring: x holds a
// block of 607 consecutive outputs, x[i:] not drawn yet. The next block
// replaces x in one pass of additions (next), and a bulk draw reads x in
// place. It implements rand.Source64, so rand.Rand's samplers run over it.
type source struct {
	x [lagLong]uint64
	i int
}

const (
	lagLong, lagShort = 607, 273
	int63Mask         = 1<<63 - 1
	lcgModulus        = 1<<31 - 1 // the seeding generator's, a prime
	lcgMultiplier     = 48271
)

// next replaces x with the 607 outputs that follow it. Output n of the new
// block is x[n] + the output 273 before it: x[n+334] of the old block for
// n < 273, else x[n-273] of the new one, already in place.
func (s *source) next() {
	x := &s.x
	addLagged(x[:lagShort], x[lagLong-lagShort:])
	addLagged(x[lagShort:], x[:lagLong-lagShort])
	s.i = 0
}

// addLagged adds src to dst element by element, in index order and four at
// a time. src may be dst's memory 273 elements back: each element it reads
// is one the call has written by then or never writes.
func addLagged(dst, src []uint64) {
	src = src[:len(dst)]
	n := 0
	for ; n+4 <= len(dst); n += 4 {
		d, s := dst[n:n+4:n+4], src[n:n+4:n+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; n < len(dst); n++ {
		dst[n] += src[n]
	}
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	if s.i == lagLong {
		s.next()
	}
	v := s.x[s.i]
	s.i++
	return v
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & int63Mask) }

// Seed implements rand.Source: the state rand.NewSource(seed) starts from,
// the 607 values before the first output, is seedLCG(seed) XOR cooked.
func (s *source) Seed(seed int64) {
	s.seedLCG(seed)
	for n := range s.x {
		s.x[n] ^= cooked[n]
	}
	s.i = lagLong
}

// seedLCG fills x with math/rand's seeding stream for seed, in output
// order: the Park–Miller generator x_{k+1} = 48271·x_k mod (2^31−1) from
// x_0 = seed reduced into [1, 2^31−1), twenty steps discarded, then three
// steps per value, x_a<<40 ^ x_b<<20 ^ x_c. math/rand stores value j at
// ring slot j; in output order slot j is x[333-j] for j <= 333, else
// x[940-j]. Four chains, each started by a jumped-ahead multiplier, run
// interleaved, so the steps' latencies overlap.
func (s *source) seedLCG(seed int64) {
	seed %= lcgModulus
	if seed < 0 {
		seed += lcgModulus
	}
	if seed == 0 {
		seed = 89482311
	}
	var slots [4 * seedChainLen]uint64 // ring slot order; the last is past the ring
	c0, c1, c2, c3 := mulMod(uint64(seed), lcgJump[0]), mulMod(uint64(seed), lcgJump[1]), mulMod(uint64(seed), lcgJump[2]), mulMod(uint64(seed), lcgJump[3])
	s0, s1, s2, s3 := slots[:seedChainLen], slots[seedChainLen:2*seedChainLen], slots[2*seedChainLen:3*seedChainLen], slots[3*seedChainLen:]
	for j := range s0 {
		a0, a1, a2, a3 := lcgStep(c0), lcgStep(c1), lcgStep(c2), lcgStep(c3)
		b0, b1, b2, b3 := lcgStep(a0), lcgStep(a1), lcgStep(a2), lcgStep(a3)
		c0, c1, c2, c3 = lcgStep(b0), lcgStep(b1), lcgStep(b2), lcgStep(b3)
		s0[j], s1[j], s2[j], s3[j] = a0<<40^b0<<20^c0, a1<<40^b1<<20^c1, a2<<40^b2<<20^c2, a3<<40^b3<<20^c3
	}
	for j, v := range slots[:lagLong-lagShort] {
		s.x[lagLong-lagShort-1-j] = v
	}
	for j := lagLong - lagShort; j < lagLong; j++ {
		s.x[2*lagLong-lagShort-1-j] = slots[j]
	}
}

// seedChainLen is how many ring slots each of seedLCG's four chains fills.
const seedChainLen = (lagLong + 3) / 4

// lcgStep is one step of the seeding generator from x in [1, 2^31−1):
// 48271·x < 2^47, and 2^31 ≡ 1 folds its high part onto its low part once.
func lcgStep(x uint64) uint64 {
	p := x * lcgMultiplier
	p = p&lcgModulus + p>>31
	if p >= lcgModulus {
		p -= lcgModulus
	}
	return p
}

// mulMod returns a·b mod (2^31−1) for a, b < 2^31: the product fits 62
// bits, and 2^31 ≡ 1 folds its high part onto its low part.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgModulus + p>>31
	p = p&lcgModulus + p>>31
	if p >= lcgModulus {
		p -= lcgModulus
	}
	return p
}

var (
	// lcgJump[k] starts chain k: the multiplier taking the seed to the
	// step before ring slot k·seedChainLen's first, 48271^(20+3·k·seedChainLen).
	lcgJump [4]uint64
	// cooked is math/rand's rngCooked table in output order, the part of
	// every seeded state that does not depend on the seed.
	cooked [lagLong]uint64
)

// init derives lcgJump, then recovers cooked from math/rand itself: the
// first 607 outputs of rand.NewSource(1) determine the state they came
// from, x_{n−607} = x_n − x_{n−273}, and that state XOR seedLCG(1) is the
// table.
func init() {
	for k := range lcgJump {
		lcgJump[k] = 1
		for n := 0; n < 20+3*k*seedChainLen; n++ {
			lcgJump[k] = lcgStep(lcgJump[k])
		}
	}
	ref := rand.NewSource(1).(rand.Source64)
	var x [2 * lagLong]uint64 // x[607+n] is output n; x[:607] the state before it
	for n := lagLong; n < len(x); n++ {
		x[n] = ref.Uint64()
	}
	for n := lagLong - 1; n >= 0; n-- {
		x[n] = x[n+lagLong] - x[n+lagLong-lagShort]
	}
	var s source
	s.seedLCG(1)
	for n := range cooked {
		cooked[n] = x[n] ^ s.x[n]
	}
}
