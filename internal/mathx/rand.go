package mathx

import (
	"math"
	"math/rand"
)

// RNG is a seeded random stream with the samplers the workload generators
// need. It wraps math/rand so every experiment is reproducible from a
// single seed; independent components should derive their own stream via
// Split so that adding draws to one component does not perturb another.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream. The child's seed mixes the
// parent stream and the supplied label so distinct labels give distinct
// streams deterministically.
func (g *RNG) Split(label int64) *RNG {
	const golden = int64(0x9e3779b97f4a7c15 & 0x7fffffffffffffff)
	mix := g.r.Int63() ^ (label * golden)
	return NewRNG(mix)
}

// Float64 returns a uniform sample from [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

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

// Poisson returns a sample from Poisson(lambda). Knuth's product method is
// used for small lambda and a normal approximation for large lambda; the
// workloads in this repository only need lambda well under 50.
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 50 {
		v := g.Normal(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
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
	u := g.r.Float64()
	return int(math.Floor(math.Log1p(-u) / math.Log1p(-p)))
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Shuffle permutes the first n indices via the provided swap function.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
