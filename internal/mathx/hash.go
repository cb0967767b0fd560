package mathx

import "math"

// splitmix64 is the SplitMix64 finalizer, a fast high-quality bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashU64 mixes a sequence of keys into a single 64-bit hash. It is used
// for counter-based (stateless) randomness: the same keys always produce
// the same value, so per-frame detector noise is reproducible no matter in
// which order frames are visited.
func HashU64(keys ...uint64) uint64 { return uint64(HashOf(keys...)) }

// Hash is the hash of a sequence of keys, ready to take more: a left fold,
// so HashOf(a, b).With(c) is HashOf(a, b, c), and keys that many hashes
// share are folded once.
type Hash uint64

// HashOf folds keys into a Hash; as a uint64 it is HashU64(keys...).
func HashOf(keys ...uint64) Hash {
	h := Hash(0x2545f4914f6cdd1d)
	for _, k := range keys {
		h = h.With(k)
	}
	return h
}

// With folds one more key into h.
func (h Hash) With(k uint64) Hash { return Hash(splitmix64(uint64(h) ^ k)) }

// Hash01 maps keys to a uniform sample in [0, 1).
func Hash01(keys ...uint64) float64 { return HashOf(keys...).Unit() }

// Unit is Hash01 of h's keys.
func (h Hash) Unit() float64 { return float64(uint64(h)>>11) / float64(1<<53) }

// Normal maps h to a standard normal sample via Box-Muller over two
// derived uniforms.
func (h Hash) Normal() float64 {
	u1 := float64(splitmix64(uint64(h))>>11) / float64(1<<53)
	u2 := float64(splitmix64(uint64(h)^0xabcdef1234567890)>>11) / float64(1<<53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
