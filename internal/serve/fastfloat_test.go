package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkFastFloat fails t unless fastFloat declines tok or returns exactly
// the bits strconv.ParseFloat does, and reports whether it took the token.
func checkFastFloat(t *testing.T, tok string) bool {
	t.Helper()
	got, ok := fastFloat([]byte(tok))
	if !ok {
		return false
	}
	want, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		t.Fatalf("fastFloat(%q) = %v, strconv.ParseFloat says %v", tok, got, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fastFloat(%q) = %x, strconv.ParseFloat %x", tok, math.Float64bits(got), math.Float64bits(want))
	}
	return true
}

// FuzzFastFloat is the differential check of the converter against
// strconv.ParseFloat: on any bytes it declines or returns the same bits.
func FuzzFastFloat(f *testing.F) {
	for _, tok := range []string{
		"0", "7", "0.5", "0.6046602879796196", "0.12345678901234567", "0.123456789012345678",
		"0.0123456789012345678", "0.00123456789012345678", "0.9007199254740993", "0.000000000000000000001",
		"0.1x", "00.1", "-0.5", "0.5e3", "0.", "1.5", "0.12345678\x80",
	} {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		checkFastFloat(t, string(tok))
	})
}

// TestFastFloatBoundaries walks the edges of both fast paths: mantissas
// around 2^53, where Clinger hands over to Eisel–Lemire, every length of
// significant digits the converter takes or leaves, leading and trailing
// zeros, and the tokens it must leave to strconv.ParseFloat.
func TestFastFloatBoundaries(t *testing.T) {
	// m fraction digits of the mantissa w, zero-padded on the left.
	frac := func(w uint64, m int) string { return fmt.Sprintf("0.%0*d", m, w) }
	take := []string{
		frac(1<<52, 16), frac(1<<52, 19), frac(1<<53-1, 16), frac(1<<53-1, 21),
		frac(1<<53, 16), frac(1<<53, 18), frac(1<<53+1, 16), frac(1<<53+1, 21),
		"0.12345678901234567", "0.1234567890123456789", "0.0123456789012345678", "0.00123456789012345678",
		"0.9999999999999999999", "0.00000000000000000001", "0.000000000000000000001",
		"0." + strings.Repeat("0", 21), "0.0", "0.00000000", "0.01234567890123456789",
		"0.123456789012345678", "0.5", "0.25", "0.1234567", "0.12345678", "0.123456789",
	}
	for c := '0'; c <= '9'; c++ {
		take = append(take, string(c))
	}
	for z := 0; z <= 20; z++ {
		take = append(take, "0."+strings.Repeat("0", z)+"1")
	}
	for _, tok := range take {
		if !checkFastFloat(t, tok) {
			t.Errorf("fastFloat declined %q", tok)
		}
	}
	for _, tok := range []string{
		"", "0.", "0.5e3", "-0.5", "00.1", "0.1x", "x", "-", "1.5", "10", ".5", "0,5", "0.1 ",
		"0.12345678901234567890", "0.123456789012345678901", "0.012345678901234567891", "0.100000000000000000000",
		"0.1000000000000000000000",
		"0.12345678\x80", "0.1234567/", "0.1234567:", "0.12345678901234:67",
	} {
		if checkFastFloat(t, tok) {
			t.Errorf("fastFloat took %q", tok)
		}
	}
}

// TestFastFloatPowers recomputes the copied 128-bit powers: 10^-k scaled
// by the power of two that puts its top bit at bit 127, rounded down.
func TestFastFloatPowers(t *testing.T) {
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for k := 1; k <= len(pow10Neg128); k++ {
		ten := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		q := new(big.Int).Lsh(big.NewInt(1), uint(127+ten.BitLen()))
		q.Quo(q, ten)
		if q.BitLen() != 128 {
			t.Fatalf("1e-%d: %d-bit mantissa", k, q.BitLen())
		}
		lo := new(big.Int).And(q, mask).Uint64()
		hi := new(big.Int).Rsh(q, 64).Uint64()
		if got := pow10Neg128[k-1]; got != [2]uint64{lo, hi} {
			t.Errorf("1e-%d: table {%#x, %#x}, want {%#x, %#x}", k, got[0], got[1], lo, hi)
		}
	}
}

// ta9Tokens returns n number tokens in the mix of a TA9 push: 45 % "0" or
// "1", 55 % a fraction in (0, 1) as the client writes it — strconv's
// shortest 'g' form, "0." and 14 to 21 digits.
func ta9Tokens(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	toks := make([][]byte, n)
	for i := range toks {
		if rng.Float64() < 0.45 {
			toks[i] = []byte{byte('0' + rng.Intn(2))}
			continue
		}
		for {
			tok := strconv.AppendFloat(nil, rng.Float64(), 'g', -1, 64)
			if m := len(tok) - 2; m >= 14 && m <= 21 && !bytes.ContainsRune(tok, 'e') {
				toks[i] = tok
				break
			}
		}
	}
	return toks
}

var floatSink float64

// BenchmarkFastFloat times the conversion alone, the converter against
// strconv.ParseFloat, over the TA9 token mix.
func BenchmarkFastFloat(b *testing.B) {
	toks := ta9Tokens(4096, 1)
	for _, conv := range []struct {
		name string
		f    func([]byte) float64
	}{
		{"parsefloat", func(tok []byte) float64 {
			v, _ := strconv.ParseFloat(string(tok), 64)
			return v
		}},
		{"fastfloat", func(tok []byte) float64 {
			v, ok := fastFloat(tok)
			if !ok {
				v, _ = strconv.ParseFloat(string(tok), 64)
			}
			return v
		}},
	} {
		b.Run(conv.name, func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				for _, tok := range toks {
					s += conv.f(tok)
				}
			}
			floatSink = s
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(toks)), "ns/number")
		})
	}
}
