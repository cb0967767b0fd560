package serve

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// fastFloat converts a number token of one of the shapes clients send for
// covariates — a single digit, or "0." and 1 to 21 digits of which at most
// 19 are significant — to the float64 nearest its value, rounding half to
// even as strconv.ParseFloat does. It checks the shape itself and returns
// ok false for every other token (a sign, an exponent, an integer part
// other than "0", 20 or 21 significant digits, any other byte) and when
// Eisel–Lemire cannot decide; the caller then asks strconv.ParseFloat.
func fastFloat(tok []byte) (float64, bool) {
	if len(tok) == 1 {
		if c := tok[0] - '0'; c < 10 {
			return float64(c), true
		}
		return 0, false
	}
	if len(tok) < 3 || tok[0] != '0' || tok[1] != '.' || !allDigits(tok[2:]) {
		return 0, false
	}
	return fraction(tok)
}

// allDigits reports whether b holds ASCII digits only, a word at a time.
func allDigits(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if nonDigits(binary.LittleEndian.Uint64(b)) != 0 {
			return false
		}
	}
	for _, c := range b {
		if !isDigit(c) {
			return false
		}
	}
	return true
}

// fraction is fastFloat for a token known to be "0." and digits, as
// scanCompact's are. Its m digits are read 8 at a time into one integer w,
// so the value is exactly w / 10^m. When w < 2^53 both operands are exact
// float64s (10^m is for m ≤ 22) and one IEEE division rounds the quotient
// correctly (Clinger's fast path); otherwise eiselLemire rounds w × 10^-m
// from a truncated 128-bit power of ten.
func fraction(tok []byte) (float64, bool) {
	m := len(tok) - 2
	frac := tok[2:]
	// w must stay below 10^19 < 2^64: a 20-digit fraction needs one leading
	// zero and a 21-digit one two. Each partial sum below is a prefix of
	// the final w, so none can wrap either.
	if m > 21 || m > 19 && (frac[0] != '0' || m == 21 && frac[1] != '0') {
		return 0, false
	}
	var w uint64
	i := 0
	for ; i+8 <= m; i += 8 {
		w = w*1e8 + eightDigits(binary.LittleEndian.Uint64(frac[i:]))
	}
	if r := m - i; r > 0 {
		if len(tok) < 8 {
			for _, c := range frac[i:] {
				w = w*10 + uint64(c-'0')
			}
		} else {
			// The token's last word holds the r remaining digits in its
			// high bytes; its low bytes, already read, become '0's.
			x := binary.LittleEndian.Uint64(tok[len(tok)-8:])
			drop := uint(8 * (8 - r))
			x = x>>drop<<drop | '0'*lsbs&(uint64(1)<<drop-1)
			w = w*pow10Tail[r] + eightDigits(x)
		}
	}
	if w < 1<<53 {
		return float64(w) / pow10Exact[m], true
	}
	return eiselLemire(w, m)
}

// eightDigits returns the value of the 8 ASCII digits in x, the first in
// the low byte, in three multiplies: adjacent digits combine into 2-digit
// values, then pairs of those into 4 digits and 8 at once.
func eightDigits(x uint64) uint64 {
	x -= '0' * lsbs
	x = x*10 + x>>8
	return (x&0x000000ff000000ff*(100+1000000<<32) + x>>16&0x000000ff000000ff*(1+10000<<32)) >> 32
}

// pow10Tail[r] is 10^r, the scale of an r-digit tail.
var pow10Tail = [8]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7}

// pow10Exact[k] is 10^k; every entry is an exact float64.
var pow10Exact = [22]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21,
}

// eiselLemire returns the float64 nearest man × 10^-k for man ≥ 2^53 and
// 1 ≤ k ≤ 21, or ok false when the 128-bit product cannot tell which way
// the value rounds. It is eiselLemire64 of Go's src/strconv/eisel_lemire.go
// (BSD-style licence, © The Go Authors), itself after Lemire's
// fast_double_parser and Wuffs (https://nigeltao.github.io/blog/2020/eisel-lemire.html),
// cut to the inputs fastFloat passes: man is not zero, the sign is
// positive, the exponent is in the table's range and the result is a
// normal float64.
func eiselLemire(man uint64, k int) (f float64, ok bool) {
	pow := &pow10Neg128[k-1]
	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*-k>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// strconv checks retExp2 for subnormal and Inf/NaN results here; these
	// inputs lie in [2^53 × 10^-21, 10^19), far inside the normal range.
	return math.Float64frombits(retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF), true
}

// pow10Neg128[k-1] is 10^-k as a 128-bit mantissa {low, high}, normalized
// so the high word's top bit is set and rounded down: the rows 1e-1 to
// 1e-21 of strconv's detailedPowersOfTen. TestFastFloatPowers recomputes
// them.
var pow10Neg128 = [21][2]uint64{
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A}, // 1e-2
	{0x645A1CAC083126E9, 0x83126E978D4FDF3B}, // 1e-3
	{0xD3C36113404EA4A8, 0xD1B71758E219652B}, // 1e-4
	{0x0FCF80DC33721D53, 0xA7C5AC471B478423}, // 1e-5
	{0xA63F9A49C2C1B10F, 0x8637BD05AF6C69B5}, // 1e-6
	{0x3D32907604691B4C, 0xD6BF94D5E57A42BC}, // 1e-7
	{0xFDC20D2B36BA7C3D, 0xABCC77118461CEFC}, // 1e-8
	{0x31680A88F8953030, 0x89705F4136B4A597}, // 1e-9
	{0xB573440E5A884D1B, 0xDBE6FECEBDEDD5BE}, // 1e-10
	{0xF78F69A51539D748, 0xAFEBFF0BCB24AAFE}, // 1e-11
	{0xF93F87B7442E45D3, 0x8CBCCC096F5088CB}, // 1e-12
	{0x2865A5F206B06FB9, 0xE12E13424BB40E13}, // 1e-13
	{0x538484C19EF38C94, 0xB424DC35095CD80F}, // 1e-14
	{0x0F9D37014BF60A10, 0x901D7CF73AB0ACD9}, // 1e-15
	{0x4C2EBE687989A9B3, 0xE69594BEC44DE15B}, // 1e-16
	{0x09BEFEB9FAD487C2, 0xB877AA3236A4B449}, // 1e-17
	{0x3AFF322E62439FCF, 0x9392EE8E921D5D07}, // 1e-18
	{0x2B31E9E3D06C32E5, 0xEC1E4A7DB69561A5}, // 1e-19
	{0x88F4BB1CA6BCF584, 0xBCE5086492111AEA}, // 1e-20
	{0xD3F6FC16EBCA5E03, 0x971DA05074DA7BEE}, // 1e-21
}
