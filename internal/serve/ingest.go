package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"eventhit/internal/mathx"
)

// The ingest data path: a frames POST is read into a pooled buffer and
// scanned by scanFrames, which checks every row but converts only the rows
// the session's frameRing can still hold into a pooled flat []float64; those
// are copied in place into the ring. scanFrames accepts exactly one shape;
// every other body is decoded by encoding/json (see handleFrames), which
// owns all lenient behaviour and every error string.

// FramesRequest is the POST /v1/sessions/{id}/frames body.
type FramesRequest struct {
	Frames [][]float64 `json:"frames"`
}

// FramesResponse acknowledges buffered frames.
type FramesResponse struct {
	Buffered int `json:"buffered"` // frames currently in the window buffer
	Next     int `json:"next"`     // absolute index of the next frame
}

func (s *Server) handleFrames(sess *session, w http.ResponseWriter, r *http.Request) {
	ib := getIngestBuf()
	defer putIngestBuf(ib)
	body := r.Body
	if n := r.ContentLength; n < 0 || n > MaxBodyBytes {
		// A body of known length within the limit ends at that length.
		body = http.MaxBytesReader(w, body, MaxBodyBytes)
	} else if n > 0 {
		// ReadFrom wants MinRead spare bytes to see EOF; ask for them up
		// front so a body of known length costs one growth, not a doubling
		// series. Capped: a declared length commits no more memory than the
		// pool would keep anyway before the bytes actually arrive.
		ib.body.Grow(int(min(n, maxPooledIngestBytes)) + bytes.MinRead)
	}
	if _, err := ib.body.ReadFrom(body); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "invalid JSON: %v", err)
		return
	}
	// Swap keeps every unit's input dimension the server's, and ring.rows
	// is fixed when the session is made, so neither needs a lock.
	rows, canonical := ib.scanFrames(ib.body.Bytes(), s.inputDim, sess.ring.rows)
	if !canonical {
		if rows, canonical = decodeFramesJSON(w, ib, s.inputDim); !canonical {
			return
		}
	}
	s.mu.Lock()
	sess.ring.push(ib.vals)
	sess.next += rows
	resp := FramesResponse{Buffered: sess.ring.n, Next: sess.next}
	s.mu.Unlock()
	ib.out = appendFramesResponse(ib.out[:0], resp)
	w.Header()["Content-Type"] = jsonContentType
	w.Write(ib.out)
}

// appendFramesResponse appends resp to dst byte for byte as
// json.NewEncoder(w).Encode(resp) writes it, trailing newline included.
func appendFramesResponse(dst []byte, resp FramesResponse) []byte {
	dst = append(dst, `{"buffered":`...)
	dst = strconv.AppendInt(dst, int64(resp.Buffered), 10)
	dst = append(dst, `,"next":`...)
	dst = strconv.AppendInt(dst, int64(resp.Next), 10)
	return append(dst, "}\n"...)
}

// decodeFramesJSON is the fallback for a body scanFrames declined:
// encoding/json decides what the body means, and the checks below what is
// wrong with it — every lenient behaviour and every error string of the
// frames endpoint lives here. The Decoder reads the first JSON value only,
// as this endpoint always has. On success the frames are in ib.vals,
// row-major; otherwise the error response has been written.
func decodeFramesJSON(w http.ResponseWriter, ib *ingestBuf, d int) (rows int, ok bool) {
	var req FramesRequest
	if err := json.NewDecoder(&ib.body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return 0, false
	}
	if len(req.Frames) == 0 {
		httpError(w, http.StatusBadRequest, "no frames")
		return 0, false
	}
	if len(req.Frames) > MaxFramesPerPush {
		httpError(w, http.StatusRequestEntityTooLarge, "batch of %d frames exceeds limit %d", len(req.Frames), MaxFramesPerPush)
		return 0, false
	}
	ib.vals = ib.vals[:0]
	for i, f := range req.Frames {
		if len(f) != d {
			httpError(w, http.StatusBadRequest, "frame %d has %d channels, model expects %d", i, len(f), d)
			return 0, false
		}
		for j, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				httpError(w, http.StatusBadRequest, "frame %d channel %d is not finite", i, j)
				return 0, false
			}
		}
		ib.vals = append(ib.vals, f...)
	}
	return len(req.Frames), true
}

// maxPooledIngestBytes caps what an ingestBuf may hold when it goes back to
// the pool: one MaxBodyBytes request must not pin 8 MiB per pool slot.
const maxPooledIngestBytes = 1 << 20

// ingestBuf is the per-request scratch of handleFrames.
type ingestBuf struct {
	body  bytes.Buffer
	vals  []float64
	spans []span // scanWords' ring of the kept rows' number tokens
	out   []byte // the acknowledgement
}

// span is one number token's byte range in the body; 16 bytes.
type span struct{ lo, hi int }

var ingestPool = sync.Pool{New: func() interface{} { return new(ingestBuf) }}

func getIngestBuf() *ingestBuf { return ingestPool.Get().(*ingestBuf) }

// putIngestBuf returns b to the pool unless it grew past the cap, in which
// case it is left to the collector.
func putIngestBuf(b *ingestBuf) {
	if b.body.Cap() > maxPooledIngestBytes || cap(b.vals)*8 > maxPooledIngestBytes || cap(b.spans)*16 > maxPooledIngestBytes {
		return
	}
	b.body.Reset()
	b.vals = b.vals[:0]
	b.spans = b.spans[:0]
	ingestPool.Put(b)
}

// at returns b[i], or 0 — which no grammar rule accepts — past the end.
func at(b []byte, i int) byte {
	if i < len(b) {
		return b[i]
	}
	return 0
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// The scanner reads the body a word at a time: 8 bytes in a uint64, b[i]
// in the low byte. nonDigits marks the bytes of a word that are not digits
// with their high bit, so one TrailingZeros64 finds where a digit run ends.
const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// digitRun returns the length of the run of ASCII digits at b[i:] and the
// byte after it (0 past the end of b): a word at a time while 8 bytes are
// left, then a byte at a time.
func digitRun(b []byte, i int) (n int, next byte) {
	for ; i+n+8 <= len(b); n += 8 {
		w := binary.LittleEndian.Uint64(b[i+n:])
		if k := bits.TrailingZeros64(nonDigits(w)) >> 3; k < 8 {
			return n + k, byte(w >> (8 * k))
		}
	}
	for ; isDigit(at(b, i+n)); n++ {
	}
	return n, at(b, i+n)
}

// fastNumber returns the end of the number at b[i:] when it has one of
// the shapes clients send — a single digit, or "0." and 14 to 21 digits,
// which is how strconv's shortest 'g' form writes a float64 in (0, 1) with
// full precision — and sep follows it directly; otherwise it returns i.
// Such a number is finite, so no magnitude check is needed. It reads three
// words, so the last few numbers of a body go to scanNumber.
//
// A stream mixes "0", "1" and long fractions in no order a branch
// predictor could learn, so fastNumber picks the shape without a branch:
// the end comes from byte 1 (sep or not) and the digit count of the third
// word, and the next number waits on nothing else. Whether the shape
// really holds is tested beside it and decides a branch that goes the same
// way for every number of a well-formed body.
func fastNumber(b []byte, i int, sep byte) int {
	if i+24 > len(b) {
		return i
	}
	t := b[i : i+24 : i+24]
	w0 := binary.LittleEndian.Uint64(t)
	w2 := binary.LittleEndian.Uint64(t[16:])
	k := bits.TrailingZeros64(nonDigits(w2)|1<<63) >> 3
	// long is all ones when byte 1 is not sep, and 0 when it is.
	long := -((uint64(byte(w0>>8)^sep) + 0xff) >> 8)
	x0 := nonDigits(w0)
	// Each test is zero when its shape holds. A digit, then sep; or "0.",
	// 6 digits, 8 digits, then k < 8 more and sep. (k counts byte 7 of w2
	// as no digit, so TrailingZeros64 needs no zero check; a run that
	// fills w2 then ends on a digit, and a digit is no sep.)
	bad := x0&0x80&^long | long&(uint64(uint16(w0)^('0'|'.'<<8))|x0&^0x8080|
		nonDigits(binary.LittleEndian.Uint64(t[8:]))|uint64(byte(w2>>(8*k&63))^sep))
	if bad != 0 {
		return i
	}
	return i + 1 + int(long&uint64(15+k))
}

// nonDigits returns the high bit of every byte of w that is not an ASCII
// digit. With the high bits cleared no byte exceeds 0x7f, so adding 0x50
// or 0x46 to each byte carries into no neighbour, and sets the byte's high
// bit exactly when it is ≥ '0' or > '9'.
func nonDigits(w uint64) uint64 {
	lo := w &^ msbs
	return (^(lo + (0x80-'0')*lsbs) | (lo + (0x80-'9'-1)*lsbs) | w) & msbs
}

// maxFiniteMag: a number below 10^maxFiniteMag in magnitude is below
// math.MaxFloat64 (≈ 1.8e308), so ParseFloat converts it without a range
// error.
const maxFiniteMag = 308

// scanNumber returns the end of the JSON number starting at i, or i when
// the bytes there do not match -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and mag: the integer part's digit count (0 for a lone "0") plus the
// signed exponent, so |number| < 10^mag. Digit runs are word scans; only a
// sign or an exponent takes a byte at a time. The exponent stops growing
// past 10 000 so it cannot wrap; saturated, mag is still ≥ 10 000 when the
// exponent is positive and only looser when it is negative, so
// mag ≤ maxFiniteMag keeps proving the number finite. A leading zero
// followed by digits ("01") is declined here; a number cannot be followed
// by a digit anyway.
func scanNumber(b []byte, i int) (end, mag int) {
	start := i
	n, c := digitRun(b, i)
	if n == 0 {
		if c != '-' {
			return start, 0
		}
		i++
		if n, c = digitRun(b, i); n == 0 {
			return start, 0
		}
	}
	if b[i] != '0' {
		mag = n
	} else if n > 1 {
		return start, 0
	}
	i += n
	if c == '.' {
		if n, c = digitRun(b, i+1); n == 0 {
			return start, 0
		}
		i += 1 + n
	}
	if c != 'e' && c != 'E' {
		return i, mag
	}
	i++
	sign := 1
	if c := at(b, i); c == '+' || c == '-' {
		if c == '-' {
			sign = -1
		}
		i++
	}
	if n, _ = digitRun(b, i); n == 0 {
		return start, 0
	}
	e := 0
	for _, x := range b[i : i+n] {
		if e < 10000 {
			e = e*10 + int(x-'0')
		}
	}
	return i + n, mag + sign*e
}

var framesKey = []byte(`"frames"`)

// scanWords parses the canonical frames body
//
//	{"frames":[[n,…],…]}
//
// — JSON whitespace allowed between tokens, the single key spelled exactly
// "frames", between 1 and MaxFramesPerPush rows of exactly d numbers each,
// nothing but whitespace after the closing brace — and leaves in ib.vals,
// row-major, the values of the last min(rows, keep) rows only: what a ring
// of keep frames (keep ≥ 1) still holds after the push. rows counts every
// row.
//
// Every row is checked, kept or not, so the accepted bodies do not depend
// on keep. A number must match the JSON number grammar and be finite:
// fastNumber takes the shapes clients send, which are finite, and
// scanNumber every other token; its magnitude bound settles finiteness for
// anything below 1e308, and a strconv.ParseFloat range error declines the
// rest. The kept rows'
// tokens wait in ib.spans, a ring of keep rows, and are converted only once
// the whole body is accepted: by fastFloat when the token has a shape it
// takes, else by strconv.ParseFloat, the conversion encoding/json uses.
// Both round correctly, so every value is bit-identical to what
// json.Unmarshal would store.
//
// ok false means "not the canonical shape", never "invalid": the caller
// decodes the body with encoding/json instead. scanFrames calls it for
// every body scanCompact declines.
func (ib *ingestBuf) scanWords(b []byte, d, keep int) (rows int, ok bool) {
	ib.vals, ib.spans = ib.vals[:0], ib.spans[:0]
	i := skipSpace(b, 0)
	if at(b, i) != '{' {
		return 0, false
	}
	i = skipSpace(b, i+1)
	if !bytes.HasPrefix(b[i:], framesKey) {
		return 0, false
	}
	i = skipSpace(b, i+len(framesKey))
	if at(b, i) != ':' {
		return 0, false
	}
	i = skipSpace(b, i+1)
	if at(b, i) != '[' {
		return 0, false
	}
	i = skipSpace(b, i+1)
	// next is where the next row's spans go. It wraps at keep rows, so once
	// the ring has filled it is also where the oldest kept row is.
	next := 0
	for {
		if at(b, i) != '[' || rows == MaxFramesPerPush {
			return 0, false
		}
		i = skipSpace(b, i+1)
		if rows < keep {
			ib.spans = append(ib.spans, make([]span, d)...)
		}
		row := ib.spans[next : next+d]
		for j := range row {
			sep := byte(',')
			if j == len(row)-1 {
				sep = ']'
			}
			if end := fastNumber(b, i, sep); end > i {
				row[j] = span{i, end}
				i = end + 1
				continue
			}
			i = skipSpace(b, i)
			end, mag := scanNumber(b, i)
			if end == i {
				return 0, false
			}
			if mag > maxFiniteMag {
				if _, err := strconv.ParseFloat(string(b[i:end]), 64); err != nil {
					return 0, false
				}
			}
			row[j] = span{i, end}
			if i = skipSpace(b, end); at(b, i) != sep {
				return 0, false
			}
			i++
		}
		if d == 0 {
			if at(b, i) != ']' {
				return 0, false
			}
			i++
		}
		rows++
		if next += d; next == keep*d {
			next = 0
		}
		if i = skipSpace(b, i); at(b, i) == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		break
	}
	if at(b, i) != ']' {
		return 0, false
	}
	i = skipSpace(b, i+1)
	if at(b, i) != '}' {
		return 0, false
	}
	if skipSpace(b, i+1) != len(b) {
		return 0, false
	}
	// Oldest kept row first. A ring that never filled has next at its end,
	// so its first part is empty.
	for _, part := range [2][]span{ib.spans[next:], ib.spans[:next]} {
		for _, s := range part {
			tok := b[s.lo:s.hi]
			v, fast := fastFloat(tok)
			if !fast {
				var err error
				if v, err = strconv.ParseFloat(string(tok), 64); err != nil {
					return 0, false
				}
			}
			ib.vals = append(ib.vals, v)
		}
	}
	return rows, true
}

// vectorScan selects scanCompact, the vector front end of scanFrames; it
// holds when the process runs the AVX2 kernels (mathx.Vector), so
// GODEBUG=cpu.avx2=off leaves every body to scanWords.
var vectorScan = mathx.Vector()

// scanFrames parses a frames body as scanWords specifies: the rows it
// counts, the values of the last min(rows, keep) of them in ib.vals, or ok
// false for a body that is not the canonical shape. A body the vector front
// end accepts never reaches the walk; every other body, and every body on
// a machine without the AVX2 kernels, is scanWords' alone.
func (ib *ingestBuf) scanFrames(b []byte, d, keep int) (rows int, ok bool) {
	if vectorScan {
		if rows, ok = ib.scanCompact(b, d, keep); ok {
			return rows, true
		}
	}
	return ib.scanWords(b, d, keep)
}

var (
	compactHead = []byte(`{"frames":[`)
	compactTail = []byte(`]}`)
)

// scanCompact is scanWords for the compact bodies clients write, in two
// vector passes with no per-byte loop (after simdjson: Langdale and Lemire,
// VLDB J. 2019). It accepts exactly
//
//	{"frames":[[t,…,t],…,[t,…,t]]}
//
// with no whitespace, 1 to MaxFramesPerPush rows of d ≥ 1 tokens, each a
// single digit or "0." and digits: bodies scanWords accepts, with the same
// rows and values. It declines (ok false) every other body, for scanWords.
//
// The first pass, checkRowsAVX2, reads the rows 62 bytes per block, each
// block with the two bytes before it as context, and checks these rules on
// whole masks ("after" is a shift by one bit; a comma after ']' separates
// rows, any other separates tokens):
//
//   - every byte is a digit, ',', '[', ']' or '.';
//   - after ']' comes ',' (or the end of the rows);
//   - '[' comes first and after a row comma, and nowhere else;
//   - after ',' or '[' comes a digit or '[';
//   - a token's first digit is not followed by a digit;
//   - '.' follows a token's leading '0' and is followed by a digit.
//
// So every token is a finite JSON number, and between '[' and ']' lie only
// tokens joined by token commas. At each ']' the token commas since the
// row began must be d-1, which the pass counts by popcount. Once the body
// is accepted, every row holds d tokens, so the kept rows are its last
// min(rows, keep)·d tokens: cutKept converts them as scanWords does.
func (ib *ingestBuf) scanCompact(b []byte, d, keep int) (rows int, ok bool) {
	ib.vals = ib.vals[:0]
	if d < 1 || !bytes.HasPrefix(b, compactHead) || !bytes.HasSuffix(b, compactTail) {
		return 0, false
	}
	y := b[len(compactHead) : len(b)-len(compactTail)] // the rows
	if len(y) < 2 || y[0] != '[' || y[len(y)-1] != ']' {
		return 0, false
	}
	// Block k is x[62k : 62k+64], x[i] being y[i-1]: two bytes of context,
	// then the 62 it checks, from y[1] on. The blocks x holds whole are
	// checked in place, the last, partial one from a zeroed copy.
	x := b[len(compactHead)-1 : len(b)-len(compactTail)]
	var st rowState
	whole := (len(x) - 2) / 62
	bad := checkRowsAVX2(&st, x[:62*whole+2], ^uint64(3), d-1)
	if r := len(x) - 2 - 62*whole; r > 0 && bad == 0 {
		var blk [64]byte
		copy(blk[:], x[62*whole:])
		bad = checkRowsAVX2(&st, blk[:], (1<<r-1)<<2, d-1)
	}
	if bad != 0 || st.rows > MaxFramesPerPush {
		return 0, false
	}
	ib.cutKept(y, d*min(st.rows, keep))
	return st.rows, true
}

// rowState is what checkRowsAVX2 carries from call to call: the token
// commas so far, less d-1 for each row ended, and the rows ended.
type rowState struct{ commas, rows int }

// cutKept converts the last n tokens of the checked rows y into ib.vals,
// walking back from the end over classifyAVX2's masks of the bytes ',',
// '[' and ']': a token is a gap of more than one byte between two of them
// ("],[" leaves gaps of none). A lone digit is its value, and the others
// go to fraction, else to strconv.ParseFloat, as scanWords converts them.
func (ib *ingestBuf) cutKept(y []byte, n int) {
	ib.vals = slices.Grow(ib.vals[:0], n)[:n]
	var m [16]uint64
	var tail [64]byte
	last, end := (len(y)-1)/64, len(y)
	for hi := last; hi >= 0; hi -= len(m) {
		lo := max(0, hi-len(m)+1)
		k := hi - lo + 1
		if hi == last && len(y)%64 != 0 {
			copy(tail[:], y[64*hi:])
			k--
			classifyAVX2(m[k:k+1], tail[:])
		}
		classifyAVX2(m[:k], y[64*lo:])
		for j := hi; j >= lo; j-- {
			for x := m[j-lo]; x != 0; {
				p := 63 - bits.LeadingZeros64(x)
				x &^= 1 << p
				a := 64*j + p
				if end-a > 1 {
					tok := y[a+1 : end]
					v, fast := float64(tok[0]-'0'), true
					if len(tok) > 1 {
						v, fast = fraction(tok)
					}
					if !fast { // a compact token always parses
						v, _ = strconv.ParseFloat(string(tok), 64)
					}
					n--
					if ib.vals[n] = v; n == 0 {
						return
					}
				}
				end = a
			}
		}
	}
}

// frameRing is one session's sliding window: the last `rows` frames,
// row-major in one flat slice that is written in place. Guarded by
// Server.mu like the rest of the session.
type frameRing struct {
	data []float64 // rows*d values
	d    int       // channels per frame
	rows int       // capacity in frames (the model window)
	head int       // row the next frame is written to
	n    int       // frames buffered, at most rows
}

func newFrameRing(rows, d int) frameRing {
	return frameRing{data: make([]float64, rows*d), d: d, rows: rows}
}

// push appends the frames in flat (row-major, a multiple of d values).
// Only the last `rows` of them can still be in the window afterwards, so
// only those are copied.
func (r *frameRing) push(flat []float64) {
	k := len(flat) / r.d
	if k > r.rows {
		flat = flat[(k-r.rows)*r.d:]
		k = r.rows
	}
	c := copy(r.data[r.head*r.d:], flat)
	copy(r.data, flat[c:])
	r.head = (r.head + k) % r.rows
	r.n = min(r.n+k, r.rows)
}

// copyTo writes the buffered frames, oldest first, to dst[:n*d].
func (r *frameRing) copyTo(dst []float64) {
	dst = dst[:r.n*r.d]
	oldest := (r.head - r.n + r.rows) % r.rows
	c := copy(dst, r.data[oldest*r.d:])
	copy(dst[c:], r.data)
}
