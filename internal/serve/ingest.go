package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The ingest data path: a frames POST is read into a pooled buffer and
// scanned by scanFrames, which checks every row but converts only the rows
// the session's frameRing can still hold into a pooled flat []float64; those
// are copied in place into the ring. scanFrames accepts exactly one shape;
// every other body is decoded by encoding/json (see handleFrames), which
// owns all lenient behaviour and every error string.

// FramesRequest is the POST /v1/frames body.
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
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if n := r.ContentLength; n > 0 {
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
	// Resolve through the session's atomic unit, not Config.Bundle: the
	// serving model may have been swapped since boot. (Swap validation
	// freezes InputDim server-wide, so this is belt and braces — but it
	// keeps the request path honest about where the model lives.)
	d := s.resolveUnit(sess).inputDim
	// ring.rows is fixed when the session is made, so it needs no mu.
	rows, canonical := ib.scanFrames(ib.body.Bytes(), d, sess.ring.rows)
	if !canonical {
		if rows, canonical = decodeFramesJSON(w, ib, d); !canonical {
			return
		}
	}
	s.mu.Lock()
	sess.ring.push(ib.vals)
	sess.next += rows
	resp := FramesResponse{Buffered: sess.ring.n, Next: sess.next}
	s.mu.Unlock()
	writeJSON(w, resp)
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
	spans []span // scanFrames' ring of the kept rows' number tokens
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

// maxFiniteMag: a number below 10^maxFiniteMag in magnitude is below
// math.MaxFloat64 (≈ 1.8e308), so ParseFloat converts it without a range
// error.
const maxFiniteMag = 308

// scanNumber returns the end of the JSON number starting at i, or i when
// the bytes there do not match -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and mag: the integer part's digit count (0 for a lone "0") plus the
// signed exponent, so |number| < 10^mag. The exponent stops growing past
// 10 000 so it cannot wrap; saturated, mag is still ≥ 10 000 when the
// exponent is positive and only looser when it is negative, so
// mag ≤ maxFiniteMag keeps proving the number finite.
func scanNumber(b []byte, i int) (end, mag int) {
	start := i
	if at(b, i) == '-' {
		i++
	}
	switch c := at(b, i); {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		digits := i
		for i++; isDigit(at(b, i)); i++ {
		}
		mag = i - digits
	default:
		return start, 0
	}
	if at(b, i) == '.' {
		i++
		if !isDigit(at(b, i)) {
			return start, 0
		}
		for i++; isDigit(at(b, i)); i++ {
		}
	}
	if c := at(b, i); c == 'e' || c == 'E' {
		i++
		sign := 1
		if c := at(b, i); c == '+' || c == '-' {
			if c == '-' {
				sign = -1
			}
			i++
		}
		if !isDigit(at(b, i)) {
			return start, 0
		}
		e := 0
		for ; isDigit(at(b, i)); i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		mag += sign * e
	}
	return i, mag
}

var framesKey = []byte(`"frames"`)

// scanFrames parses the canonical frames body
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
// scanNumber's magnitude bound settles finiteness for anything below 1e308,
// and a strconv.ParseFloat range error declines the rest. The kept rows'
// tokens wait in ib.spans, a ring of keep rows, and are converted only once
// the whole body is accepted — by strconv.ParseFloat, the conversion
// encoding/json uses, so every value is bit-identical to what
// json.Unmarshal would store.
//
// ok false means "not the canonical shape", never "invalid": the caller
// decodes the body with encoding/json instead.
func (ib *ingestBuf) scanFrames(b []byte, d, keep int) (rows int, ok bool) {
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
			if j > 0 {
				if at(b, i) != ',' {
					return 0, false
				}
				i = skipSpace(b, i+1)
			}
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
			i = skipSpace(b, end)
		}
		if at(b, i) != ']' {
			return 0, false
		}
		rows++
		if next += d; next == keep*d {
			next = 0
		}
		i = skipSpace(b, i+1)
		if at(b, i) == ',' {
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
			v, err := strconv.ParseFloat(string(b[s.lo:s.hi]), 64)
			if err != nil {
				return 0, false
			}
			ib.vals = append(ib.vals, v)
		}
	}
	return rows, true
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
