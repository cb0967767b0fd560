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

// The ingest data path: a frames POST is read into a pooled buffer, scanned
// by scanFrames straight into a pooled flat []float64, and copied in place
// into the session's frameRing. scanFrames accepts exactly one shape; every
// other body is decoded by encoding/json (see handleFrames), which owns all
// lenient behaviour and every error string.

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
	var rows int
	var canonical bool
	ib.vals, rows, canonical = scanFrames(ib.body.Bytes(), d, ib.vals)
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
	body bytes.Buffer
	vals []float64
}

var ingestPool = sync.Pool{New: func() interface{} { return new(ingestBuf) }}

func getIngestBuf() *ingestBuf { return ingestPool.Get().(*ingestBuf) }

// putIngestBuf returns b to the pool unless it grew past the cap, in which
// case it is left to the collector.
func putIngestBuf(b *ingestBuf) {
	if b.body.Cap() > maxPooledIngestBytes || cap(b.vals)*8 > maxPooledIngestBytes {
		return
	}
	b.body.Reset()
	b.vals = b.vals[:0]
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

// scanNumber returns the end of the JSON number starting at i, or i when
// the bytes there do not match -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func scanNumber(b []byte, i int) int {
	start := i
	if at(b, i) == '-' {
		i++
	}
	switch c := at(b, i); {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		for i++; isDigit(at(b, i)); i++ {
		}
	default:
		return start
	}
	if at(b, i) == '.' {
		i++
		if !isDigit(at(b, i)) {
			return start
		}
		for i++; isDigit(at(b, i)); i++ {
		}
	}
	if c := at(b, i); c == 'e' || c == 'E' {
		i++
		if c := at(b, i); c == '+' || c == '-' {
			i++
		}
		if !isDigit(at(b, i)) {
			return start
		}
		for i++; isDigit(at(b, i)); i++ {
		}
	}
	return i
}

var framesKey = []byte(`"frames"`)

// scanFrames parses the canonical frames body
//
//	{"frames":[[n,…],…]}
//
// — JSON whitespace allowed between tokens, the single key spelled exactly
// "frames", between 1 and MaxFramesPerPush rows of exactly d numbers each,
// nothing but whitespace after the closing brace — appending the values
// row-major to dst[:0]. Numbers are checked against the JSON number grammar
// and converted by strconv.ParseFloat, the conversion encoding/json uses,
// so every value is bit-identical to what json.Unmarshal would store; a
// range error declines, which is why an accepted value is always finite.
//
// ok false means "not the canonical shape", never "invalid": the caller
// decodes the body with encoding/json instead. The returned slice is dst's
// (possibly regrown) backing array either way, so the caller keeps it.
func scanFrames(b []byte, d int, dst []float64) (vals []float64, rows int, ok bool) {
	vals = dst[:0]
	i := skipSpace(b, 0)
	if at(b, i) != '{' {
		return vals, 0, false
	}
	i = skipSpace(b, i+1)
	if !bytes.HasPrefix(b[i:], framesKey) {
		return vals, 0, false
	}
	i = skipSpace(b, i+len(framesKey))
	if at(b, i) != ':' {
		return vals, 0, false
	}
	i = skipSpace(b, i+1)
	if at(b, i) != '[' {
		return vals, 0, false
	}
	i = skipSpace(b, i+1)
	for {
		if at(b, i) != '[' || rows == MaxFramesPerPush {
			return vals, 0, false
		}
		i = skipSpace(b, i+1)
		for j := 0; j < d; j++ {
			if j > 0 {
				if at(b, i) != ',' {
					return vals, 0, false
				}
				i = skipSpace(b, i+1)
			}
			end := scanNumber(b, i)
			if end == i {
				return vals, 0, false
			}
			v, err := strconv.ParseFloat(string(b[i:end]), 64)
			if err != nil {
				return vals, 0, false
			}
			vals = append(vals, v)
			i = skipSpace(b, end)
		}
		if at(b, i) != ']' {
			return vals, 0, false
		}
		rows++
		i = skipSpace(b, i+1)
		if at(b, i) == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		break
	}
	if at(b, i) != ']' {
		return vals, 0, false
	}
	i = skipSpace(b, i+1)
	if at(b, i) != '}' {
		return vals, 0, false
	}
	if skipSpace(b, i+1) != len(b) {
		return vals, 0, false
	}
	return vals, rows, true
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
