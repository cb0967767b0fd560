package serve

import (
	"bytes"
	"strings"
)

// The hot routes, indexing Owner.hot and hotPatterns.
const (
	hotSessionPredict = iota
	hotSessionFrames
)

// strictHead is a request head the strict parser accepted.
type strictHead struct {
	route                        int
	id, path, query, host, ctype []byte // query is nil without a '?'
	length                       int64
	close                        bool
}

// strictHeaders are the headers a strict head may carry, each at most once:
// Host (required), Content-Length, Content-Type (the front passes it on),
// Connection, and the User-Agent and Accept-Encoding that Go's http.Client
// adds (serve.Client, eventhitreplay), which no hot handler reads.
var strictHeaders = [...][]byte{[]byte("host"), []byte("content-length"), []byte("content-type"), []byte("connection"),
	[]byte("user-agent"), []byte("accept-encoding")}

// parseStrict parses the request head at the start of b for an owned
// connection's fast path: a POST to a hot route over HTTP/1.1, CRLF line
// ends, only strictHeaders, a Content-Length of at most MaxBodyBytes, a
// Connection of close or keep-alive, and printable ASCII throughout. It
// returns the head's length; 0 declines the request, and 0 with more set
// asks for more bytes.
func parseStrict(b []byte) (h strictHead, n int, more bool) {
	const method, proto = "POST /", " HTTP/1.1"
	if len(b) < len(method) || string(b[:len(method)]) != method {
		return h, 0, string(b) == method[:min(len(b), len(method))]
	}
	line, rest, st := cutLine(b)
	if st != lineOK || len(line) < len(method)+len(proto) || string(line[len(line)-len(proto):]) != proto {
		return h, 0, st == lineMore
	}
	target := line[len(method)-1 : len(line)-len(proto)]
	h.path = target
	if i := bytes.IndexByte(target, '?'); i >= 0 {
		h.path, h.query = target[:i], target[i+1:]
	}
	var ok bool
	if h.route, h.id, ok = hotRoute(h.path); !ok || !printable(target, false) {
		return h, 0, false
	}
	var seen [len(strictHeaders)]bool
	for {
		if line, rest, st = cutLine(rest); st != lineOK {
			return h, 0, st == lineMore
		}
		if len(line) == 0 {
			if !seen[0] {
				return h, 0, false // no Host
			}
			return h, len(b) - len(rest), false
		}
		colon, k := bytes.IndexByte(line, ':'), 0
		for k < len(seen) && (colon < 0 || !bytes.EqualFold(line[:colon], strictHeaders[k])) {
			k++
		}
		if k == len(seen) || seen[k] {
			return h, 0, false
		}
		seen[k] = true
		v := bytes.Trim(line[colon+1:], " \t")
		switch {
		case !printable(v, true):
			return h, 0, false
		case k == 0:
			if h.host = v; !alnumOr(v, ".-:[]") {
				return h, 0, false
			}
		case k == 1:
			for _, c := range v {
				if !isDigit(c) || h.length > MaxBodyBytes {
					return h, 0, false
				}
				h.length = h.length*10 + int64(c-'0')
			}
			if len(v) == 0 || h.length > MaxBodyBytes {
				return h, 0, false
			}
		case k == 2:
			h.ctype = v
		case k == 3:
			if h.close = bytes.EqualFold(v, []byte("close")); !h.close && !bytes.EqualFold(v, []byte("keep-alive")) {
				return h, 0, false
			}
		}
	}
}

// printable reports whether b is printable ASCII; spaces and tabs only
// where inner is set.
func printable(b []byte, inner bool) bool {
	for _, c := range b {
		if (c <= ' ' || c >= 0x7f) && !(inner && (c == ' ' || c == '\t')) {
			return false
		}
	}
	return true
}

const (
	lineOK = iota
	lineMore
	lineBad
)

// cutLine cuts the CRLF-ended line at the start of b; a bare LF is lineBad.
func cutLine(b []byte) (line, rest []byte, st int) {
	i := bytes.IndexByte(b, '\n')
	switch {
	case i < 0:
		return nil, nil, lineMore
	case i == 0 || b[i-1] != '\r':
		return nil, nil, lineBad
	}
	return b[:i-1], b[i+1:], lineOK
}

// hotRoute matches a path to a hot route as the mux would: a session's
// route whose id is one clean segment of unreserved characters.
func hotRoute(path []byte) (route int, id []byte, ok bool) {
	id, ok = bytes.CutPrefix(path, []byte("/v1/sessions/"))
	i := bytes.IndexByte(id, '/')
	if !ok || i <= 0 || string(id[:i]) == "." || string(id[:i]) == ".." {
		return 0, nil, false
	}
	switch route = hotSessionPredict; string(id[i:]) {
	case "/predict":
	case "/frames":
		route = hotSessionFrames
	default:
		return 0, nil, false
	}
	return route, id[:i], alnumOr(id[:i], "-._~")
}

// alnumOr reports whether every byte of b is an ASCII letter or digit or
// one of extra.
func alnumOr(b []byte, extra string) bool {
	for _, c := range b {
		if !isDigit(c) && !('a' <= c|0x20 && c|0x20 <= 'z') && strings.IndexByte(extra, c) < 0 {
			return false
		}
	}
	return true
}
