package serve

import (
	"strconv"
	"strings"
)

// corpusEntry is one frames POST body with the answer the handler gave for
// it before the scanner existed (status code and, for an error, the "error"
// string; a 2xx answers {"buffered":…,"next":…} for `rows` frames pushed
// into an empty session). The scanner must not move any of them.
type corpusEntry struct {
	name string
	body string
	code int
	err  string // error message, "" on success
	rows int    // frames ingested on success
	// fast reports whether scanFrames takes the body itself (true) or hands
	// it to encoding/json (false).
	fast bool
}

// corpusRow renders one frame of d channels whose first channel is the
// literal v and whose other channels are 0, so a single token under test
// sits in an otherwise well-formed row.
func corpusRow(d int, v string) string {
	return "[" + v + strings.Repeat(",0", d-1) + "]"
}

// frameCorpus is the seed corpus shared by FuzzParseFrames and
// TestFramesHandlerCorpus, built for frames of d channels.
func frameCorpus(d int) []corpusEntry {
	row := func(v string) string { return corpusRow(d, v) }
	one := row("1")
	ds := strconv.Itoa(d)
	syntax := func(tok, where string) string {
		return "invalid JSON: invalid character " + tok + " " + where
	}
	// dropped puts v in row 0 of a MaxFramesPerPush-row body: a row no
	// window keeps, so the scanner checks it without converting it.
	dropped := func(v string) string {
		return `{"frames":[` + row(v) + strings.Repeat(","+one, MaxFramesPerPush-1) + `]}`
	}
	rangeErr := func(v string) string {
		return "invalid JSON: json: cannot unmarshal number " + v + " into Go struct field FramesRequest.frames of type float64"
	}
	return []corpusEntry{
		// The canonical shape and the number forms inside it.
		{name: "canonical", body: `{"frames":[` + one + `]}`, code: 200, rows: 1, fast: true},
		{name: "two-rows", body: `{"frames":[` + one + `,` + row("2.5") + `]}`, code: 200, rows: 2, fast: true},
		{name: "whitespace-everywhere", body: " \t{\n \"frames\" :\r\n [ " + strings.ReplaceAll(one, ",", " ,\t") + " ,\n [ 2" + strings.Repeat(" , 0", d-1) + " ] ] } \r\n", code: 200, rows: 2, fast: true},
		{name: "negative-zero", body: `{"frames":[` + row("-0") + `]}`, code: 200, rows: 1, fast: true},
		{name: "negative-zero-fraction", body: `{"frames":[` + row("-0.0e0") + `]}`, code: 200, rows: 1, fast: true},
		{name: "upper-exponent-plus", body: `{"frames":[` + row("1E+2") + `]}`, code: 200, rows: 1, fast: true},
		{name: "exponent-leading-zeros", body: `{"frames":[` + row("1e-07") + `]}`, code: 200, rows: 1, fast: true},
		{name: "underflow-to-zero", body: `{"frames":[` + row("1e-999") + `]}`, code: 200, rows: 1, fast: true},
		{name: "denormal", body: `{"frames":[` + row("5e-324") + `]}`, code: 200, rows: 1, fast: true},
		{name: "max-float", body: `{"frames":[` + row("1.7976931348623157e308") + `]}`, code: 200, rows: 1, fast: true},
		{name: "long-token", body: `{"frames":[` + row("0.1234567890123456789012345678901234567890123456789") + `]}`, code: 200, rows: 1, fast: true},
		{name: "max-rows", body: `{"frames":[` + strings.Repeat(one+",", MaxFramesPerPush-1) + one + `]}`, code: 200, rows: MaxFramesPerPush, fast: true},

		// Numbers JSON does not have: the scanner declines, encoding/json
		// words the complaint.
		{name: "range-error", body: `{"frames":[` + row("1e999") + `]}`, code: 400, err: rangeErr("1e999")},
		{name: "negative-range-error", body: `{"frames":[` + row("-1e999") + `]}`, code: 400, err: rangeErr("-1e999")},
		{name: "hex", body: `{"frames":[` + row("0x10") + `]}`, code: 400, err: syntax("'x'", "after array element")},
		{name: "underscore", body: `{"frames":[` + row("1_0") + `]}`, code: 400, err: syntax("'_'", "after array element")},
		{name: "leading-plus", body: `{"frames":[` + row("+1") + `]}`, code: 400, err: syntax("'+'", "looking for beginning of value")},
		{name: "leading-dot", body: `{"frames":[` + row(".5") + `]}`, code: 400, err: syntax("'.'", "looking for beginning of value")},
		{name: "trailing-dot", body: `{"frames":[` + row("1.") + `]}`, code: 400, err: syntax("','", "after decimal point in numeric literal")},
		{name: "minus-dot", body: `{"frames":[` + row("-.5") + `]}`, code: 400, err: syntax("'.'", "in numeric literal")},
		{name: "bare-minus", body: `{"frames":[` + row("-") + `]}`, code: 400, err: syntax("','", "in numeric literal")},
		{name: "bare-exponent", body: `{"frames":[` + row("1e") + `]}`, code: 400, err: syntax("','", "in exponent of numeric literal")},
		{name: "signed-bare-exponent", body: `{"frames":[` + row("1e+") + `]}`, code: 400, err: syntax("','", "in exponent of numeric literal")},
		{name: "dot-exponent", body: `{"frames":[` + row("1.e5") + `]}`, code: 400, err: syntax("'e'", "after decimal point in numeric literal")},
		{name: "leading-zero", body: `{"frames":[` + row("01") + `]}`, code: 400, err: syntax("'1'", "after array element")},
		{name: "nan", body: `{"frames":[` + row("NaN") + `]}`, code: 400, err: syntax("'N'", "looking for beginning of value")},
		{name: "infinity", body: `{"frames":[` + row("Infinity") + `]}`, code: 400, err: syntax("'I'", "looking for beginning of value")},
		{name: "string-number", body: `{"frames":[` + row(`"1"`) + `]}`, code: 400,
			err: "invalid JSON: json: cannot unmarshal string into Go struct field FramesRequest.frames of type float64"},

		// Finiteness in a row the ring drops: checked, never converted.
		// The magnitude bound (integer digits + exponent ≤ 308) settles the
		// plain cases; past it strconv.ParseFloat decides.
		{name: "dropped-range-error", body: dropped("1e999"), code: 400, err: rangeErr("1e999")},
		{name: "dropped-negative-range-error", body: dropped("-1e999"), code: 400, err: rangeErr("-1e999")},
		{name: "dropped-rounds-to-inf", body: dropped("1.7976931348623159e308"), code: 400, err: rangeErr("1.7976931348623159e308")},
		{name: "dropped-exponent-past-int64", body: dropped("1e99999999999999999999999"), code: 400, err: rangeErr("1e99999999999999999999999")},
		// 2^64+1: an exponent accumulator that wrapped would read 1.
		{name: "dropped-exponent-wraps-int64", body: dropped("1e18446744073709551617"), code: 400, err: rangeErr("1e18446744073709551617")},
		{name: "dropped-max-float", body: dropped("1.7976931348623157e308"), code: 200, rows: MaxFramesPerPush, fast: true},
		{name: "dropped-bound-fallback", body: dropped("0.00000000001e315"), code: 200, rows: MaxFramesPerPush, fast: true},
		{name: "dropped-underflow-past-int64", body: dropped("1e-99999999999999999999"), code: 200, rows: MaxFramesPerPush, fast: true},
		{name: "dropped-negative-zero", body: dropped("-0"), code: 200, rows: MaxFramesPerPush, fast: true},

		// Shapes only encoding/json takes.
		{name: "null-value", body: `{"frames":[` + row("null") + `]}`, code: 200, rows: 1},
		{name: "null-row", body: `{"frames":[null]}`, code: 400, err: "frame 0 has 0 channels, model expects " + ds},
		{name: "null-frames", body: `{"frames":null}`, code: 400, err: "no frames"},
		{name: "case-folded-key", body: `{"Frames":[` + one + `]}`, code: 200, rows: 1},
		{name: "escaped-key", body: `{"fr\u0061mes":[` + one + `]}`, code: 200, rows: 1},
		{name: "duplicate-key", body: `{"frames":[` + one + `],"frames":[` + one + `,` + one + `]}`, code: 200, rows: 2},
		{name: "extra-key-after", body: `{"frames":[` + one + `],"extra":1}`, code: 200, rows: 1},
		{name: "extra-key-before", body: `{"extra":{"a":[1]},"frames":[` + one + `]}`, code: 200, rows: 1},
		{name: "trailing-bytes", body: `{"frames":[` + one + `]} trailing`, code: 200, rows: 1},
		{name: "trailing-value", body: `{"frames":[` + one + `]}{"frames":[` + one + `,` + one + `]}`, code: 200, rows: 1},
		{name: "trailing-comma-row", body: `{"frames":[` + one + `,]}`, code: 400, err: syntax("']'", "looking for beginning of value")},
		{name: "trailing-comma-value", body: `{"frames":[[1,]]}`, code: 400, err: syntax("']'", "looking for beginning of value")},

		// Limits and geometry.
		{name: "no-frames", body: `{"frames":[]}`, code: 400, err: "no frames"},
		{name: "empty-object", body: `{}`, code: 400, err: "no frames"},
		{name: "empty-row", body: `{"frames":[[]]}`, code: 400, err: "frame 0 has 0 channels, model expects " + ds},
		{name: "ragged-short", body: `{"frames":[` + one + `,[1]]}`, code: 400, err: "frame 1 has 1 channels, model expects " + ds},
		{name: "ragged-long", body: `{"frames":[` + strings.TrimSuffix(one, "]") + `,9]]}`, code: 400,
			err: "frame 0 has " + strconv.Itoa(d+1) + " channels, model expects " + ds},
		{name: "over-max-rows", body: `{"frames":[` + strings.Repeat(one+",", MaxFramesPerPush) + one + `]}`, code: 413,
			err: "batch of " + strconv.Itoa(MaxFramesPerPush+1) + " frames exceeds limit " + strconv.Itoa(MaxFramesPerPush)},

		// Not a frames request at all.
		{name: "empty-body", body: ``, code: 400, err: "invalid JSON: EOF"},
		{name: "only-whitespace", body: " \n", code: 400, err: "invalid JSON: EOF"},
		{name: "truncated", body: `{"frames":[[1,`, code: 400, err: "invalid JSON: unexpected EOF"},
		{name: "unclosed-object", body: `{"frames":[` + one + `]`, code: 400, err: "invalid JSON: unexpected EOF"},
		{name: "top-level-array", body: `[` + one + `]`, code: 400,
			err: "invalid JSON: json: cannot unmarshal array into Go value of type serve.FramesRequest"},
		{name: "deep-nesting", body: `{"frames":[[[1]]]}`, code: 400,
			err: "invalid JSON: json: cannot unmarshal array into Go struct field FramesRequest.frames of type float64"},
		{name: "wrong-type", body: `{"frames":"wrong type"}`, code: 400,
			err: "invalid JSON: json: cannot unmarshal string into Go struct field FramesRequest.frames of type [][]float64"},
		{name: "not-json", body: `not json at all`, code: 400, err: "invalid JSON: invalid character 'o' in literal null (expecting 'u')"},
	}
}
