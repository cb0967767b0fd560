package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// The spec parser is a YAML subset implemented in-repo, stdlib-only (the
// same dependency rule as internal/obs): block mappings, block lists,
// single-line scalars, double-quoted strings with Go escapes, and `#`
// comments. No anchors, no flow collections, no multi-line scalars, no
// tabs. Every node carries its source line so decoding errors are
// positional ("line 12: streams[0].count: ...").

// maxSpecBytes bounds parser input. List items re-slice their sub-block, so
// pathological nesting is quadratic in input size; the cap keeps adversarial
// (fuzzed) inputs cheap while being ~100x any real spec.
const maxSpecBytes = 256 << 10

type nodeKind int

const (
	scalarNode nodeKind = iota
	mapNode
	listNode
)

func (k nodeKind) String() string {
	switch k {
	case scalarNode:
		return "scalar"
	case mapNode:
		return "mapping"
	default:
		return "list"
	}
}

// node is one parsed YAML value. Maps preserve key order and per-key lines.
type node struct {
	line   int
	kind   nodeKind
	scalar string // scalarNode: raw text (possibly quoted)

	keys    []string // mapNode
	vals    map[string]*node
	keyLine map[string]int

	items []*node // listNode
}

// srcLine is one significant source line: indentation stripped, comments
// removed, original line number kept.
type srcLine struct {
	indent int
	text   string
	num    int
}

func errAt(line int, format string, args ...interface{}) error {
	return fmt.Errorf("scenario: line %d: %s", line, fmt.Sprintf(format, args...))
}

// scanLines splits the input into significant lines. Tabs in indentation
// are rejected; a `#` outside double quotes and at the start of content or
// preceded by a space starts a comment.
func scanLines(data []byte) ([]srcLine, error) {
	if len(data) > maxSpecBytes {
		return nil, fmt.Errorf("scenario: spec exceeds %d bytes", maxSpecBytes)
	}
	var out []srcLine
	for num, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSuffix(raw, "\r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return nil, errAt(num+1, "tab indentation is not supported")
		}
		content := stripComment(line[indent:])
		content = strings.TrimRight(content, " ")
		if content == "" {
			continue
		}
		out = append(out, srcLine{indent: indent, text: content, num: num + 1})
	}
	return out, nil
}

// stripComment cuts an unquoted trailing comment. Quote state is tracked
// for double quotes with backslash escapes only (the subset's sole quoting
// form).
func stripComment(s string) string {
	inQuote, escaped := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case escaped:
			escaped = false
		case inQuote && c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == '#' && !inQuote && (i == 0 || s[i-1] == ' '):
			return s[:i]
		}
	}
	return s
}

// parseYAML parses a complete spec document into its root mapping.
func parseYAML(data []byte) (*node, error) {
	lines, err := scanLines(data)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("scenario: empty spec")
	}
	root, rest, err := parseBlock(lines)
	if err != nil {
		return nil, err
	}
	if len(rest) > 0 {
		return nil, errAt(rest[0].num, "unexpected indentation")
	}
	if root.kind != mapNode {
		return nil, errAt(root.line, "top level must be a mapping, got %s", root.kind)
	}
	return root, nil
}

// parseBlock parses one block value — the run of lines sharing the first
// line's indentation (with their more-indented children) — and returns the
// unconsumed tail.
func parseBlock(lines []srcLine) (*node, []srcLine, error) {
	first := lines[0]
	if isListItem(first.text) {
		return parseList(lines, first.indent)
	}
	return parseMap(lines, first.indent)
}

func isListItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// sub collects the contiguous run of lines more indented than indent.
func sub(lines []srcLine, indent int) (block, rest []srcLine) {
	i := 0
	for i < len(lines) && lines[i].indent > indent {
		i++
	}
	return lines[:i], lines[i:]
}

func parseList(lines []srcLine, indent int) (*node, []srcLine, error) {
	n := &node{line: lines[0].num, kind: listNode}
	for len(lines) > 0 && lines[0].indent == indent {
		ln := lines[0]
		if !isListItem(ln.text) {
			return nil, nil, errAt(ln.num, "expected a list item, got %q", ln.text)
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " ")
		lines = lines[1:]
		var block []srcLine
		block, lines = sub(lines, indent)
		var item *node
		var err error
		switch {
		case rest == "":
			if len(block) == 0 {
				return nil, nil, errAt(ln.num, "empty list item")
			}
			item, block, err = parseBlock(block)
		case looksLikeKey(rest):
			// Inline mapping: the text after "- " is the first entry; its
			// siblings are the more-indented following lines, re-anchored at
			// the canonical two-space offset.
			merged := append([]srcLine{{indent: ln.indent + 2, text: rest, num: ln.num}}, block...)
			item, block, err = parseMap(merged, ln.indent+2)
		default:
			if len(block) > 0 {
				return nil, nil, errAt(block[0].num, "unexpected indentation under scalar list item")
			}
			item = &node{line: ln.num, kind: scalarNode, scalar: rest}
		}
		if err != nil {
			return nil, nil, err
		}
		if len(block) > 0 {
			return nil, nil, errAt(block[0].num, "unexpected indentation")
		}
		n.items = append(n.items, item)
	}
	if len(lines) > 0 && lines[0].indent > indent {
		return nil, nil, errAt(lines[0].num, "unexpected indentation")
	}
	return n, lines, nil
}

// keyRe-equivalent: keys are bare identifiers.
func validKey(key string) bool {
	if key == "" {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// looksLikeKey reports whether a list-item remainder starts a mapping
// ("key:" or "key: value") rather than being a scalar.
func looksLikeKey(text string) bool {
	idx := strings.IndexByte(text, ':')
	if idx <= 0 {
		return false
	}
	if !validKey(text[:idx]) {
		return false
	}
	return idx == len(text)-1 || text[idx+1] == ' '
}

func parseMap(lines []srcLine, indent int) (*node, []srcLine, error) {
	n := &node{line: lines[0].num, kind: mapNode, vals: map[string]*node{}, keyLine: map[string]int{}}
	for len(lines) > 0 && lines[0].indent == indent {
		ln := lines[0]
		if isListItem(ln.text) {
			return nil, nil, errAt(ln.num, "list item in mapping context")
		}
		idx := strings.IndexByte(ln.text, ':')
		if idx <= 0 {
			return nil, nil, errAt(ln.num, "expected \"key: value\", got %q", ln.text)
		}
		key := ln.text[:idx]
		if !validKey(key) {
			return nil, nil, errAt(ln.num, "invalid key %q", key)
		}
		if _, dup := n.vals[key]; dup {
			return nil, nil, errAt(ln.num, "duplicate key %q", key)
		}
		after := ln.text[idx+1:]
		lines = lines[1:]
		var val *node
		switch {
		case after == "":
			var block []srcLine
			block, lines = sub(lines, indent)
			if len(block) == 0 {
				return nil, nil, errAt(ln.num, "%s: missing value", key)
			}
			var err error
			val, block, err = parseBlock(block)
			if err != nil {
				return nil, nil, err
			}
			if len(block) > 0 {
				return nil, nil, errAt(block[0].num, "unexpected indentation")
			}
		case after[0] == ' ':
			val = &node{line: ln.num, kind: scalarNode, scalar: strings.TrimSpace(after)}
			if val.scalar == "" {
				return nil, nil, errAt(ln.num, "%s: missing value", key)
			}
			if len(lines) > 0 && lines[0].indent > indent {
				return nil, nil, errAt(lines[0].num, "unexpected indentation under %q", key)
			}
		default:
			return nil, nil, errAt(ln.num, "expected a space after %q:", key)
		}
		n.keys = append(n.keys, key)
		n.vals[key] = val
		n.keyLine[key] = ln.num
	}
	if len(lines) > 0 && lines[0].indent > indent {
		return nil, nil, errAt(lines[0].num, "unexpected indentation")
	}
	return n, lines, nil
}

// scalarString resolves a scalar node's string value, unquoting if needed.
func scalarString(n *node) (string, error) {
	s := n.scalar
	if strings.HasPrefix(s, "\"") {
		v, err := strconv.Unquote(s)
		if err != nil {
			return "", errAt(n.line, "invalid quoted string %s", s)
		}
		return v, nil
	}
	return s, nil
}
