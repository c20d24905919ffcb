// Package scenario is the declarative chaos-scenario layer: a
// zero-dependency YAML-subset parser, a scenario schema (explicit timed
// fault events, seeded stress generation, and in-run assertions), and a
// runner that compiles everything onto the existing fault.Scenario /
// fault.Timeline — there is no second injection path — executes the
// simulation, and evaluates the assertions into a deterministic
// pass/fail report.
//
// The repository deliberately has no third-party dependencies, so the
// parser hand-rolls the small YAML subset the scenario grammar needs:
//
//   - block mappings ("key: value", or "key:" introducing an indented
//     block) with unique keys,
//   - block sequences ("- item", where an item is a scalar, a flow
//     list, or a mapping whose first entry sits on the dash line),
//   - flow lists of scalars ("[0.1, 0.5]"),
//   - plain scalars and double-quoted scalars (Go escape rules),
//   - '#' comments (full-line, or trailing after whitespace) and blank
//     lines,
//   - an optional leading "---" document marker.
//
// Indentation is spaces only (a tab in leading whitespace is an error),
// anchors/aliases/multi-documents/flow mappings are not supported, and
// unknown keys are rejected by the schema layer — scenario files fail
// loudly rather than half-parse. The parser never panics on any input
// (FuzzScenarioParse enforces this); malformed input yields an error
// carrying the offending line number.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// nodeKind discriminates parsed YAML nodes.
type nodeKind int

const (
	scalarNode nodeKind = iota
	mapNode
	seqNode
)

func (k nodeKind) String() string {
	switch k {
	case scalarNode:
		return "scalar"
	case mapNode:
		return "mapping"
	case seqNode:
		return "sequence"
	default:
		return fmt.Sprintf("node(%d)", int(k))
	}
}

// node is one parsed YAML value. Mappings keep their entries in file
// order so downstream processing is deterministic.
type node struct {
	kind   nodeKind
	line   int
	scalar string   // scalarNode
	keys   []string // mapNode: entry keys, file order
	vals   []*node  // mapNode: entry values, parallel to keys
	items  []*node  // seqNode
}

// child returns the mapping entry for key, or nil.
func (n *node) child(key string) *node {
	for i, k := range n.keys {
		if k == key {
			return n.vals[i]
		}
	}
	return nil
}

// line is one significant source line after comment stripping.
type srcLine struct {
	indent int
	text   string
	num    int
}

// parseYAML parses src into a top-level mapping node.
func parseYAML(src []byte) (*node, error) {
	lines, err := splitLines(src)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("scenario: empty document")
	}
	if lines[0].indent != 0 {
		return nil, fmt.Errorf("scenario: line %d: top-level content must not be indented", lines[0].num)
	}
	pos := 0
	root, err := parseBlock(lines, &pos, 0)
	if err != nil {
		return nil, err
	}
	if pos != len(lines) {
		return nil, fmt.Errorf("scenario: line %d: unexpected content after document", lines[pos].num)
	}
	if root.kind != mapNode {
		return nil, fmt.Errorf("scenario: line %d: document must be a mapping", root.line)
	}
	return root, nil
}

// splitLines strips comments and blanks and computes indentation.
func splitLines(src []byte) ([]srcLine, error) {
	var out []srcLine
	raw := strings.Split(string(src), "\n")
	for i, l := range raw {
		num := i + 1
		l = strings.TrimRight(l, "\r")
		trimmed := strings.TrimLeft(l, " ")
		if strings.ContainsAny(leadingWhitespace(l), "\t") {
			return nil, fmt.Errorf("scenario: line %d: tab in indentation (use spaces)", num)
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		if num == 1 || len(out) == 0 {
			if trimmed == "---" {
				continue
			}
		}
		stripped := stripComment(trimmed)
		stripped = strings.TrimRight(stripped, " ")
		if stripped == "" {
			continue
		}
		out = append(out, srcLine{indent: len(l) - len(trimmed), text: stripped, num: num})
	}
	return out, nil
}

// leadingWhitespace returns l's leading space/tab run.
func leadingWhitespace(l string) string {
	for i := 0; i < len(l); i++ {
		if l[i] != ' ' && l[i] != '\t' {
			return l[:i]
		}
	}
	return l
}

// stripComment removes a trailing " # ..." comment outside double
// quotes. A '#' must follow whitespace (or start the line) to open a
// comment, matching YAML.
func stripComment(s string) string {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if !inQuote {
				inQuote = true
			} else if i == 0 || s[i-1] != '\\' {
				inQuote = false
			}
		case '#':
			if !inQuote && (i == 0 || s[i-1] == ' ') {
				return s[:i]
			}
		}
	}
	return s
}

// parseBlock parses one block (mapping or sequence) whose entries all
// share the indentation of lines[*pos], which must be >= minIndent.
func parseBlock(lines []srcLine, pos *int, minIndent int) (*node, error) {
	first := lines[*pos]
	if first.indent < minIndent {
		return nil, fmt.Errorf("scenario: line %d: expected indented block", first.num)
	}
	if isSeqItem(first.text) {
		return parseSeq(lines, pos, first.indent)
	}
	return parseMap(lines, pos, first.indent)
}

// isSeqItem reports whether a stripped line starts a sequence item.
func isSeqItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// parseMap parses mapping entries at exactly indent.
func parseMap(lines []srcLine, pos *int, indent int) (*node, error) {
	n := &node{kind: mapNode, line: lines[*pos].num}
	for *pos < len(lines) {
		l := lines[*pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("scenario: line %d: unexpected indentation", l.num)
		}
		if isSeqItem(l.text) {
			return nil, fmt.Errorf("scenario: line %d: unexpected sequence item inside mapping", l.num)
		}
		key, rest, err := splitKey(l)
		if err != nil {
			return nil, err
		}
		if n.child(key) != nil {
			return nil, fmt.Errorf("scenario: line %d: duplicate key %q", l.num, key)
		}
		*pos++
		var val *node
		if rest == "" {
			if *pos >= len(lines) || lines[*pos].indent <= indent {
				return nil, fmt.Errorf("scenario: line %d: key %q has no value", l.num, key)
			}
			val, err = parseBlock(lines, pos, indent+1)
			if err != nil {
				return nil, err
			}
		} else {
			val, err = parseInline(rest, l.num)
			if err != nil {
				return nil, err
			}
		}
		n.keys = append(n.keys, key)
		n.vals = append(n.vals, val)
	}
	return n, nil
}

// splitKey splits "key: rest" (or "key:") on the first unquoted colon.
func splitKey(l srcLine) (key, rest string, err error) {
	text := l.text
	if strings.HasPrefix(text, "\"") {
		return "", "", fmt.Errorf("scenario: line %d: quoted keys are not supported", l.num)
	}
	for i := 0; i < len(text); i++ {
		if text[i] != ':' {
			continue
		}
		if i+1 == len(text) {
			return strings.TrimSpace(text[:i]), "", nil
		}
		if text[i+1] == ' ' {
			return strings.TrimSpace(text[:i]), strings.TrimSpace(text[i+1:]), nil
		}
	}
	return "", "", fmt.Errorf("scenario: line %d: expected \"key: value\", got %q", l.num, text)
}

// parseSeq parses sequence items at exactly indent.
func parseSeq(lines []srcLine, pos *int, indent int) (*node, error) {
	n := &node{kind: seqNode, line: lines[*pos].num}
	for *pos < len(lines) {
		l := lines[*pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("scenario: line %d: unexpected indentation", l.num)
		}
		if !isSeqItem(l.text) {
			return nil, fmt.Errorf("scenario: line %d: expected sequence item", l.num)
		}
		rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(l.text, "-"), " "))
		var item *node
		var err error
		switch {
		case rest == "":
			// "-" alone: the item is the following indented block.
			*pos++
			if *pos >= len(lines) || lines[*pos].indent <= indent {
				return nil, fmt.Errorf("scenario: line %d: empty sequence item", l.num)
			}
			item, err = parseBlock(lines, pos, indent+1)
		case looksLikeMapping(rest):
			// "- key: value": a mapping item whose first entry sits on
			// the dash line; continuation entries are indented to the
			// first entry's column. Splice a synthetic line in place of
			// the dash line and parse a block.
			itemIndent := l.indent + (len(l.text) - len(rest))
			lines[*pos] = srcLine{indent: itemIndent, text: rest, num: l.num}
			item, err = parseBlock(lines, pos, indent+1)
		default:
			*pos++
			item, err = parseInline(rest, l.num)
		}
		if err != nil {
			return nil, err
		}
		n.items = append(n.items, item)
	}
	return n, nil
}

// looksLikeMapping reports whether a sequence-item remainder opens a
// mapping entry ("key: value" or "key:"). Quoted scalars never do.
func looksLikeMapping(rest string) bool {
	if strings.HasPrefix(rest, "\"") || strings.HasPrefix(rest, "[") {
		return false
	}
	if strings.HasSuffix(rest, ":") && !strings.Contains(rest, " ") {
		return true
	}
	i := strings.Index(rest, ": ")
	if i < 0 {
		return false
	}
	// The candidate key must be a single token (no spaces), so scalars
	// like "slot 40: note" stay scalars.
	return !strings.Contains(rest[:i], " ")
}

// parseInline parses an inline value: a flow list of scalars or a
// scalar.
func parseInline(s string, lineNum int) (*node, error) {
	if strings.HasPrefix(s, "[") {
		return parseFlowList(s, lineNum)
	}
	sc, err := parseScalar(s, lineNum)
	if err != nil {
		return nil, err
	}
	return &node{kind: scalarNode, line: lineNum, scalar: sc}, nil
}

// parseFlowList parses "[a, b, c]" of scalars.
func parseFlowList(s string, lineNum int) (*node, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("scenario: line %d: unterminated flow list %q", lineNum, s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	n := &node{kind: seqNode, line: lineNum}
	if inner == "" {
		return n, nil
	}
	for _, part := range strings.Split(inner, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("scenario: line %d: empty element in flow list", lineNum)
		}
		if strings.HasPrefix(part, "[") {
			return nil, fmt.Errorf("scenario: line %d: nested flow lists are not supported", lineNum)
		}
		sc, err := parseScalar(part, lineNum)
		if err != nil {
			return nil, err
		}
		n.items = append(n.items, &node{kind: scalarNode, line: lineNum, scalar: sc})
	}
	return n, nil
}

// parseScalar resolves a scalar token: double-quoted strings use Go
// escape rules; everything else is taken verbatim.
func parseScalar(s string, lineNum int) (string, error) {
	if strings.HasPrefix(s, "\"") {
		unq, err := strconv.Unquote(s)
		if err != nil {
			return "", fmt.Errorf("scenario: line %d: bad quoted scalar %s: %v", lineNum, s, err)
		}
		return unq, nil
	}
	return s, nil
}

// ---- typed decoding -------------------------------------------------

// dec is a strict decoder over one mapping node: every key the schema
// reads is marked used, and finish() rejects leftovers so typos in
// scenario files fail loudly.
type dec struct {
	n    *node
	used map[string]bool
	ctx  string
	err  error
}

func newDec(n *node, ctx string) (*dec, error) {
	if n.kind != mapNode {
		return nil, fmt.Errorf("scenario: line %d: %s must be a mapping, got %s", n.line, ctx, n.kind)
	}
	return &dec{n: n, used: make(map[string]bool), ctx: ctx}, nil
}

// fail records the first decode error.
func (d *dec) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("scenario: "+format, args...)
	}
}

// get marks a key used and returns its node (nil when absent).
func (d *dec) get(key string) *node {
	d.used[key] = true
	return d.n.child(key)
}

// has reports whether the key is present (marking it used).
func (d *dec) has(key string) bool { return d.get(key) != nil }

// finish returns the first decode error, or an unknown-key error.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	for i, k := range d.n.keys {
		if !d.used[k] {
			return fmt.Errorf("scenario: line %d: unknown key %q in %s", d.n.vals[i].line, k, d.ctx)
		}
	}
	return nil
}

func (d *dec) scalarOf(key string, c *node) (string, bool) {
	if c.kind != scalarNode {
		d.fail("line %d: %s.%s must be a scalar, got %s", c.line, d.ctx, key, c.kind)
		return "", false
	}
	return c.scalar, true
}

// str returns the string value of key, or def when absent.
func (d *dec) str(key, def string) string {
	c := d.get(key)
	if c == nil {
		return def
	}
	s, ok := d.scalarOf(key, c)
	if !ok {
		return def
	}
	return s
}

// integer returns the int value of key, or def when absent.
func (d *dec) integer(key string, def int) int {
	c := d.get(key)
	if c == nil {
		return def
	}
	s, ok := d.scalarOf(key, c)
	if !ok {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		d.fail("line %d: %s.%s: %q is not an integer", c.line, d.ctx, key, s)
		return def
	}
	return v
}

// int64Of returns the int64 value of key, or def when absent.
func (d *dec) int64Of(key string, def int64) int64 {
	c := d.get(key)
	if c == nil {
		return def
	}
	s, ok := d.scalarOf(key, c)
	if !ok {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		d.fail("line %d: %s.%s: %q is not an integer", c.line, d.ctx, key, s)
		return def
	}
	return v
}

// float returns the float64 value of key, or def when absent.
func (d *dec) float(key string, def float64) float64 {
	c := d.get(key)
	if c == nil {
		return def
	}
	s, ok := d.scalarOf(key, c)
	if !ok {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		d.fail("line %d: %s.%s: %q is not a number", c.line, d.ctx, key, s)
		return def
	}
	// ParseFloat accepts "nan" and "inf", which would slip past every
	// range check downstream (NaN fails both x < lo and x > hi).
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail("line %d: %s.%s: %q is not a finite number", c.line, d.ctx, key, s)
		return def
	}
	return v
}

// boolean returns the bool value of key, or def when absent.
func (d *dec) boolean(key string, def bool) bool {
	c := d.get(key)
	if c == nil {
		return def
	}
	s, ok := d.scalarOf(key, c)
	if !ok {
		return def
	}
	switch s {
	case "true":
		return true
	case "false":
		return false
	default:
		d.fail("line %d: %s.%s: %q is not a bool (want true or false)", c.line, d.ctx, key, s)
		return def
	}
}

// floatRange returns the [lo, hi] float range of key. A scalar value v
// is the degenerate range [v, v]. Absent yields def.
func (d *dec) floatRange(key string, def Range) Range {
	c := d.get(key)
	if c == nil {
		return def
	}
	if c.kind == scalarNode {
		v, err := strconv.ParseFloat(c.scalar, 64)
		if err != nil {
			d.fail("line %d: %s.%s: %q is not a number", c.line, d.ctx, key, c.scalar)
			return def
		}
		return Range{Lo: v, Hi: v}
	}
	if c.kind != seqNode || len(c.items) != 2 {
		d.fail("line %d: %s.%s must be a number or [lo, hi]", c.line, d.ctx, key)
		return def
	}
	var r Range
	for i, target := range []*float64{&r.Lo, &r.Hi} {
		it := c.items[i]
		if it.kind != scalarNode {
			d.fail("line %d: %s.%s range bounds must be numbers", c.line, d.ctx, key)
			return def
		}
		v, err := strconv.ParseFloat(it.scalar, 64)
		if err != nil {
			d.fail("line %d: %s.%s: %q is not a number", c.line, d.ctx, key, it.scalar)
			return def
		}
		*target = v
	}
	if r.Hi < r.Lo {
		d.fail("line %d: %s.%s: range [%v, %v] has hi < lo", c.line, d.ctx, key, r.Lo, r.Hi)
		return def
	}
	return r
}

// intRange returns the [lo, hi] integer range of key. A scalar value v
// is the degenerate range [v, v]. Absent yields def.
func (d *dec) intRange(key string, def IntRange) IntRange {
	r := d.floatRange(key, Range{Lo: float64(def.Lo), Hi: float64(def.Hi)})
	lo, hi := int(r.Lo), int(r.Hi)
	if float64(lo) != r.Lo || float64(hi) != r.Hi {
		d.fail("%s.%s: range bounds must be integers", d.ctx, key)
		return def
	}
	return IntRange{Lo: lo, Hi: hi}
}
