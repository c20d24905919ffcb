package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/similarity"
	"repro/internal/trace"
)

// AppendCanonical appends a deterministic textual encoding of the
// plan's logical content to b and returns the extended buffer. Two
// plans encode identically iff they make the same scheduling decisions:
// the encoding covers flows, redirects, placement (video ids in sorted
// order), CDN overflow, and the degraded flag. Wall-clock stats and
// trace events are deliberately excluded — they never enter the
// determinism contract (see DESIGN.md §8). The flow and redirect slices
// are already in deterministic order for a deterministic round
// (TestScheduleRunTwiceIdentical), so the bytes are reproducible across
// processes, worker counts, and the online/offline entry points.
func (p *Plan) AppendCanonical(b []byte) []byte {
	b = append(b, "plan v1\ndegraded "...)
	b = appendBool(b, p.Degraded)
	b = append(b, "\nflows "...)
	b = strconv.AppendInt(b, int64(len(p.Flows)), 10)
	b = append(b, '\n')
	for _, f := range p.Flows {
		b = append(b, 'f', ' ')
		b = strconv.AppendInt(b, int64(f.From), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(f.To), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, f.Amount, 10)
		b = append(b, '\n')
	}
	b = append(b, "redirects "...)
	b = strconv.AppendInt(b, int64(len(p.Redirects)), 10)
	b = append(b, '\n')
	for _, r := range p.Redirects {
		b = append(b, 'r', ' ')
		b = strconv.AppendInt(b, int64(r.From), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(r.To), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(r.Video), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, r.Count, 10)
		b = append(b, '\n')
	}
	b = append(b, "placement "...)
	b = strconv.AppendInt(b, int64(len(p.Placement)), 10)
	b = append(b, '\n')
	for h, set := range p.Placement {
		b = append(b, 'p', ' ')
		b = strconv.AppendInt(b, int64(h), 10)
		for i := 0; i < set.Len(); i++ {
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(set.At(i)), 10)
		}
		b = append(b, '\n')
	}
	b = append(b, "overflow"...)
	for _, o := range p.OverflowToCDN {
		b = append(b, ' ')
		b = strconv.AppendInt(b, o, 10)
	}
	return append(b, '\n')
}

// Canonical returns the plan's canonical encoding (AppendCanonical into
// a fresh buffer sized from the plan, so the encode does not regrow it).
func (p *Plan) Canonical() []byte { return p.AppendCanonical(make([]byte, 0, p.sizeHint())) }

// sizeHint estimates the canonical encoding's length from typical field
// widths; it only sizes a buffer, so it need not be exact.
func (p *Plan) sizeHint() int {
	n := 64 + 20*len(p.Flows) + 24*len(p.Redirects) + 8*len(p.OverflowToCDN)
	for _, set := range p.Placement {
		n += 8 + 6*set.Len()
	}
	return n
}

// Digest returns the FNV-1a hash of the plan's canonical encoding: a
// compact fingerprint for plan-identity checks (the serving layer
// exposes it so lookups can be matched to the exact plan that answered
// them).
func (p *Plan) Digest() uint64 {
	h := fnv.New64a()
	_, _ = h.Write(p.Canonical())
	return h.Sum64()
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, '1')
	}
	return append(b, '0')
}

// DigestOf fingerprints an already-encoded canonical plan: the same
// FNV-1a hash Plan.Digest computes, without needing the Plan. The
// serving tier's plan-distribution channel uses it to verify received
// plan bytes against the digest the scheduler advertised.
func DigestOf(canonical []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(canonical)
	return h.Sum64()
}

// ParseCanonical decodes a canonical plan encoding back into a Plan
// holding the logical scheduling content: flows, redirects, placement,
// CDN overflow, and the degraded flag (stats and events are not part
// of the encoding and come back zero). It is the receive side of the
// serving tier's plan-distribution channel: each frontend instance
// reconstructs its serving plan from the distributed bytes rather
// than sharing the scheduler's. The parser is strict — any deviation
// from the AppendCanonical grammar is an error, never a guess:
// integers must be written the way strconv.AppendInt writes them (no
// '+', no leading zeros, no "-0"), hotspot and video ids must fit
// int32, and each placement row must list video ids in [0, MaxInt32]
// strictly ascending. So every accepted input re-encodes to the
// identical bytes (certified in canonical_test.go and by
// FuzzParseCanonical, and re-checked on every swap by the serving
// tier). Allocation is bounded by the input's length: declared section
// lengths only size buffers as far as the remaining bytes could hold.
func ParseCanonical(canonical []byte) (*Plan, error) {
	cp := canonicalParser{rest: canonical}
	p := &Plan{}

	if err := cp.literal("plan v1\n"); err != nil {
		return nil, err
	}
	if err := cp.literal("degraded "); err != nil {
		return nil, err
	}
	deg, err := cp.int64Until('\n')
	if err != nil || (deg != 0 && deg != 1) {
		return nil, fmt.Errorf("core: canonical plan: bad degraded flag")
	}
	p.Degraded = deg == 1

	if err := cp.literal("flows "); err != nil {
		return nil, err
	}
	nf, err := cp.count()
	if err != nil {
		return nil, fmt.Errorf("core: canonical plan: flows header: %w", err)
	}
	p.Flows = make([]FlowEdge, 0, cp.prealloc(nf, len("f 0 0 0\n")))
	for i := int64(0); i < nf; i++ {
		if err := cp.literal("f "); err != nil {
			return nil, err
		}
		from, err1 := cp.int32Until(' ')
		to, err2 := cp.int32Until(' ')
		amt, err3 := cp.int64Until('\n')
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("core: canonical plan: flow %d malformed", i)
		}
		p.Flows = append(p.Flows, FlowEdge{From: trace.HotspotID(from), To: trace.HotspotID(to), Amount: amt})
	}

	if err := cp.literal("redirects "); err != nil {
		return nil, err
	}
	nr, err := cp.count()
	if err != nil {
		return nil, fmt.Errorf("core: canonical plan: redirects header: %w", err)
	}
	p.Redirects = make([]Redirect, 0, cp.prealloc(nr, len("r 0 0 0 0\n")))
	for i := int64(0); i < nr; i++ {
		if err := cp.literal("r "); err != nil {
			return nil, err
		}
		from, err1 := cp.int32Until(' ')
		to, err2 := cp.int32Until(' ')
		video, err3 := cp.int32Until(' ')
		count, err4 := cp.int64Until('\n')
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("core: canonical plan: redirect %d malformed", i)
		}
		p.Redirects = append(p.Redirects, Redirect{
			From: trace.HotspotID(from), To: trace.HotspotID(to),
			Video: trace.VideoID(video), Count: count,
		})
	}

	if err := cp.literal("placement "); err != nil {
		return nil, err
	}
	np, err := cp.count()
	if err != nil {
		return nil, fmt.Errorf("core: canonical plan: placement header: %w", err)
	}
	p.Placement = make([]similarity.Set, 0, cp.prealloc(np, len("p 0\n")))
	for i := int64(0); i < np; i++ {
		if err := cp.literal("p "); err != nil {
			return nil, err
		}
		line, err := cp.line()
		if err != nil {
			return nil, fmt.Errorf("core: canonical plan: placement row %d: %w", i, err)
		}
		set, err := parsePlacementRow(line, i)
		if err != nil {
			return nil, err
		}
		p.Placement = append(p.Placement, set)
	}

	if err := cp.literal("overflow"); err != nil {
		return nil, err
	}
	tail, err := cp.line()
	if err != nil {
		return nil, fmt.Errorf("core: canonical plan: overflow row: %w", err)
	}
	if len(tail) > 0 {
		if tail[0] != ' ' {
			return nil, fmt.Errorf("core: canonical plan: overflow row malformed")
		}
		p.OverflowToCDN = make([]int64, 0, bytes.Count(tail, []byte{' '}))
		for rest, more := tail[1:], true; more; {
			var f []byte
			f, rest, more = bytes.Cut(rest, []byte{' '})
			o, ok := parseCanonicalInt(f)
			if !ok {
				return nil, fmt.Errorf("core: canonical plan: overflow entry %q", f)
			}
			p.OverflowToCDN = append(p.OverflowToCDN, o)
		}
	}
	if len(cp.rest) != 0 {
		return nil, fmt.Errorf("core: canonical plan: %d trailing bytes", len(cp.rest))
	}
	return p, nil
}

// parsePlacementRow decodes one placement row "h v1 v2 ..." (the "p "
// prefix and the newline already consumed) whose label must be i, into
// a Set sized exactly from the row's field count.
func parsePlacementRow(line []byte, i int64) (similarity.Set, error) {
	label, rest, more := bytes.Cut(line, []byte{' '})
	if h, ok := parseCanonicalInt(label); !ok || h != i {
		return similarity.Set{}, fmt.Errorf("core: canonical plan: placement row %d labelled %q", i, label)
	}
	if !more {
		return similarity.Set{}, nil
	}
	ids := make([]int32, 0, bytes.Count(rest, []byte{' '})+1)
	for more {
		var f []byte
		f, rest, more = bytes.Cut(rest, []byte{' '})
		v, ok := parseCanonicalInt(f)
		if !ok || v < 0 || v > math.MaxInt32 {
			return similarity.Set{}, fmt.Errorf("core: canonical plan: placement row %d video %q", i, f)
		}
		ids = append(ids, int32(v))
	}
	set, err := similarity.FromAscending(ids)
	if err != nil {
		return similarity.Set{}, fmt.Errorf("core: canonical plan: placement row %d: %w", i, err)
	}
	return set, nil
}

// canonicalParser is a cursor over a canonical encoding.
type canonicalParser struct{ rest []byte }

// literal consumes an exact string.
func (cp *canonicalParser) literal(s string) error {
	if len(cp.rest) < len(s) || string(cp.rest[:len(s)]) != s {
		return fmt.Errorf("core: canonical plan: expected %q", s)
	}
	cp.rest = cp.rest[len(s):]
	return nil
}

// int64Until consumes a canonical decimal integer terminated by sep
// (consuming the separator too).
func (cp *canonicalParser) int64Until(sep byte) (int64, error) {
	i := bytes.IndexByte(cp.rest, sep)
	if i < 0 {
		return 0, fmt.Errorf("missing %q separator", sep)
	}
	v, ok := parseCanonicalInt(cp.rest[:i])
	if !ok {
		return 0, fmt.Errorf("bad integer %q", cp.rest[:i])
	}
	cp.rest = cp.rest[i+1:]
	return v, nil
}

// int32Until is int64Until for a field that must fit int32 (hotspot and
// video ids).
func (cp *canonicalParser) int32Until(sep byte) (int32, error) {
	v, err := cp.int64Until(sep)
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("id %d outside the int32 range", v)
	}
	return int32(v), nil
}

// count consumes a non-negative section length terminated by newline,
// with a sanity cap so corrupt headers cannot force absurd
// preallocation.
func (cp *canonicalParser) count() (int64, error) {
	n, err := cp.int64Until('\n')
	if err != nil {
		return 0, err
	}
	const maxSection = 1 << 28
	if n < 0 || n > maxSection {
		return 0, fmt.Errorf("section length %d out of range", n)
	}
	return n, nil
}

// prealloc clamps a declared section length n to what the remaining
// input could hold at minLine bytes per entry: a well-formed section is
// sized exactly, while a corrupt header cannot force an allocation
// larger than the input.
func (cp *canonicalParser) prealloc(n int64, minLine int) int64 {
	return min(n, int64(len(cp.rest)/minLine))
}

// line consumes through the next newline, returning the bytes before
// it.
func (cp *canonicalParser) line() ([]byte, error) {
	i := bytes.IndexByte(cp.rest, '\n')
	if i < 0 {
		return nil, fmt.Errorf("unterminated line")
	}
	out := cp.rest[:i]
	cp.rest = cp.rest[i+1:]
	return out, nil
}

// parseCanonicalInt parses b as a decimal int64 written exactly the way
// strconv.AppendInt writes it: an optional '-', then digits with no
// leading zero except "0" itself; "-0", a '+' sign, and out-of-range
// values are rejected. Accepting only that form is what makes a parsed
// plan re-encode to the input bytes.
func parseCanonicalInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 19 || (b[0] == '0' && (len(b) > 1 || neg)) {
		return 0, false
	}
	var u uint64 // 19 digits cannot overflow a uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	return int64(u), true
}
