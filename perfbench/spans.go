package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent is the index of the enclosing span (-1 for
// a root); spans of one request or slot share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index for children.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// reserve records a root placeholder whose interval is filled in by
// finish once its children are known.
func (t *tracer) reserve(name string, req int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: -1, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) finish(i int, start, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[i].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover. Children of one parent are assumed not
// to overlap each other, which holds for every span the benchmark
// records: each parent's children run one after another.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	layer string
	spans int
	self  time.Duration
}

// layerTable sums self time per layer, largest first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byLayer := map[string]*layerRow{}
	for i, s := range spans {
		l := layerOf(s.Name)
		row := byLayer[l]
		if row == nil {
			row = &layerRow{layer: l}
			byLayer[l] = row
		}
		row.spans++
		row.self += time.Duration(self[i])
	}
	rows := make([]layerRow, 0, len(byLayer))
	for _, r := range byLayer {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].layer < rows[j].layer
	})
	return rows
}

// namedShare is the share of the named roots' time that their direct
// children account for: how much of each slot the layer spans explain.
func namedShare(spans []span, root string) float64 {
	var total, covered int64
	for _, s := range spans {
		if s.Name == root {
			total += s.End - s.Start
		} else if s.Parent >= 0 && spans[s.Parent].Name == root {
			covered += s.End - s.Start
		}
	}
	return ratio(float64(covered), float64(total))
}

func printLayerTable(w io.Writer, spans []span) {
	rows := layerTable(spans)
	var total time.Duration
	for _, r := range rows {
		total += r.self
	}
	fmt.Fprintf(w, "self time by layer (%d spans):\n", len(spans))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %8d spans %12.3f ms %6.1f%%\n", r.layer, r.spans, ms(r.self), 100*ratio(float64(r.self), float64(total)))
	}
}
