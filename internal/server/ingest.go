package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/trace"
)

// ingestScratch is the per-request reusable buffer pair the hot HTTP
// paths decode into and encode responses from. Pooling it keeps the
// steady-state ingest path free of body-buffer growth and response
// marshalling allocations (measured by the ServerIngest and
// ServerIngestParallel benchmarks).
type ingestScratch struct {
	body []byte
	resp []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &ingestScratch{body: make([]byte, 0, 512), resp: make([]byte, 0, 96)}
}}

func getScratch() *ingestScratch   { return scratchPool.Get().(*ingestScratch) }
func putScratch(sc *ingestScratch) { scratchPool.Put(sc) }

// readBody reads a request body into buf (reusing its capacity),
// enforcing the configured size cap via http.MaxBytesReader so
// oversized bodies still surface as *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// ingestRequest is the wire form of one POST /ingest body. The request
// names its aggregation point either explicitly ("hotspot") or by user
// location ("x"/"y" in km), in which case the server resolves the
// nearest hotspot exactly as the offline simulator does.
type ingestRequest struct {
	User    int64    `json:"user"`
	Video   int64    `json:"video"`
	Hotspot *int64   `json:"hotspot"`
	X       *float64 `json:"x"`
	Y       *float64 `json:"y"`
}

// decodeIngest parses one ingest body. It is strict — unknown fields
// and trailing data are rejected — and must never panic, whatever the
// bytes (FuzzIngest holds it to that).
func decodeIngest(data []byte) (ingestRequest, error) {
	var req ingestRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return ingestRequest{}, fmt.Errorf("malformed body: %w", err)
	}
	if dec.More() {
		return ingestRequest{}, fmt.Errorf("trailing data after request object")
	}
	return req, nil
}

// resolveIngest validates the request against the world and returns the
// aggregation hotspot and video. Nearest-hotspot resolution uses the
// same spatial index as sim.BuildSlotContext, so a replayed trace
// aggregates identically online and offline.
func resolveIngest(world *trace.World, index *geo.Grid, req ingestRequest) (hotspot int, video trace.VideoID, err error) {
	if req.Video < 0 || req.Video >= int64(world.NumVideos) {
		return 0, 0, fmt.Errorf("video %d outside [0, %d)", req.Video, world.NumVideos)
	}
	if req.Hotspot != nil {
		h := *req.Hotspot
		if h < 0 || h >= int64(len(world.Hotspots)) {
			return 0, 0, fmt.Errorf("hotspot %d outside [0, %d)", h, len(world.Hotspots))
		}
		return int(h), trace.VideoID(req.Video), nil
	}
	if req.X == nil || req.Y == nil {
		return 0, 0, fmt.Errorf("need either hotspot or both x and y")
	}
	loc := geo.Point{X: *req.X, Y: *req.Y}
	if !loc.Finite() {
		return 0, 0, fmt.Errorf("non-finite location (%v, %v)", loc.X, loc.Y)
	}
	h, _, ok := index.Nearest(loc)
	if !ok {
		return 0, 0, fmt.Errorf("no hotspot indexed")
	}
	return h, trace.VideoID(req.Video), nil
}

// demandShard is one lock stripe of the per-hotspot demand
// accumulators. Hotspot h belongs to stripe h mod Shards, so its
// counters are only ever touched under this stripe's lock.
type demandShard struct {
	mu sync.Mutex
	// slot tags the timeslot this stripe is currently accumulating
	// for; the drain re-stamps it at every boundary. WAL ingest
	// records carry it so recovery can place each accepted request in
	// the right slot.
	slot int
	// pending is the number of accepted requests not yet snapshotted;
	// the backpressure bound applies to it.
	pending int64
	// perVideo[h][v] counts accepted requests for video v aggregated
	// at hotspot h (only hotspots owned by this stripe appear).
	perVideo map[trace.HotspotID]map[trace.VideoID]int64
}

// applyLocked folds n requests for (h, v) into the stripe. Callers
// hold sh.mu.
func (sh *demandShard) applyLocked(h trace.HotspotID, v trace.VideoID, n int64) {
	if sh.perVideo == nil {
		sh.perVideo = make(map[trace.HotspotID]map[trace.VideoID]int64)
	}
	m := sh.perVideo[h]
	if m == nil {
		m = make(map[trace.VideoID]int64)
		sh.perVideo[h] = m
	}
	m[v] += n
	sh.pending += n
}

// add records one accepted request, or reports false when the stripe is
// at its bound (the caller answers 429).
func (sh *demandShard) add(h trace.HotspotID, v trace.VideoID, bound int64) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.pending >= bound {
		return false
	}
	sh.applyLocked(h, v, 1)
	return true
}

// acceptDemand is the accepted-ingest path behind POST /ingest: bound
// check, stripe accumulation, and — when durability is on — WAL
// logging. The ingest record is appended under the stripe lock (so
// the owning instance's sequence counter is an exact watermark of
// applied-and-logged requests) and group-committed after the lock is
// released, before the 202 acknowledgment. A Sync failure refuses the
// acknowledgment: the request may be double-counted on retry, but an
// acknowledged request is always part of the durable prefix.
func (s *Server) acceptDemand(owner *instance, sh *demandShard, h trace.HotspotID, v trace.VideoID) (bool, error) {
	if s.wal == nil {
		return sh.add(h, v, int64(s.cfg.QueueBound)), nil
	}
	sh.mu.Lock()
	if sh.pending >= int64(s.cfg.QueueBound) {
		sh.mu.Unlock()
		return false, nil
	}
	seq := owner.seq.Add(1)
	lsn, err := s.wal.AppendIngest(sh.slot, owner.id, seq, int(h), int(v), 1)
	if err != nil {
		sh.mu.Unlock()
		s.walErrors.Inc()
		return false, err
	}
	sh.applyLocked(h, v, 1)
	sh.mu.Unlock()
	if err := s.wal.Sync(lsn); err != nil {
		s.walErrors.Inc()
		return false, err
	}
	return true, nil
}

// drain atomically takes the stripe's accumulated demand, leaving it
// empty and accumulating for newSlot. The snapshot owns the returned
// maps outright.
func (sh *demandShard) drain(newSlot int) (map[trace.HotspotID]map[trace.VideoID]int64, int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out, n := sh.perVideo, sh.pending
	sh.perVideo = nil
	sh.pending = 0
	sh.slot = newSlot
	return out, n
}

// drainDemand collects every stripe into one core.Demand, returning nil
// when nothing was accepted since the last snapshot. Each stripe is
// locked only for the O(1) map handoff; merging happens outside the
// locks.
func drainDemand(shards []*demandShard, numHotspots, newSlot int) (*core.Demand, int64) {
	var total int64
	parts := make([]map[trace.HotspotID]map[trace.VideoID]int64, 0, len(shards))
	for _, sh := range shards {
		part, n := sh.drain(newSlot)
		if n > 0 {
			parts = append(parts, part)
			total += n
		}
	}
	if total == 0 {
		return nil, 0
	}
	d := core.NewDemand(numHotspots)
	for _, part := range parts {
		for h, videos := range part {
			for v, n := range videos {
				d.Add(h, v, n)
			}
		}
	}
	return d, total
}

// mergeDemand folds src into dst (used when a lagging recompute worker
// forces snapshot coalescing; demand counts commute, so no accepted
// request is ever lost).
func mergeDemand(dst, src *core.Demand) {
	for h := range src.PerVideo {
		for v, n := range src.PerVideo[h] {
			dst.Add(trace.HotspotID(h), v, n)
		}
	}
}
