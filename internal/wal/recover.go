package wal

import (
	"bytes"
	"sort"

	"repro/internal/core"
)

// State is what recovery hands the server: provably equal to the
// durable prefix of the crashed run. Slot/Epoch restore the counters,
// Plan (if any) is the newest verified plan, Pending is accepted
// demand not yet drained into a slot, Queue is drained demand whose
// plan never became durable, and Cursors are the per-instance ingest
// sequence watermarks the server resumes from.
type State struct {
	// Slot is the restored slot counter (the next slot to drain).
	Slot int
	// Epoch is the last durable plan epoch.
	Epoch int64
	// Plan is the newest verified durable plan (nil before any plan).
	Plan *PlanState
	// Pending is merged accepted-but-undrained demand, sorted
	// (hotspot, video).
	Pending []Entry
	// PendingRequests is the total request count behind Pending.
	PendingRequests int64
	// Queue holds drained slots awaiting (re)scheduling, slot order.
	Queue []QueuedSlot
	// Cursors maps instance id to its last durable ingest sequence.
	Cursors map[int]uint64
	// CheckpointSeq is the loaded checkpoint's sequence (0 = none).
	CheckpointSeq uint64
	// Records counts WAL records replayed on top of the checkpoint.
	Records int
	// TruncatedBytes counts bytes discarded as torn tail / corruption
	// (including whole segments after the first invalid frame).
	TruncatedBytes int64
}

// verifyPlanBytes re-verifies canonical plan bytes exactly like the
// serving tier's fan-out install: the bytes must hash to the
// advertised digest, must parse strictly, and must re-encode to the
// identical bytes. Durable state never reaches the server without
// passing this.
func verifyPlanBytes(canonical []byte, digest uint64) bool {
	if core.DigestOf(canonical) != digest {
		return false
	}
	plan, err := core.ParseCanonical(canonical)
	if err != nil {
		return false
	}
	return bytes.Equal(plan.Canonical(), canonical)
}

// entryKey merges demand increments.
type entryKey struct{ hotspot, video int }

// buildState deterministically reconstructs server state from a base
// checkpoint (nil for none) plus the decoded WAL records, in log
// order. It never panics, whatever the inputs (FuzzWALReplay drives
// it with adversarial record streams), and any plan it returns has
// passed verifyPlanBytes.
func buildState(ckpt *Checkpoint, recs []record) *State {
	st := &State{Cursors: make(map[int]uint64)}
	base := make(map[int]uint64) // checkpoint cursors, frozen for skip decisions
	if ckpt != nil {
		st.Slot = ckpt.Slot
		st.Epoch = ckpt.Epoch
		st.Plan = ckpt.Plan
		st.CheckpointSeq = ckpt.Seq
		for id, seq := range ckpt.Cursors {
			base[id] = seq
			st.Cursors[id] = seq
		}
	}

	// A plan record whose bytes fail verification is corruption that
	// slipped past the CRC; trusting anything after it would violate
	// the durable-prefix contract, so replay stops there.
	for i := range recs {
		if recs[i].kind == recPlan && !verifyPlanBytes(recs[i].canonical, recs[i].digest) {
			recs = recs[:i]
			break
		}
	}
	st.Records = len(recs)

	// First pass, log order: slot outcomes (plan or contract error),
	// the newest plan, and the advance high-water mark.
	maxAdv := -1
	outcome := make(map[int]bool)
	var ingests []record
	for _, r := range recs {
		switch r.kind {
		case recAdvance:
			if r.slot > maxAdv {
				maxAdv = r.slot
			}
		case recPlan:
			outcome[r.slot] = true
			if st.Plan == nil || r.epoch > st.Plan.Epoch {
				st.Plan = &PlanState{Slot: r.slot, Epoch: r.epoch, Digest: r.digest, Canonical: r.canonical}
			}
			if r.epoch > st.Epoch {
				st.Epoch = r.epoch
			}
		case recRoundErr:
			outcome[r.slot] = true
		case recIngest:
			if r.seq > base[r.instance] {
				ingests = append(ingests, r)
			}
			if r.seq > st.Cursors[r.instance] {
				st.Cursors[r.instance] = r.seq
			}
		}
	}
	if maxAdv+1 > st.Slot {
		st.Slot = maxAdv + 1
	}
	for s := range outcome {
		if s+1 > st.Slot {
			st.Slot = s + 1
		}
	}
	// drainedBound: slots strictly below it have durably passed their
	// boundary; their surviving demand belongs to the queue, everything
	// at or above it is still pending.
	drainedBound := maxAdv + 1
	if ckpt != nil && ckpt.Slot > drainedBound {
		drainedBound = ckpt.Slot
	}

	// Deterministic replay order. Demand counts commute, so the merge
	// result is order-independent — the sort pins the record-for-record
	// reconstruction order regardless of how concurrent appends from
	// different stripes interleaved in the log.
	sort.SliceStable(ingests, func(i, j int) bool {
		a, b := ingests[i], ingests[j]
		if a.slot != b.slot {
			return a.slot < b.slot
		}
		if a.instance != b.instance {
			return a.instance < b.instance
		}
		return a.seq < b.seq
	})

	pending := make(map[entryKey]int64)
	queued := make(map[int]map[entryKey]int64)
	queuedReqs := make(map[int]int64)
	// place attributes demand accepted for slot: dropped when the
	// slot's plan (or contract error) is durable, queued when the slot
	// has durably drained, pending otherwise.
	place := func(slot, hotspot, video int, count int64) {
		switch {
		case outcome[slot]:
		case slot < drainedBound:
			m := queued[slot]
			if m == nil {
				m = make(map[entryKey]int64)
				queued[slot] = m
			}
			m[entryKey{hotspot, video}] += count
			queuedReqs[slot] += count
		default:
			pending[entryKey{hotspot, video}] += count
			st.PendingRequests += count
		}
	}
	if ckpt != nil {
		for _, q := range ckpt.Queue {
			if outcome[q.Slot] {
				continue // its plan (or contract error) became durable after the checkpoint
			}
			m := queued[q.Slot]
			if m == nil {
				m = make(map[entryKey]int64)
				queued[q.Slot] = m
			}
			for _, e := range q.Entries {
				m[entryKey{e.Hotspot, e.Video}] += e.Count
			}
			queuedReqs[q.Slot] += q.Requests
		}
		// The checkpoint's pending demand was accepted for its open
		// slot, ckpt.Slot, which may have drained (and been planned)
		// after the capture.
		for _, e := range ckpt.Pending {
			place(ckpt.Slot, e.Hotspot, e.Video, e.Count)
		}
	}
	for _, r := range ingests {
		place(r.slot, r.hotspot, r.video, r.count)
	}

	st.Pending = sortedEntries(pending)
	slots := make([]int, 0, len(queued))
	for s := range queued {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	for _, s := range slots {
		es := sortedEntries(queued[s])
		if len(es) == 0 {
			continue
		}
		st.Queue = append(st.Queue, QueuedSlot{Slot: s, Requests: queuedReqs[s], Entries: es})
	}
	return st
}

// sortedEntries renders a demand map as (hotspot, video)-sorted
// entries.
func sortedEntries(m map[entryKey]int64) []Entry {
	out := make([]Entry, 0, len(m))
	for k, n := range m {
		out = append(out, Entry{Hotspot: k.hotspot, Video: k.video, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hotspot != out[j].Hotspot {
			return out[i].Hotspot < out[j].Hotspot
		}
		return out[i].Video < out[j].Video
	})
	return out
}
