package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/ckpt"
)

// This file is the engine's durability layer: Snapshot captures a
// run's complete resumable state at a round barrier — the next round
// number, the state column, the pending message plane, the halt and
// crash bitsets, and the accumulated fault counters — and Resume
// replays it into a fresh (or reused) engine so the remainder of the
// run is byte-identical to the uninterrupted run.
//
// Why barriers, and why it is exact. Between rounds the engine's whole
// dynamic state is: the per-node states, which nodes have halted or
// crashed, and the messages written for the next round (arena
// (round)&1 stamped base+round+1, where base is the run's tick). All
// fault decisions (Fate/State/Reorder) are pure hashes of the
// schedule's seed and *absolute* coordinates (round, slot/node), so a
// resumed run that keeps absolute round numbering replays the exact
// fate sequence of the original; and the worklist is always the
// increasing-vertex-order filter of the halt/crash bitsets (round-0
// construction and every compaction preserve order), so it is
// reconstructed rather than stored. Stamps are re-based on the
// resuming engine's own tick; stale stamps from that engine's earlier
// runs are strictly below its tick, so a restored message can never
// be confused with a leftover one.
//
// Coordinates. Snapshots are written in global coordinates — global
// node order for the bitsets and the state column, global slot indices
// for the pending messages — which are the same at every shard count,
// so a snapshot taken at one P resumes at any other. States are the
// fixed-width little-endian state words; payloads are lane words.

// SnapshotKind is the ckpt container kind of an encoded engine
// Snapshot.
const SnapshotKind = "engine-run"

// snapshotVersion is bumped on any change to the Snapshot encoding.
const snapshotVersion = 1

// Snapshot is a run's resumable state at a round barrier. It is
// produced by a Checkpointer sink, serialised with Encode, and
// consumed (once) by Engine.Resume. All fields are deterministic
// functions of the run's state — no timestamps, no map order — so equal
// run states encode to equal bytes.
type Snapshot struct {
	// Faulty records whether the run executed under a fault schedule.
	Faulty bool
	// N and Slots pin the plane geometry the snapshot belongs to.
	N     int
	Slots int
	// Round is the next round to execute (the snapshot was taken at
	// the barrier after round Round-1).
	Round int
	// Halted and Crashed are the per-node bitsets at the barrier
	// (Crashed is nil on clean runs).
	Halted  []bool
	Crashed []bool
	// Accumulated fault counters at the barrier; they seed the resumed
	// run's FaultReport so the final report equals the uninterrupted
	// run's.
	Dropped    int64
	Duplicated int64
	Reordered  int64
	DownSteps  int64
	// Pending lists the plane slots holding messages for round Round,
	// in increasing slot order; Words carries their payloads.
	Pending []int32
	Words   []uint64
	// States is the state column: one little-endian uint64 per node in
	// increasing node order.
	States []byte

	// consumed rejects resuming one in-memory snapshot twice: the
	// second resume would replay messages into an engine whose tick
	// has already moved past them.
	consumed bool
}

// Encode serialises the snapshot payload (wrap with ckpt.Encode /
// store with ckpt.Store under SnapshotKind for the on-disk container).
func (s *Snapshot) Encode() []byte {
	var w ckpt.Writer
	w.Uvarint(snapshotVersion)
	// The encoding once also carried boxed-payload runs; the flag
	// byte that told them apart is always set now.
	w.Bool(true)
	w.Bool(s.Faulty)
	w.Uvarint(uint64(s.N))
	w.Uvarint(uint64(s.Slots))
	w.Uvarint(uint64(s.Round))
	w.Bits(s.Halted)
	if s.Faulty {
		w.Bits(s.Crashed)
		w.I64(s.Dropped)
		w.I64(s.Duplicated)
		w.I64(s.Reordered)
		w.I64(s.DownSteps)
	}
	w.Uvarint(uint64(len(s.Pending)))
	prev := int32(0)
	for _, p := range s.Pending {
		w.Uvarint(uint64(p - prev)) // increasing order: deltas are non-negative
		prev = p
	}
	for _, wd := range s.Words {
		w.U64(wd)
	}
	w.Blob(s.States)
	return w.Bytes()
}

// DecodeSnapshot parses an encoded snapshot payload. It rejects
// malformed or hostile input with an error and allocates no more than
// a small multiple of len(payload).
func DecodeSnapshot(payload []byte) (*Snapshot, error) {
	r := ckpt.NewReader(payload)
	if v := r.Uvarint(); v != snapshotVersion {
		if r.Err() == nil {
			return nil, fmt.Errorf("model: snapshot version %d (want %d)", v, snapshotVersion)
		}
		return nil, r.Err()
	}
	s := &Snapshot{}
	if typed := r.Bool(); r.Err() == nil && !typed {
		return nil, fmt.Errorf("model: snapshot of a boxed-payload run is no longer supported")
	}
	s.Faulty = r.Bool()
	s.N = int(r.Uvarint())
	s.Slots = int(r.Uvarint())
	s.Round = int(r.Uvarint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if s.N < 0 || s.N > 1<<31 || s.Slots < 0 || s.Slots > 1<<31 {
		return nil, fmt.Errorf("model: snapshot geometry out of range (n=%d slots=%d)", s.N, s.Slots)
	}
	s.Halted = r.Bits(s.N)
	if s.Faulty {
		s.Crashed = r.Bits(s.N)
		s.Dropped = r.I64()
		s.Duplicated = r.I64()
		s.Reordered = r.I64()
		s.DownSteps = r.I64()
	}
	np := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if np > uint64(s.Slots) {
		return nil, fmt.Errorf("model: snapshot pending count %d exceeds %d slots", np, s.Slots)
	}
	// Each pending entry occupies at least 9 bytes (a varint slot
	// delta and a payload word): bound the count by what remains
	// before trusting it with an allocation.
	if np > uint64(r.Len())/9 {
		return nil, fmt.Errorf("model: snapshot pending count %d exceeds the %d remaining bytes", np, r.Len())
	}
	s.Pending = make([]int32, np)
	prev := int64(0)
	for i := range s.Pending {
		prev += int64(r.Uvarint())
		if prev >= int64(s.Slots) {
			return nil, fmt.Errorf("model: snapshot pending slot %d out of range", prev)
		}
		s.Pending[i] = int32(prev)
	}
	s.Words = make([]uint64, np)
	for i := range s.Words {
		s.Words[i] = r.U64()
	}
	s.States = r.Blob()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("model: snapshot has %d trailing bytes", r.Len())
	}
	return s, nil
}

// Checkpointer arms barrier checkpointing on an engine (see
// Engine.WithCheckpoints). At each round barrier where a checkpoint is
// due — every Every rounds, or once after RequestNow — the engine
// builds a Snapshot and hands it to Sink; a Sink error aborts the run.
// The idle cost (a barrier where no checkpoint is due) is one nil/int
// check, which is what keeps the steady-state round at 0 allocs/op.
type Checkpointer struct {
	// Every takes a checkpoint at every barrier whose next-round
	// number is a positive multiple of Every; 0 checkpoints only on
	// request.
	Every int
	// Sink receives each snapshot. The pointer is not retained by the
	// engine; the sink may serialise and discard it.
	Sink func(*Snapshot) error

	reqNow atomic.Bool
}

// RequestNow asks for one checkpoint at the next round barrier. It is
// safe to call from any goroutine (the watchdog calls it immediately
// before cancelling a job's context, so the barrier checkpoint runs
// before the loop-top cancellation poll).
func (ck *Checkpointer) RequestNow() { ck.reqNow.Store(true) }

// due reports whether a checkpoint should be taken at the barrier
// entering nextRound, consuming a pending RequestNow.
func (ck *Checkpointer) due(nextRound int) bool {
	if ck.reqNow.CompareAndSwap(true, false) {
		return true
	}
	return ck.Every > 0 && nextRound%ck.Every == 0
}

// WithCheckpoints arms barrier checkpointing for this engine's
// subsequent runs (clean and faulty alike — the hook lives in the
// round loop). A nil ck disarms. Returns e for chaining.
func (e *Engine) WithCheckpoints(ck *Checkpointer) *Engine {
	e.ck = ck
	return e
}

// Resume arms the engine to resume its next run from snap instead of
// starting at round 0: the run's Init pass executes as usual (so
// callers regenerate ids and pre-drawn randomness exactly as the
// original run did), then states, halt/crash bitsets, pending
// messages and fault counters are restored from the snapshot and the
// round loop starts at snap.Round. The snapshot must match the run it
// is applied to (node and slot counts, clean/faulty), at any shard
// count, and is consumed: resuming one snapshot twice is rejected.
// Returns e for chaining.
func (e *Engine) Resume(snap *Snapshot) *Engine {
	e.resume = snap
	return e
}

// snapshotAt builds the Snapshot for the barrier entering nextRound
// and hands it to the checkpointer's sink. counts carries the run's
// accumulated fault counters. It runs on the master goroutine between
// rounds (after the barrier's drain and worklist compaction, so every
// exchanged word is in its destination arena), and every field it
// reads is quiescent.
func (e *Engine) snapshotAt(nextRound int, base int64, sched Schedule, counts FaultReport) error {
	if e.n > math.MaxInt32 || e.slots > math.MaxInt32 {
		return fmt.Errorf("model: checkpoint at round %d: n=%d and %d slots exceed the int32 snapshot coordinates", nextRound, e.n, e.slots)
	}
	snap := &Snapshot{
		Faulty: sched != nil,
		N:      int(e.n),
		Slots:  int(e.slots),
		Round:  nextRound,
		Halted: make([]bool, 0, e.n),
		States: make([]byte, 0, 8*e.n),
	}
	if sched != nil {
		snap.Crashed = make([]bool, 0, e.n)
		snap.Dropped = counts.Dropped
		snap.Duplicated = counts.Duplicated
		snap.Reordered = counts.Reordered
		snap.DownSteps = counts.DownSteps
	}
	// Messages for round nextRound live in arena nextRound&1, stamped
	// base+nextRound+1 (the writing round's want was curWant+1).
	arena := nextRound & 1
	want := base + int64(nextRound) + 1
	for _, sh := range e.shards {
		snap.Halted = append(snap.Halted, sh.halted...)
		if sched != nil {
			snap.Crashed = append(snap.Crashed, sh.crashed...)
		}
		for s, st := range sh.stamp[arena][:sh.off[sh.n]] {
			if st == want {
				snap.Pending = append(snap.Pending, int32(sh.slotBase)+int32(s))
				snap.Words = append(snap.Words, sh.wbuf[arena][s])
			}
		}
		for _, w := range sh.col {
			snap.States = binary.LittleEndian.AppendUint64(snap.States, w)
		}
	}
	if e.ck.Sink == nil {
		return nil
	}
	if err := e.ck.Sink(snap); err != nil {
		return fmt.Errorf("model: checkpoint at round %d: %w", nextRound, err)
	}
	return nil
}

// restore validates a snapshot against the run being started and, only
// once every check has passed, restores it over the freshly
// initialised plane: halt/crash bitsets, the state column, and the
// pending words with their stamps re-based on this engine's tick
// (stale stamps from its earlier runs are strictly below the tick, so
// a restored message is never confused with a leftover one). It
// returns the fault-counter bases. A rejected snapshot restores
// nothing, so the engine stays safe for ordinary runs.
func (e *Engine) restore(snap *Snapshot, faulty bool) (FaultReport, error) {
	if snap.consumed {
		return FaultReport{}, fmt.Errorf("model: resume: snapshot already resumed (double resume rejected)")
	}
	if snap.Faulty != faulty {
		if snap.Faulty {
			return FaultReport{}, fmt.Errorf("model: resume: snapshot is from a faulty run; pass the same schedule")
		}
		return FaultReport{}, fmt.Errorf("model: resume: snapshot is from a clean run; drop the schedule")
	}
	if int64(snap.N) != e.n || int64(snap.Slots) != e.slots {
		return FaultReport{}, fmt.Errorf("model: resume: snapshot geometry (n=%d slots=%d) does not match host (n=%d slots=%d)",
			snap.N, snap.Slots, e.n, e.slots)
	}
	if len(snap.Halted) != snap.N || (snap.Faulty && len(snap.Crashed) != snap.N) {
		return FaultReport{}, fmt.Errorf("model: resume: snapshot bitset length mismatch")
	}
	if len(snap.States) != 8*snap.N {
		return FaultReport{}, fmt.Errorf("model: resume: state column is %d bytes (want %d)", len(snap.States), 8*snap.N)
	}
	if len(snap.Words) != len(snap.Pending) {
		return FaultReport{}, fmt.Errorf("model: resume: %d payload words for %d pending slots", len(snap.Words), len(snap.Pending))
	}
	for i, s := range snap.Pending {
		if s < 0 || int64(s) >= e.slots || (i > 0 && s < snap.Pending[i-1]) {
			return FaultReport{}, fmt.Errorf("model: resume: pending slot %d out of range or order", s)
		}
	}
	snap.consumed = true
	for _, sh := range e.shards {
		copy(sh.halted, snap.Halted[sh.lo:sh.hi])
		if snap.Faulty {
			if sh.crashed == nil {
				sh.crashed = make([]bool, sh.n)
			}
			copy(sh.crashed, snap.Crashed[sh.lo:sh.hi])
		}
		for v := range sh.col {
			sh.col[v] = binary.LittleEndian.Uint64(snap.States[8*(sh.lo+int64(v)):])
		}
	}
	arena := snap.Round & 1
	want := e.tick + int64(snap.Round) + 1
	j := 0 // pending slots are increasing, so their shards are too
	for i, s := range snap.Pending {
		for int64(s) >= e.shards[j].slotBase+int64(len(e.shards[j].dest)) {
			j++
		}
		sh := e.shards[j]
		local := int64(s) - sh.slotBase
		sh.stamp[arena][local] = want
		sh.wbuf[arena][local] = snap.Words[i]
	}
	return FaultReport{
		Dropped:    snap.Dropped,
		Duplicated: snap.Duplicated,
		Reordered:  snap.Reordered,
		DownSteps:  snap.DownSteps,
	}, nil
}
