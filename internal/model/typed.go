package model

import (
	"encoding/binary"
	"fmt"
)

// This file is the columnar path of the round engine: states live in a
// contiguous []S column owned by the TypedEngine (no interface boxing,
// no per-node pointer chase) and message payloads travel in the
// Engine's fixed-width uint64 word lane. Pointer-shaped payloads ride
// the lane as column handles (see Gather).

// WordMsg is one inbox entry of the message plane: the payload word
// plus the receiver-local incident-slot index of the arrival arc (the
// position of the arc in the receiver's letter-sorted slot row; the
// letter itself is info.Letters[Slot] under the Init contract). 16
// bytes, pointer-free: compacting an inbox is a flat copy the garbage
// collector never scans.
type WordMsg struct {
	// W is the payload word.
	W uint64
	// Slot is the receiver-local incident-slot index (letter order).
	Slot int32
}

// TypedAlgo is the engine-native form of a round algorithm. Contract
// deltas from RoundAlgo, all in service of the columnar layout:
//
//   - Init receives the node index v (so columnar algorithms can index
//     pre-drawn per-node tables directly) and info.Letters in the
//     letter-sorted slot order of the message plane — local slot i is
//     named by info.Letters[i], and sends address slots, not letters.
//   - Step mutates the state in place through *S and returns only the
//     halt flag. The inbox aliases per-worker scratch and is valid
//     only during the call.
//   - Sends go through SendWord (one slot; a second send on it in one
//     round is an error) or BroadcastWord (whole slot row, unchecked
//     overwrite).
type TypedAlgo[S any] struct {
	// Init returns node v's initial state; called sequentially in
	// increasing node order, so it may consume a shared RNG or a
	// pre-drawn per-node table deterministically.
	Init func(v int, info NodeInfo) S
	// Step consumes the inbox (receiver letter order) and returns
	// whether the node halts.
	Step func(state *S, round int, inbox []WordMsg, out *Outbox) bool
	// Out extracts the final output from a state.
	Out func(state *S) Output

	// Optional checkpoint codecs (snapshot.go): EncodeState appends a
	// self-delimiting encoding of a state and DecodeState consumes one
	// from the front of src, returning the remainder. Required only
	// for checkpointed or resumed runs; uint64 states (WordAlgo) fall
	// back to a fixed-width little-endian default, so every packed
	// word workload is checkpointable with no codec at all. Payloads
	// need no codec — they are the word lane.
	EncodeState func(dst []byte, state *S) []byte
	DecodeState func(src []byte, state *S) (rest []byte, err error)
}

// WordAlgo is the fully packed fixed-width instantiation: the whole
// node state is one uint64 (the Cole–Vishkin colour pipeline and the
// matching proposal protocol both fit), so a run touches exactly two
// contiguous uint64 columns — the state column and the word lane.
type WordAlgo = TypedAlgo[uint64]

// TypedEngine couples an Engine's message plane with a columnar state
// array. Exactly like the Engine itself, a TypedEngine must not
// execute two runs concurrently.
type TypedEngine[S any] struct {
	e   *Engine
	col []S
}

// WordEngine is the uint64-state instantiation of TypedEngine.
type WordEngine = TypedEngine[uint64]

// NewTypedEngine sizes a typed engine (plane plus state column) for
// the host.
func NewTypedEngine[S any](h *Host) *TypedEngine[S] { return TypedOn[S](NewEngine(h)) }

// NewWordEngine sizes a fixed-width typed engine for the host.
func NewWordEngine(h *Host) *WordEngine { return NewTypedEngine[uint64](h) }

// TypedOn attaches a columnar state array to an existing engine,
// sharing its message plane, worklists and stamps.
func TypedOn[S any](e *Engine) *TypedEngine[S] {
	return &TypedEngine[S]{e: e, col: make([]S, e.n)}
}

// Engine returns the underlying engine, e.g. to arm cancellation with
// WithContext.
func (te *TypedEngine[S]) Engine() *Engine { return te.e }

// RunStates executes a typed algorithm under sched and returns the
// final state column, the number of rounds and the fault report,
// failing if some node has not halted after maxRounds. A nil schedule
// is the clean run: the engine takes its unmodified step path and the
// report is the all-zero "clean" one. Under a schedule its Fate is
// applied to every delivery at inbox-compaction time (so drops,
// duplicates and reorderings happen between the send and the
// receiver's Step), its State gates which nodes step each round (down
// nodes skip the round silently; crashed nodes leave the worklist for
// good), and the report counts what actually happened. Crashed nodes
// keep the last state they reached; callers decide how to treat their
// outputs (FaultReport.CrashedNode). The column is owned by the typed
// engine and overwritten by its next run.
func (te *TypedEngine[S]) RunStates(ids []int, algo TypedAlgo[S], maxRounds int, sched Schedule) ([]S, int, *FaultReport, error) {
	e := te.e
	if ids != nil && len(ids) != e.n {
		return nil, 0, nil, fmt.Errorf("model: %d ids for %d nodes", len(ids), e.n)
	}
	for v := 0; v < e.n; v++ {
		// NodeInfo letters are the letter-sorted slot row itself
		// (shared, read-only): local slot i is info.Letters[i].
		info := NodeInfo{ID: -1, Letters: e.letters[e.off[v]:e.off[v+1]:e.off[v+1]]}
		if ids != nil {
			info.ID = ids[v]
		}
		te.col[v] = algo.Init(v, info)
		e.halted[v] = false
		e.errs[v] = nil
	}
	if e.ck != nil {
		enc, err := te.encStates(algo)
		if err != nil {
			return nil, 0, nil, err
		}
		e.ckEncStates = enc
	}
	if snap := e.resume; snap != nil {
		e.resume = nil
		if err := te.restoreTyped(snap, algo, sched != nil); err != nil {
			e.failedResume(snap)
			return nil, 0, nil, err
		}
	}
	step := te.stepTyped(algo)
	prep := func(ob *Outbox) { ob.wdense = make([]WordMsg, e.maxSlots) }
	if sched != nil {
		step = te.stepTypedFaulty(algo, sched)
		prep = func(ob *Outbox) { ob.fwdense = make([]WordMsg, 2*int(e.maxSlots)) }
	}
	rounds, rep, err := e.runCore(step, prep, sched, maxRounds)
	if err != nil {
		return nil, 0, nil, err
	}
	return te.col, rounds, rep, nil
}

// encStates builds the state-column encoder for a checkpointed typed
// run: the algorithm's EncodeState per node, or the fixed-width
// little-endian default when the column is []uint64 (WordAlgo).
func (te *TypedEngine[S]) encStates(algo TypedAlgo[S]) (func(dst []byte) []byte, error) {
	if algo.EncodeState != nil {
		return func(dst []byte) []byte {
			for v := range te.col {
				dst = algo.EncodeState(dst, &te.col[v])
			}
			return dst
		}, nil
	}
	wcol, ok := any(te.col).([]uint64)
	if !ok {
		return nil, fmt.Errorf("model: checkpointing armed but typed algorithm has no EncodeState codec")
	}
	return func(dst []byte) []byte {
		for _, w := range wcol {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		return dst
	}, nil
}

// restoreTyped restores a typed run from snap: the shared plane state,
// the state column through the algorithm's codec (or the uint64
// default), and the pending word-lane payloads.
func (te *TypedEngine[S]) restoreTyped(snap *Snapshot, algo TypedAlgo[S], faulty bool) error {
	e := te.e
	if algo.DecodeState == nil {
		if _, ok := any(te.col).([]uint64); !ok {
			return fmt.Errorf("model: resume: typed algorithm has no DecodeState codec")
		}
	}
	if err := e.restoreCommon(snap, faulty); err != nil {
		return err
	}
	if algo.DecodeState != nil {
		src := snap.States
		for v := 0; v < e.n; v++ {
			rest, err := algo.DecodeState(src, &te.col[v])
			if err != nil {
				return fmt.Errorf("model: resume: state of node %d: %w", v, err)
			}
			src = rest
		}
		if len(src) != 0 {
			return fmt.Errorf("model: resume: %d trailing state bytes", len(src))
		}
	} else {
		wcol := any(te.col).([]uint64)
		if len(snap.States) != 8*e.n {
			return fmt.Errorf("model: resume: state column is %d bytes (want %d)", len(snap.States), 8*e.n)
		}
		for v := range wcol {
			wcol[v] = binary.LittleEndian.Uint64(snap.States[8*v:])
		}
	}
	if len(snap.Words) != len(snap.Pending) {
		return fmt.Errorf("model: resume: %d payload words for %d pending slots", len(snap.Words), len(snap.Pending))
	}
	arena := snap.Round & 1
	for i, s := range snap.Pending {
		e.wbuf[arena][s] = snap.Words[i]
	}
	return nil
}

// stepTyped is the clean typed step: compact the node's live word
// slots into the worker's scratch (tagged with their local slot
// indices), then Step against the state column in place.
func (te *TypedEngine[S]) stepTyped(algo TypedAlgo[S]) func(int, *Outbox) {
	e := te.e
	return func(v int, ob *Outbox) {
		lo, hi := e.off[v], e.off[v+1]
		cur, want := ob.nxt^1, ob.want-1
		st := e.stamp[cur]
		wb := e.wbuf[cur]
		wd := ob.wdense
		k := 0
		for s := lo; s < hi; s++ {
			if st[s] == want {
				wd[k] = WordMsg{W: wb[s], Slot: s - lo}
				k++
			}
		}
		ob.v = int32(v)
		e.halted[v] = algo.Step(&te.col[v], ob.round, wd[:k], ob)
	}
}

// stepTypedFaulty is stepTyped with the fault schedule interposed:
// liveness gating, per-(round, slot) fates compacted into the worker's
// double-width scratch so duplicates fit, and adversarial inbox
// permutation.
func (te *TypedEngine[S]) stepTypedFaulty(algo TypedAlgo[S], sched Schedule) func(int, *Outbox) {
	e := te.e
	return func(v int, ob *Outbox) {
		round := ob.round
		switch sched.State(round, int32(v)) {
		case StateDown:
			ob.downSteps++
			return
		case StateCrashed:
			return
		}
		lo, hi := e.off[v], e.off[v+1]
		cur, want := ob.nxt^1, ob.want-1
		st := e.stamp[cur]
		wb := e.wbuf[cur]
		fd := ob.fwdense
		k := 0
		for s := lo; s < hi; s++ {
			if st[s] != want {
				continue
			}
			switch sched.Fate(round, s) {
			case Drop:
				ob.dropped++
				continue
			case Duplicate:
				ob.duped++
				fd[k] = WordMsg{W: wb[s], Slot: s - lo}
				k++
			}
			fd[k] = WordMsg{W: wb[s], Slot: s - lo}
			k++
		}
		inbox := fd[:k]
		if seed := sched.Reorder(round, int32(v)); seed != 0 && len(inbox) > 1 {
			shuffleWordMsgs(inbox, seed)
			ob.reordered++
		}
		ob.v = int32(v)
		e.halted[v] = algo.Step(&te.col[v], round, inbox, ob)
	}
}

// RunRoundsTyped executes a typed round algorithm on a fresh engine
// for the host under sched (nil: the clean run) and returns the
// per-node outputs, the number of rounds and the fault report. Pass
// ids for the ID model, nil for anonymous execution. Crashed nodes'
// outputs are extracted from the last state they reached.
func RunRoundsTyped[S any](h *Host, ids []int, algo TypedAlgo[S], maxRounds int, sched Schedule) ([]Output, int, *FaultReport, error) {
	col, rounds, rep, err := NewTypedEngine[S](h).RunStates(ids, algo, maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	outs := make([]Output, len(col))
	for v := range col {
		outs[v] = algo.Out(&col[v])
	}
	return outs, rounds, rep, nil
}
