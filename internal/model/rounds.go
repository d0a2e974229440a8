package model

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/view"
)

// This file is the plane's one round loop and its one algorithm form:
// a WordAlgo's whole node state is one uint64 word, every payload is
// one word on the lane, and the same loop runs it clean or under a
// fault schedule at every shard count. Pointer-shaped states and
// payloads ride the lane as column handles (see Gather).

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

// WordAlgo is the engine-native form of a round algorithm. Contract
// deltas from RoundAlgo, all in service of the columnar layout:
//
//   - Init receives the global node index v (so columnar algorithms can
//     index pre-drawn per-node tables directly) and info.Letters in the
//     letter-sorted slot order of the plane — local slot i is named by
//     info.Letters[i], and sends address slots, not letters. The letter
//     row aliases engine scratch and is valid only during the call.
//     Init is called sequentially in increasing node order, so it may
//     consume a shared RNG deterministically at every shard count.
//   - Step mutates the state word in place and returns only the halt
//     flag. The inbox aliases per-worker scratch and is valid only
//     during the call.
//   - Sends go through SendWord (one slot; a second send on it in one
//     round is an error) or BroadcastWord (whole slot row, unchecked
//     overwrite).
//
// The state column is the whole per-node run state the plane
// snapshots, so every WordAlgo is checkpointable as it stands.
type WordAlgo struct {
	// Init returns node v's initial state word.
	Init func(v int64, info NodeInfo) uint64
	// Step consumes the inbox (receiver letter order) and returns
	// whether the node halts.
	Step func(state *uint64, round int, inbox []WordMsg, out *Outbox) bool
	// Out extracts the final output from a state word.
	Out func(state *uint64) Output
}

// Run executes a word algorithm under sched and returns the number of
// rounds and the fault report, failing if some node has not halted
// after maxRounds. ids assigns NodeInfo.ID (nil: anonymous). Consume
// the final states with Column, VisitStates or StateAt.
//
// A nil schedule is the clean run, and its report is the all-zero
// "clean" one. Under a schedule its Fate is applied to every delivery
// at inbox-compaction time (so drops, duplicates and reorderings
// happen between the send and the receiver's Step), at the global
// (round, slot) coordinates; its State gates which nodes step each
// round at global (round, node) coordinates (down nodes skip the round
// silently; crashed nodes leave the worklist for good); and the report
// counts what actually happened. So a faulty run degrades identically
// at every P. Crashed nodes keep the last state they reached; callers
// decide how to treat their outputs (FaultReport.CrashedNode). Faulty
// runs need the node and slot counts to fit the int32 Schedule
// coordinates; clean runs do not.
func (e *Engine) Run(ids IDFunc, algo WordAlgo, maxRounds int, sched Schedule) (int, *FaultReport, error) {
	if sched != nil && (e.n > math.MaxInt32 || e.slots > math.MaxInt32) {
		return 0, nil, fmt.Errorf("model: faulty runs need n and slot count within int32 fault coordinates (n=%d slots=%d)", e.n, e.slots)
	}
	e.initStates(ids, algo)
	startRound, resumed, counts := 0, false, FaultReport{}
	if snap := e.resume; snap != nil {
		e.resume = nil
		var err error
		if counts, err = e.restore(snap, sched != nil); err != nil {
			return 0, nil, err
		}
		startRound, resumed = snap.Round, true
	}
	return e.rounds(algo, startRound, resumed, counts, maxRounds, sched)
}

// RunStates is Run with a materialised id table (checked against n),
// returning the state column (see Column).
func (e *Engine) RunStates(ids []int, algo WordAlgo, maxRounds int, sched Schedule) ([]uint64, int, *FaultReport, error) {
	var idf IDFunc
	if ids != nil {
		if int64(len(ids)) != e.n {
			return nil, 0, nil, fmt.Errorf("model: %d ids for %d nodes", len(ids), e.n)
		}
		idf = func(v int64) int { return ids[v] }
	}
	rounds, rep, err := e.Run(idf, algo, maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	return e.Column(), rounds, rep, nil
}

// RunRoundsWord executes a word algorithm on a fresh engine for the
// host under sched (nil: the clean run) and returns the per-node
// outputs, the number of rounds and the fault report. Pass ids for the
// ID model, nil for anonymous execution. Crashed nodes' outputs are
// extracted from the last state they reached.
func RunRoundsWord(h *Host, ids []int, algo WordAlgo, maxRounds int, sched Schedule) ([]Output, int, *FaultReport, error) {
	col, rounds, rep, err := NewEngine(h).RunStates(ids, algo, maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	outs := make([]Output, len(col))
	for v := range col {
		outs[v] = algo.Out(&col[v])
	}
	return outs, rounds, rep, nil
}

// initStates runs Init sequentially in increasing global node order,
// building each node's letter row into one reusable scratch row (read
// straight from the CSR rows on a plane built from a host, which keeps
// Init off the source adapter), and clears the halt flags and error
// slots.
func (e *Engine) initStates(ids IDFunc, algo WordAlgo) {
	letters := make([]view.Letter, 0, e.maxSlots)
	targets := make([]int64, 0, e.maxSlots)
	var outS, inS []ShardArc
	for _, sh := range e.shards {
		for v := int32(0); v < sh.n; v++ {
			gv := sh.lo + int64(v)
			if e.h != nil {
				letters = hostLetters(letters[:0], e.h.D.Out(int(gv)), e.h.D.In(int(gv)))
			} else {
				outS, inS = e.src.AppendArcs(gv, outS[:0], inS[:0])
				letters, targets = mergeLetters(letters[:0], targets[:0], outS, inS)
			}
			info := NodeInfo{ID: -1, Letters: letters}
			if ids != nil {
				info.ID = ids(gv)
			}
			sh.col[v] = algo.Init(gv, info)
			sh.halted[v] = false
		}
		sh.errV, sh.err = -1, nil
	}
	e.errFlag.Store(false)
}

// rounds is the one round loop. Worklists come from the schedule's
// round-0 liveness, or from the restored halt/crash bitsets when
// resumed (the worklist is always the increasing-order filter of those
// bitsets, so it is rebuilt rather than stored). Each round is a step
// phase — persistent workers claim node chunks of every shard's active
// list over one shared cursor — then the error check, then the barrier
// phase: each destination shard drains its exchange staging and
// compacts its worklist (inline at P=1, shard-parallel otherwise). The
// workers are spawned once against par's global budget and released
// at the end, so a steady-state round performs no allocation and no
// goroutine churn. counts seeds the fault counters of a resumed run.
func (e *Engine) rounds(algo WordAlgo, startRound int, resumed bool, counts FaultReport, maxRounds int, sched Schedule) (int, *FaultReport, error) {
	p := len(e.shards)
	// tag suffixes error strings with the profile on faulty runs.
	tag := ""
	if sched != nil {
		tag = " [" + sched.String() + "]"
	}
	totalActive := int64(0)
	for _, sh := range e.shards {
		if sched != nil {
			if sh.crashed == nil {
				sh.crashed = make([]bool, sh.n)
			} else if !resumed {
				clear(sh.crashed)
			}
		}
		active := sh.active[:0]
		for v := int32(0); v < sh.n; v++ {
			if resumed {
				if sh.halted[v] || (sched != nil && sh.crashed[v]) {
					continue
				}
			} else if sched != nil && sched.State(0, int32(sh.lo+int64(v))) == StateCrashed {
				sh.crashed[v] = true
				continue
			}
			active = append(active, v)
		}
		sh.active = active
		sh.activeN.Store(int64(len(active)))
		totalActive += int64(len(active))
	}

	base := e.tick
	// Per-round fields shared with the workers. Writes happen between
	// phases on this goroutine; the start-channel send publishes them
	// to the workers and wg.Wait closes the phase barrier.
	var (
		round    = startRound
		curArena int
		curWant  int64
		phase    int // 0: step, 1: drain+compact
		chunk    int64
		chunkOff = make([]int64, p+1) // chunk index range of each shard
		// cursor takes every worker's chunk claims; its own cache line
		// keeps them off the fields the workers read.
		cursor struct {
			atomic.Int64
			_ [56]byte
		}

		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	// Advance the tick past every stamp this run can have written, on
	// every exit path (including errors and re-raised panics): a
	// reused engine must never mistake a stale stamp for a live one.
	defer func() {
		e.tick = base + int64(round) + 2
	}()

	step := e.step(algo, sched)
	work := func(ob *Outbox) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicked == nil {
					panicked = r
				}
				panicMu.Unlock()
			}
		}()
		if phase == 1 {
			for i := cursor.Add(1) - 1; i < int64(p); i = cursor.Add(1) - 1 {
				e.drain(int(i), round, curArena, curWant, sched)
			}
			return
		}
		// Claimed chunk indices only grow, so the owning shard is found
		// by walking forward from the last one.
		si := 0
		for c := cursor.Add(1) - 1; c < chunkOff[p]; c = cursor.Add(1) - 1 {
			for c >= chunkOff[si+1] {
				si++
			}
			sh := e.shards[si]
			lo := (c - chunkOff[si]) * chunk
			hi := min(lo+chunk, int64(len(sh.active)))
			ob.sh = sh
			for _, v := range sh.active[lo:hi] {
				step(v, ob)
			}
		}
	}

	workers := 0
	if e.n > 1 {
		workers = par.Reserve(int(min(int64(par.N()-1), e.n-1)))
	}
	defer par.Release(workers)
	// Outboxes live outside the goroutines (master's is last) so the
	// per-worker fault counters are collectable after the run. Each
	// worker writes its scratch for every node it steps, so the
	// scratch carries a cache line of slack: neighbouring workers'
	// scratch never shares a line.
	obs := make([]*Outbox, workers+1)
	for w := range obs {
		obs[w] = &Outbox{e: e, tag: tag, wdense: make([]WordMsg, e.maxSlots, e.maxSlots+4)}
		if sched != nil {
			obs[w].fwdense = make([]WordMsg, 2*e.maxSlots, 2*e.maxSlots+4)
		}
	}
	start := make([]chan struct{}, workers)
	for w := range start {
		start[w] = make(chan struct{}, 1)
		go func(ch chan struct{}, ob *Outbox) {
			for range ch {
				ob.nxt = curArena ^ 1
				ob.want = curWant + 1
				ob.round = round
				work(ob)
				wg.Done()
			}
		}(start[w], obs[w])
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
	}()
	master := obs[workers]
	// runPhase runs one phase on the master and the first nw workers.
	runPhase := func(ph, nw int) {
		phase = ph
		cursor.Store(0)
		wg.Add(nw)
		for _, ch := range start[:nw] {
			ch <- struct{}{}
		}
		master.nxt = curArena ^ 1
		master.want = curWant + 1
		master.round = round
		work(master)
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
	}

	for ; round < maxRounds && totalActive > 0; round++ {
		if e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				return 0, nil, fmt.Errorf("model: round %d%s: run cancelled: %w", round, tag, err)
			}
		}
		curArena = round & 1
		curWant = base + int64(round) + 1
		chunk = totalActive/int64((workers+1)*4) + 1
		for i, sh := range e.shards {
			chunkOff[i+1] = chunkOff[i] + (int64(len(sh.active))+chunk-1)/chunk
		}
		runPhase(0, workers)
		if e.errFlag.Load() {
			for _, sh := range e.shards {
				sh.errMu.Lock()
				err := sh.err
				sh.errMu.Unlock()
				if err != nil {
					return 0, nil, err
				}
			}
		}
		// The barrier phase has one unit of work per shard.
		if p == 1 {
			e.drain(0, round, curArena, curWant, sched)
		} else {
			runPhase(1, min(workers, p-1))
		}
		totalActive = 0
		for _, sh := range e.shards {
			totalActive += int64(len(sh.active))
		}
		// Barrier checkpoint: after compaction (so crashes landing at
		// round+1 are in the bitsets) and before the next round's
		// cancellation poll (so RequestNow-then-cancel captures state
		// right at the cancellation point). The idle cost is one nil
		// check; a finished run (empty worklists) never checkpoints.
		if e.ck != nil && totalActive > 0 && e.ck.due(round+1) {
			if err := e.snapshotAt(round+1, base, sched, tally(counts, obs)); err != nil {
				return 0, nil, err
			}
		}
	}
	for _, sh := range e.shards {
		if len(sh.active) > 0 {
			return 0, nil, fmt.Errorf("model: node %d did not halt within %d rounds%s", sh.lo+int64(sh.active[0]), maxRounds, tag)
		}
	}
	if sched == nil {
		return round, cleanReport(), nil
	}
	rep := tally(counts, obs)
	rep.Profile = sched.String()
	rep.Crashed = make([]bool, 0, e.n)
	for _, sh := range e.shards {
		rep.Crashed = append(rep.Crashed, sh.crashed...)
	}
	for _, c := range rep.Crashed {
		if c {
			rep.NumCrashed++
		}
	}
	return round, &rep, nil
}

// tally adds the workers' fault counters to the base counts.
func tally(base FaultReport, obs []*Outbox) FaultReport {
	for _, ob := range obs {
		base.Dropped += ob.dropped
		base.Duplicated += ob.duped
		base.Reordered += ob.reordered
		base.DownSteps += ob.downSteps
	}
	return base
}

// step returns the per-node step of a run: stepClean on a nil
// schedule, stepFaulty otherwise. A step takes the node's local index
// in the worker's current shard, ob.sh.
func (e *Engine) step(algo WordAlgo, sched Schedule) func(int32, *Outbox) {
	if sched == nil {
		return e.stepClean(algo)
	}
	return e.stepFaulty(algo, sched)
}

// stepClean is the clean step: compact the node's live slots into the
// worker's scratch in slot (letter) order, tagged with their local
// slot indices, then Step against the state column in place.
func (e *Engine) stepClean(algo WordAlgo) func(int32, *Outbox) {
	return func(v int32, ob *Outbox) {
		sh := ob.sh
		lo, hi := sh.off[v], sh.off[v+1]
		cur, want := ob.nxt^1, ob.want-1
		st := sh.stamp[cur]
		wb := sh.wbuf[cur]
		wd := ob.wdense
		k := 0
		for s := lo; s < hi; s++ {
			if st[s] == want {
				wd[k] = WordMsg{W: wb[s], Slot: s - lo}
				k++
			}
		}
		ob.v = v
		sh.halted[v] = algo.Step(&sh.col[v], ob.round, wd[:k], ob)
	}
}

// stepFaulty is stepClean with the fault schedule interposed at global
// coordinates: liveness gating and reorder draws by global node id,
// per-delivery fates by global slot index, compacted into the worker's
// double-width scratch so duplicates fit.
func (e *Engine) stepFaulty(algo WordAlgo, sched Schedule) func(int32, *Outbox) {
	return func(v int32, ob *Outbox) {
		sh, round := ob.sh, ob.round
		gv := int32(sh.lo + int64(v))
		switch sched.State(round, gv) {
		case StateDown:
			ob.downSteps++
			return
		case StateCrashed:
			return
		}
		lo, hi := sh.off[v], sh.off[v+1]
		cur, want := ob.nxt^1, ob.want-1
		st := sh.stamp[cur]
		wb := sh.wbuf[cur]
		fd := ob.fwdense
		k := 0
		for s := lo; s < hi; s++ {
			if st[s] != want {
				continue
			}
			switch sched.Fate(round, int32(sh.slotBase+int64(s))) {
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
		if seed := sched.Reorder(round, gv); seed != 0 && len(inbox) > 1 {
			shuffleWordMsgs(inbox, seed)
			ob.reordered++
		}
		ob.v = v
		sh.halted[v] = algo.Step(&sh.col[v], round, inbox, ob)
	}
}

// drain is the barrier phase for destination shard d: pull every
// staged word aimed at d out of the source shards' exchange buffers
// into d's next-round arena, then compact d's worklist (halted nodes
// leave; on faulty runs nodes whose crash round arrived leave for
// good). Each destination slot is written by exactly one staging
// entry, so destination-parallel draining is race-free; the spare
// list flips roles so neither list is reallocated.
func (e *Engine) drain(d, round, curArena int, curWant int64, sched Schedule) {
	dst := e.shards[d]
	nxt := curArena ^ 1
	want := curWant + 1
	wb := dst.wbuf[nxt]
	st := dst.stamp[nxt]
	delivered := int64(0)
	for _, src := range e.shards {
		sw, sst, base := src.wbuf[nxt], src.stamp[nxt], src.off[src.n]
		for xi := src.xoff[d]; xi < src.xoff[d+1]; xi++ {
			if sst[base+xi] != want {
				continue
			}
			ds := src.xdst[xi]
			wb[ds] = sw[base+xi]
			st[ds] = want
			delivered++
		}
	}
	if delivered > 0 {
		dst.exchanged.Add(delivered)
	}
	next := dst.spare[:0]
	for _, v := range dst.active {
		if dst.halted[v] {
			continue
		}
		if sched != nil && sched.State(round+1, int32(dst.lo+int64(v))) == StateCrashed {
			dst.crashed[v] = true
			continue
		}
		next = append(next, v)
	}
	dst.spare = dst.active[:0]
	dst.active = next
	dst.activeN.Store(int64(len(next)))
}

// WordEngine and ShardedEngine name the one plane under the type names
// the perfbench driver compiles against; perfbench only.
type (
	WordEngine    = Engine
	ShardedEngine = Engine
)

// TypedOn returns e itself: the plane already owns its uint64 state
// column. Perfbench only.
func TypedOn[S uint64](e *Engine) *Engine { return e }
