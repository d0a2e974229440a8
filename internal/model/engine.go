package model

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/digraph"
	"repro/internal/view"
)

// Engine is the one round plane: a batched, worker-parallel simulator
// of synchronous word-lane round algorithms, partitioned into P
// contiguous shards. NewEngine builds the single-shard plane straight
// from a materialised host's CSR rows; NewShardedEngine builds P shards
// from a ShardSource, so hosts past the int32 per-shard capacity — or
// simply past what one contiguous plane should hold — run with
// per-shard bounded memory. Every run, at every P, goes through the one
// round loop (rounds.go).
//
// Layout. Every incident (arc, direction) pair of every node is one
// slot: node v's slots are a contiguous row ordered by the letter
// naming the arc at v (view.Letter.Less, out before in on equal
// labels), so an inbox is always delivered in the receiver's letter
// order regardless of worker schedule. Rows are concatenated in global
// node order, so a slot's global index is the same at every P; a shard
// holds the rows of its node range at local offsets off, plus slotBase.
// dest[s] routes a send on slot s to the slot naming the same arc by
// the inverse letter at the other endpoint: a local slot, or, when the
// peer lives in another shard, a staging slot in the tail of the
// shard's own arenas, past its rows.
//
// Double buffering. Messages for round r live in arena r&1 and the
// outboxes of round r are written into arena (r+1)&1, so a slot is
// written by exactly one sender and read by exactly one receiver and
// no round ever races with the next. Slots carry one-byte stamps
// instead of being cleared every round: a slot holds a live message
// for round r iff its stamp equals r+1-gen, where gen is the round the
// current stamp epoch began at, so 0 is never live. Run clears both
// stamp arenas, and when the next round's stamp would pass 255 the
// barrier rebases: the live stamps become 1, every other stamp 0, and
// gen moves to the next round (see rebase).
//
// Exchange. Cross-shard sends are staged in the sender's shard,
// grouped by destination shard, and at the round barrier each
// destination shard drains every staging range aimed at it — the same
// CONS/GOSSIP boundary cometbft draws between the consensus state
// machine and the gossip plane. Every staging entry targets a unique
// destination slot and inboxes are compacted in slot order at the
// receiver, so which shard, worker or drain pass wrote a word cannot
// change what a node sees: P is a memory knob, never an answer knob.
//
// Determinism. Each node's Step writes only its own state word, halt
// flag and outgoing slots, and Init runs sequentially in increasing
// global node order, so any randomness drawn there is independent of
// P and of the worker count.
//
// An Engine may be reused for any number of runs (arenas warm up once;
// the per-run stamp clear keeps a run from reading an earlier run's
// messages), but must not execute two runs concurrently.
type Engine struct {
	h      *Host // the host NewEngine built the plane from; nil for sources
	src    ShardSource
	shards []*shard
	n      int64
	slots  int64
	// maxSlots is the widest slot row (the plane's maximum degree):
	// the bound every per-worker inbox-compaction scratch and the Init
	// letter scratch are pre-sized from (2x for fault scratch, so
	// duplicated deliveries fit).
	maxSlots int32
	// gen is the round the current stamp epoch began at: round r's
	// messages carry stamp r+1-gen. Run resets it; rebase advances it.
	gen     int
	errFlag atomic.Bool

	// ctx, when non-nil, arms cooperative cancellation: the round loop
	// polls ctx.Err() at every round barrier. See WithContext.
	ctx context.Context

	// Durability (snapshot.go): ck arms barrier checkpointing, resume
	// holds a snapshot armed for the next run.
	ck     *Checkpointer
	resume *Snapshot
}

// shard is one partition of the plane: a contiguous global node range
// with its own slot rows, double-buffered word arenas, state column,
// worklist and outgoing exchange staging.
type shard struct {
	lo, hi   int64 // global node range [lo, hi)
	n        int32 // hi - lo
	slotBase int64 // global index of local slot 0

	off  []int32 // local slot offsets, len n+1
	dest []int32 // destination slot: local row slot, or off[n]+x staging slot

	wbuf  [2][]uint64
	stamp [2][]uint8

	col    []uint64
	halted []bool
	// active is the worklist, compacted in place at every barrier.
	active []int32
	// crashed marks permanently crashed nodes on faulty runs; lazily
	// allocated on the first faulty run so clean engines pay nothing.
	crashed []bool

	// Exchange staging, grouped by destination shard: staging slot
	// off[n]+x, for x in xoff[d]:xoff[d+1], goes to shard d's slot
	// xdst[x]. Staged words and stamps live in the arena tails, so a
	// send is the same store whichever shard the peer is in.
	xoff []int32
	xdst []int32

	// First send error of the smallest failing local node this round.
	errMu sync.Mutex
	errV  int32
	err   error

	// Observability: activeN is the worklist length after the last
	// barrier, exchanged counts cross-shard words delivered into this
	// shard since construction. Both read live by /metrics.
	activeN   atomic.Int64
	exchanged atomic.Int64
}

// MaxShards bounds the shard count. Every shard keeps a p+1 exchange
// offset row and each barrier drain visits every (source, destination)
// shard pair, so construction and rounds cost O(p²) on top of the
// host; a few hundred shards already exceeds any useful split of the
// cores the workers run on.
const MaxShards = 256

// NewEngine builds the single-shard plane for a materialised host,
// straight from its CSR rows: each slot's destination is found by
// counting the peer's label-sorted rows, with no per-slot letter
// table. Everything is allocated here; runs reuse it all. It panics if
// the host's slot count exceeds the int32 plane capacity (use
// NewShardedEngine on an implicit source for such hosts).
func NewEngine(h *Host) *Engine {
	n := h.G.N()
	sh := &shard{hi: int64(n), n: int32(n), errV: -1}
	sh.off = make([]int32, n+1)
	maxSlots := int32(0)
	for v := 0; v < n; v++ {
		row := int64(len(h.D.Out(v)) + len(h.D.In(v)))
		if int64(sh.off[v])+row > math.MaxInt32 {
			panic(fmt.Errorf("model: message plane needs %d+ slots, exceeding the int32 flat-plane capacity %d: host exceeds flat-CSR capacity, use shards (NewShardedEngine)",
				int64(sh.off[v])+row, int64(math.MaxInt32)))
		}
		sh.off[v+1] = sh.off[v] + int32(row)
		maxSlots = max(maxSlots, int32(row))
	}
	sh.dest = make([]int32, sh.off[n])
	for v := 0; v < n; v++ {
		// Walk v's row in letter order; each arc is named by the
		// inverse letter at its peer u.
		outs, ins := h.D.Out(v), h.D.In(v)
		i, j := 0, 0
		for s := sh.off[v]; s < sh.off[v+1]; s++ {
			if i < len(outs) && (j >= len(ins) || outs[i].Label <= ins[j].Label) {
				u := outs[i].To
				sh.dest[s] = sh.off[u] + rowIndex(h.D.Out(u), h.D.In(u), view.Letter{Label: outs[i].Label, In: true})
				i++
			} else {
				u := ins[j].To
				sh.dest[s] = sh.off[u] + rowIndex(h.D.Out(u), h.D.In(u), view.Letter{Label: ins[j].Label})
				j++
			}
		}
	}
	sh.alloc(1, 0)
	return &Engine{h: h, src: hostSource{h: h}, shards: []*shard{sh}, n: int64(n), slots: int64(sh.off[n]), maxSlots: maxSlots}
}

// rowIndex is the position of letter l in the letter-sorted row merged
// from the label-sorted out- and in-rows (out before in on equal
// labels). The caller guarantees l is present.
func rowIndex(outs, ins []digraph.Arc, l view.Letter) int32 {
	below := func(arcs []digraph.Arc, label int) int {
		lo, hi := 0, len(arcs)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); arcs[mid].Label < label {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	if l.In {
		return int32(below(outs, l.Label+1) + below(ins, l.Label))
	}
	return int32(below(outs, l.Label) + below(ins, l.Label))
}

// alloc sizes a shard's arenas (its rows plus nx staging slots), state
// column, worklists and exchange routing over p shards.
func (sh *shard) alloc(p, nx int) {
	// Each pair of double buffers is one allocation split in halves.
	total := int(sh.off[sh.n]) + nx
	w, st := make([]uint64, 2*total), make([]uint8, 2*total)
	sh.wbuf = [2][]uint64{w[:total:total], w[total:]}
	sh.stamp = [2][]uint8{st[:total:total], st[total:]}
	sh.active = make([]int32, 0, sh.n)
	sh.col = make([]uint64, sh.n)
	sh.halted = make([]bool, sh.n)
	sh.xoff = make([]int32, p+1)
	sh.xdst = make([]int32, nx)
}

// NewShardedEngine partitions the source into p contiguous shards and
// resolves every cross-shard arc into the exchange buffers. A p above
// n is capped at n (Shards reports the count in use); a p outside
// 1..MaxShards, or one leaving a shard range past the int32 per-shard
// capacity, is an error returned before anything is allocated. It also
// fails if any single shard's slot count would overflow the int32
// per-shard plane (raise p) or if the source is inconsistent.
func NewShardedEngine(src ShardSource, p int) (*Engine, error) {
	n := src.N()
	if n <= 0 {
		return nil, fmt.Errorf("model: sharded engine needs a non-empty host, have n=%d", n)
	}
	if p < 1 || p > MaxShards {
		return nil, fmt.Errorf("model: shard count %d out of range (want 1..%d)", p, MaxShards)
	}
	if int64(p) > n {
		p = int(n)
	}
	if span := (n + int64(p) - 1) / int64(p); span > math.MaxInt32 {
		return nil, fmt.Errorf("model: %d nodes over %d shards leaves %d+ nodes per shard, past the int32 per-shard capacity %d: raise the shard count",
			n, p, span, int64(math.MaxInt32))
	}
	e := &Engine{src: src, n: n, shards: make([]*shard, p)}

	// Pass 1: ranges, degrees, per-shard slot offsets.
	for i := 0; i < p; i++ {
		lo := int64(i) * n / int64(p)
		hi := int64(i+1) * n / int64(p)
		sh := &shard{lo: lo, hi: hi, n: int32(hi - lo), slotBase: e.slots, errV: -1}
		sh.off = make([]int32, sh.n+1)
		slots := int64(0)
		for v := int32(0); v < sh.n; v++ {
			out, in := src.Degree(lo + int64(v))
			row := int64(out + in)
			slots += row
			if slots > math.MaxInt32 {
				return nil, fmt.Errorf("model: shard %d/%d needs %d+ slots, exceeding the int32 per-shard plane capacity %d: raise the shard count",
					i, p, slots, int64(math.MaxInt32))
			}
			sh.off[v+1] = sh.off[v] + int32(row)
			e.maxSlots = max(e.maxSlots, int32(row))
		}
		e.slots += slots
		e.shards[i] = sh
	}

	// Pass 2: routing. For each slot, locate the peer's slot for the
	// inverse letter; local peers route directly, remote peers get a
	// staging entry. Staging entries are discovered in slot order and
	// then bucketed by destination shard (counting sort), so xoff
	// ranges are contiguous and construction is deterministic.
	var outS, inS, pOut, pIn []ShardArc
	letters := make([]view.Letter, 0, e.maxSlots)
	targets := make([]int64, 0, e.maxSlots)
	type xent struct {
		dshard int32
		dslot  int32
		slot   int32
	}
	for i, sh := range e.shards {
		sh.dest = make([]int32, sh.off[sh.n])
		var cross []xent
		for v := int32(0); v < sh.n; v++ {
			gv := sh.lo + int64(v)
			outS, inS = src.AppendArcs(gv, outS[:0], inS[:0])
			letters, targets = mergeLetters(letters[:0], targets[:0], outS, inS)
			for k, l := range letters {
				s := sh.off[v] + int32(k)
				u := targets[k]
				uj := e.shardOf(u)
				ush := e.shards[uj]
				pOut, pIn = src.AppendArcs(u, pOut[:0], pIn[:0])
				ds, err := peerSlot(pOut, pIn, l.Inv(), gv)
				if err != nil {
					return nil, fmt.Errorf("model: shard source inconsistent at arc (%d,%d) letter %v: %w", gv, u, l, err)
				}
				dslot := ush.off[u-ush.lo] + ds
				if uj == i {
					sh.dest[s] = dslot
				} else {
					cross = append(cross, xent{dshard: int32(uj), dslot: dslot, slot: s})
				}
			}
		}
		if total := int64(sh.off[sh.n]) + int64(len(cross)); total > math.MaxInt32 {
			return nil, fmt.Errorf("model: shard %d/%d needs %d slots with its exchange staging, exceeding the int32 per-shard plane capacity %d: raise the shard count",
				i, p, total, int64(math.MaxInt32))
		}
		sh.alloc(p, len(cross))
		// Bucket the staging entries by destination shard.
		for _, x := range cross {
			sh.xoff[x.dshard+1]++
		}
		for d := 0; d < p; d++ {
			sh.xoff[d+1] += sh.xoff[d]
		}
		fill := append([]int32(nil), sh.xoff[:p]...)
		for _, x := range cross {
			xi := fill[x.dshard]
			fill[x.dshard]++
			sh.xdst[xi] = x.dslot
			sh.dest[x.slot] = sh.off[sh.n] + xi
		}
	}
	return e, nil
}

// shardOf returns the shard index owning global node v. Ranges are
// lo_i = floor(i*n/P), so the arithmetic estimate is off by at most
// one; the loops correct it.
func (e *Engine) shardOf(v int64) int {
	p := len(e.shards)
	i := min(int(v*int64(p)/e.n), p-1)
	for i > 0 && v < e.shards[i].lo {
		i--
	}
	for i+1 < p && v >= e.shards[i+1].lo {
		i++
	}
	return i
}

// N returns the total node count.
func (e *Engine) N() int64 { return e.n }

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Source returns the shard source the plane was built over (an adapter
// of the host for NewEngine), so algorithm wrappers can validate host
// structure and re-derive arcs at extraction time without holding
// their own reference.
func (e *Engine) Source() ShardSource { return e.src }

// WithContext arms cooperative cancellation for this engine's
// subsequent runs (clean and faulty alike): the round loop polls
// ctx.Err() once per round barrier, and a cancelled or
// deadline-expired context aborts the run between rounds with an error
// wrapping ctx.Err() (so callers can errors.Is against
// context.DeadlineExceeded). The persistent workers are released on
// that exit path exactly as on any other, so a cancelled run hands its
// whole worker reservation back mid-run. The poll is one Err call per
// round, so the steady-state round stays allocation-free. A nil ctx
// (the default) disarms the check. Returns e for chaining.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	e.ctx = ctx
	return e
}

// Column returns every node's state word after the last run, in global
// node order: the single shard's own column at P=1 (overwritten by the
// next run), a gathered copy otherwise.
func (e *Engine) Column() []uint64 {
	if len(e.shards) == 1 {
		return e.shards[0].col
	}
	col := make([]uint64, 0, e.n)
	for _, sh := range e.shards {
		col = append(col, sh.col...)
	}
	return col
}

// StateAt returns node v's current state word — random access for
// checkers that cross shard boundaries (VisitStates is the bulk
// path). Only meaningful between runs.
func (e *Engine) StateAt(v int64) uint64 {
	sh := e.shards[e.shardOf(v)]
	return sh.col[v-sh.lo]
}

// VisitStates calls fn for every node in increasing global order with
// the node's final state — the extraction path that never builds a
// full-length column (10^8-node results are consumed streaming).
func (e *Engine) VisitStates(fn func(v int64, state uint64)) {
	for _, sh := range e.shards {
		for v, w := range sh.col {
			fn(sh.lo+int64(v), w)
		}
	}
}

// ShardStats is one shard's observability snapshot, served by
// /metrics on sharded runs.
type ShardStats struct {
	// Shard is the shard index; Lo/Hi its global node range.
	Shard int
	Lo    int64
	Hi    int64
	// Slots is the shard's plane width, ExchangeOut its outgoing
	// staging capacity (resident cross-shard arcs).
	Slots       int64
	ExchangeOut int64
	// Active is the worklist occupancy at the last round barrier;
	// Exchanged counts cross-shard words delivered into the shard
	// since construction. Both are safe to read during a run.
	Active    int64
	Exchanged int64
}

// Stats snapshots every shard's occupancy and exchange counters.
func (e *Engine) Stats() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i, sh := range e.shards {
		out[i] = ShardStats{
			Shard:       i,
			Lo:          sh.lo,
			Hi:          sh.hi,
			Slots:       int64(sh.off[sh.n]),
			ExchangeOut: int64(len(sh.xdst)),
			Active:      sh.activeN.Load(),
			Exchanged:   sh.exchanged.Load(),
		}
	}
	return out
}

// Outbox routes one node's outgoing words into the next round's arena
// (local destinations) or its shard's exchange staging (remote
// destinations). Each worker owns one Outbox for the whole run; the
// engine repoints it at the current shard and node before every Step.
type Outbox struct {
	e    *Engine
	sh   *shard
	v    int32 // shard-local node index
	nxt  int   // arena written this round
	want uint8 // stamp marking next-round messages

	// round and tag contextualise error strings (tag is " [profile]"
	// on faulty runs, "" on clean ones), and the counters accumulate
	// this worker's fault events for the run's FaultReport.
	round     int
	tag       string
	dropped   int64
	duped     int64
	reordered int64
	downSteps int64

	// Per-worker inbox-compaction scratch, pre-sized by the run from
	// the plane's max degree: wdense serves the clean path, fwdense the
	// faulty path at twice that, so every delivery duplicating still
	// fits.
	wdense  []WordMsg
	fwdense []WordMsg

	// A worker writes v for every node it steps; the trailing cache
	// line keeps the next worker's Outbox off this one's hot lines.
	_ [64]byte
}

// fail records a round-stamped send error of the current node, keeping
// the smallest failing node in the shard; the run surfaces the
// globally smallest one after the barrier.
func (ob *Outbox) fail(format string, args ...any) {
	sh, v := ob.sh, ob.v
	err := fmt.Errorf("model: round %d%s: %s", ob.round, ob.tag, fmt.Sprintf(format, args...))
	sh.errMu.Lock()
	if sh.errV < 0 || v < sh.errV {
		sh.errV, sh.err = v, err
	}
	sh.errMu.Unlock()
	ob.e.errFlag.Store(true)
}

// SendWord emits the payload word w on the sender's local incident
// slot (the letter-sorted index: info.Letters[slot] names the arc).
// Sends on absent slots and second sends on one slot in the same round
// are errors reported by the run. There is no letter lookup; the slot
// index addresses the plane directly.
func (ob *Outbox) SendWord(slot int, w uint64) {
	sh := ob.sh
	lo, hi := sh.off[ob.v], sh.off[ob.v+1]
	gv := sh.lo + int64(ob.v)
	if slot < 0 || int32(slot) >= hi-lo {
		ob.fail("node %d sent on absent slot %d (node has %d)", gv, slot, hi-lo)
		return
	}
	d := sh.dest[lo+int32(slot)]
	st := sh.stamp[ob.nxt]
	if st[d] == ob.want {
		ob.fail("node %d sent twice on slot %d", gv, slot)
		return
	}
	sh.wbuf[ob.nxt][d] = w
	st[d] = ob.want
}

// BroadcastWord emits w on every incident slot of the sending node —
// the whole-row fast path of the lane: one pass over the sender's slot
// row, no per-letter lookup and no double-send bookkeeping (it
// overwrites anything already sent this round on those slots; a second
// BroadcastWord in one Step simply wins).
func (ob *Outbox) BroadcastWord(w uint64) {
	sh := ob.sh
	want := ob.want
	nb := sh.wbuf[ob.nxt]
	st := sh.stamp[ob.nxt]
	for _, d := range sh.dest[sh.off[ob.v]:sh.off[ob.v+1]] {
		nb[d] = w
		st[d] = want
	}
}
