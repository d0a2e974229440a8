package algorithms

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/model"
)

// This file runs the two flagship operational algorithms on implicit
// shard sources (model.NewShardedEngine), where the host is never
// materialised. The word algorithms are the very ones the host paths
// run — coleVishkinAlgo and proposalAlgo — on the same plane; what
// changes is the bookkeeping around the run: identifiers come from an
// IDFunc instead of a slice, proposals are drawn inside the sequential
// Init sweep from the source's arc rows instead of a pre-drawn table,
// and results are extracted streaming (histograms and counts, never an
// n-length column), so 10^8-node hosts stay within per-shard bounded
// memory.

// ShardedCVResult reports a Cole–Vishkin run on a shard source.
// Per-node colours and membership stay inside the engine (decode them
// with CVState under VisitStates); the result carries the aggregates
// the experiments plot.
type ShardedCVResult struct {
	// Rounds is the number of rounds actually executed.
	Rounds int
	// MISSize counts members among surviving nodes.
	MISSize int64
	// Colors is the final colour histogram over surviving nodes.
	Colors [3]int64
	// Report summarises injected faults ("clean" on a nil schedule).
	Report *model.FaultReport
	// Violations and Uncovered are the survivor-safety counts of
	// CVSurvivorSafetySharded. On a clean run both are checked to be 0
	// before the result is returned.
	Violations int64
	Uncovered  int64
}

// CVState decodes a packed Cole–Vishkin state word into its colour
// and membership — the VisitStates companion for streaming result
// consumers.
func CVState(w uint64) (color int, inMIS bool) {
	return int(w & cvColorMask), w&cvMISBit != 0
}

// ColeVishkinMISSharded runs Cole–Vishkin MIS clean on an engine
// whose source is a consistently oriented cycle. Perfbench only.
func ColeVishkinMISSharded(se *model.Engine, ids model.IDFunc, maxID int) (*ShardedCVResult, error) {
	return coleVishkinSharded(se, ids, maxID, nil)
}

// coleVishkinSharded is Cole–Vishkin on the engine's shard source
// under sched (nil: the clean run), with the streaming extraction. ids
// assigns the global identifiers (model.SeededIDs needs no
// materialised table) and maxID bounds the id space — for SeededIDs
// over n nodes that is n-1. A clean run must end in colours {0,1,2}
// forming an MIS, and anything else is an error; under a schedule the
// run degrades instead of failing and reports the survivor-safety
// counts.
func coleVishkinSharded(se *model.Engine, ids model.IDFunc, maxID int, sched model.Schedule) (*ShardedCVResult, error) {
	if ids == nil {
		return nil, fmt.Errorf("algorithms: sharded Cole–Vishkin needs identifiers (see model.SeededIDs)")
	}
	if maxID < 0 {
		return nil, fmt.Errorf("algorithms: negative id bound %d", maxID)
	}
	algo, last, err := coleVishkinAlgo(maxID)
	if err != nil {
		return nil, err
	}
	src := se.Source()
	for v, n := int64(0), src.N(); v < n; v++ {
		if out, in := src.Degree(v); out != 1 || in != 1 {
			return nil, errCVHost
		}
	}
	rounds, rep, err := se.Run(ids, algo, model.Budget(last+2, sched), sched)
	if err != nil {
		return nil, fmt.Errorf("algorithms: sharded Cole–Vishkin: %w", err)
	}
	res := &ShardedCVResult{Rounds: rounds, Report: rep}
	crashed := crashedOf(rep)
	var bad int64 = -1
	se.VisitStates(func(v int64, w uint64) {
		if crashed != nil && crashed(v) {
			return
		}
		c, member := CVState(w)
		if member {
			res.MISSize++
		}
		if c <= 2 {
			res.Colors[c]++
		} else if bad < 0 {
			bad = v
		}
	})
	if sched == nil && bad >= 0 {
		c, _ := CVState(se.StateAt(bad))
		return nil, fmt.Errorf("algorithms: node %d ended with colour %d", bad, c)
	}
	res.Violations, res.Uncovered = CVSurvivorSafetySharded(se, crashed)
	if sched == nil && (res.Violations != 0 || res.Uncovered != 0) {
		return nil, fmt.Errorf("algorithms: sharded Cole–Vishkin: clean run not an MIS (%d violations, %d uncovered)",
			res.Violations, res.Uncovered)
	}
	return res, nil
}

// crashedOf is the streaming crash predicate of a sharded run's
// report: nil when no node crashed, so the survivor checks skip it.
func crashedOf(rep *model.FaultReport) func(int64) bool {
	if rep.NumCrashed == 0 {
		return nil
	}
	return func(v int64) bool { return rep.CrashedNode(int(v)) }
}

// CVSurvivorSafetySharded is CVSurvivorSafety streaming over a shard
// source: violations counts surviving adjacent member pairs,
// uncovered counts surviving non-members with no surviving member
// neighbour. A nil crashed predicate means every node survived.
func CVSurvivorSafetySharded(se *model.Engine, crashed func(int64) bool) (violations, uncovered int64) {
	src := se.Source()
	var outS, inS []model.ShardArc
	for v, n := int64(0), src.N(); v < n; v++ {
		if crashed != nil && crashed(v) {
			continue
		}
		_, member := CVState(se.StateAt(v))
		outS, inS = src.AppendArcs(v, outS[:0], inS[:0])
		covered := false
		for _, arcs := range [2][]model.ShardArc{outS, inS} {
			for _, a := range arcs {
				u := a.To
				if crashed != nil && crashed(u) {
					continue
				}
				if _, um := CVState(se.StateAt(u)); um {
					covered = true
					if member && u > v {
						violations++
					}
				}
			}
		}
		if !member && !covered {
			uncovered++
		}
	}
	return violations, uncovered
}

// ShardedMatchingResult reports a randomized-matching run on the
// sharded plane. The selected edges stay inside the engine (stream
// them with VisitShardedMatching); the result carries the aggregates.
type ShardedMatchingResult struct {
	// Proposals counts nodes that drew a proposal (non-isolated).
	Proposals int64
	// Matched counts distinct selected edges among survivors.
	Matched int64
	// Conflicts counts surviving vertices incident to more than one
	// selected edge — verified 0 under every schedule, not assumed.
	Conflicts int64
	// Report summarises injected faults ("clean" on a nil schedule).
	Report *model.FaultReport
}

// RandomizedMatchingSharded runs the one-round mutual-proposal
// matching clean on an engine's shard source. Perfbench only.
func RandomizedMatchingSharded(se *model.Engine, rng *rand.Rand) (*ShardedMatchingResult, error) {
	return randomizedMatchingSharded(se, rng, nil)
}

// randomizedMatchingSharded is the matching on the engine's shard
// source under sched (nil: the clean run), with the streaming
// extraction. Proposals are drawn from rng inside the engine's
// sequential global-order Init sweep — the same stream, in the same
// order, as drawProposals — and each node picks uniformly among its
// neighbours in ascending-id order, so for the same seed the selected
// edge set equals the host path's. The host must be simple (at most
// one arc between any node pair). Losses shrink the matching, never
// corrupt it, and edges with a crashed endpoint are excluded.
func randomizedMatchingSharded(se *model.Engine, rng *rand.Rand, sched model.Schedule) (*ShardedMatchingResult, error) {
	_, rep, err := se.Run(nil, proposalAlgo(streamProposals(se.Source(), rng)), model.Budget(matchingRounds+1, sched), sched)
	if err != nil {
		return nil, fmt.Errorf("algorithms: sharded randomized matching: %w", err)
	}
	res := &ShardedMatchingResult{Report: rep}
	res.Proposals, res.Matched, res.Conflicts = shardedMatchingTally(se, crashedOf(rep), nil)
	return res, nil
}

// VisitShardedMatching streams the selected matching edges as (u, v)
// pairs with u < v, each exactly once, excluding edges with a crashed
// endpoint (nil crashed means every node survived).
func VisitShardedMatching(se *model.Engine, crashed func(int64) bool, visit func(u, v int64)) {
	shardedMatchingTally(se, crashed, visit)
}

// streamProposals is the Init of the streaming matching: it draws each
// node's proposal from rng as the engine's sequential global-order
// Init sweep reaches it (so the rng stream is schedule- and
// shard-independent). The drawn neighbour is the rng.Intn(d)-th in
// ascending-id order, matching drawProposals over sorted CSR
// adjacency.
func streamProposals(src model.ShardSource, rng *rand.Rand) func(v int64, info model.NodeInfo) uint64 {
	var outS, inS []model.ShardArc
	var ts, sorted []int64
	return func(v int64, info model.NodeInfo) uint64 {
		out, in := src.Degree(v)
		d := out + in
		if d == 0 {
			return 0
		}
		outS, inS = src.AppendArcs(v, outS[:0], inS[:0])
		ts = mergeTargets(ts[:0], outS, inS)
		sorted = append(sorted[:0], ts...)
		slices.Sort(sorted)
		u := sorted[rng.Intn(d)]
		return uint64(slices.Index(ts, u)) | mPropose
	}
}

// mergeTargets merges label-sorted out- and in-arc rows into slot
// (letter) order — the engine's merge, out before in on equal labels
// — recording each slot's peer.
func mergeTargets(ts []int64, out, in []model.ShardArc) []int64 {
	i, j := 0, 0
	for i < len(out) || j < len(in) {
		if i < len(out) && (j >= len(in) || out[i].Label <= in[j].Label) {
			ts = append(ts, out[i].To)
			i++
		} else {
			ts = append(ts, in[j].To)
			j++
		}
	}
	return ts
}

// shardedMatchingTally streams the matching out of the engine state:
// proposals, distinct surviving selected edges (each counted at its
// smaller endpoint; the larger endpoint defers when its partner
// already selected the same edge) and the per-vertex conflict check.
// Per node it re-derives the slot-order peer row from the source —
// the price of never materialising an n-length proposal table.
func shardedMatchingTally(se *model.Engine, crashed func(int64) bool, visit func(u, v int64)) (proposals, matched, conflicts int64) {
	src := se.Source()
	var outS, inS []model.ShardArc
	var ts []int64
	peer := func(v int64, slot int32) int64 {
		outS, inS = src.AppendArcs(v, outS[:0], inS[:0])
		ts = mergeTargets(ts[:0], outS, inS)
		return ts[slot]
	}
	// selected reports whether u selected the edge {u, w}: u proposed
	// and matched on an arc whose peer is w.
	selected := func(u, w int64) bool {
		s := se.StateAt(u)
		return s&mMatched != 0 && peer(u, int32(s&mSlotMask)) == w
	}
	var outV, inV []model.ShardArc
	var tsV []int64
	se.VisitStates(func(v int64, s uint64) {
		if s&mPropose != 0 {
			proposals++
		}
		dead := crashed != nil && crashed(v)
		if dead {
			return
		}
		outV, inV = src.AppendArcs(v, outV[:0], inV[:0])
		tsV = mergeTargets(tsV[:0], outV, inV)
		// Incident selected edges of v: its own selection plus any
		// neighbour's selection of v. The protocol keeps this at most
		// one edge; count to verify rather than assume.
		incident := int64(0)
		var own int64 = -1
		if s&mMatched != 0 {
			own = tsV[s&mSlotMask]
			if crashed == nil || !crashed(own) {
				incident++
				if v < own {
					matched++
					if visit != nil {
						visit(v, own)
					}
				} else if !selected(own, v) {
					// The partner never selected this edge (its own
					// direction was lost), so the smaller endpoint did
					// not count it — count it here.
					matched++
					if visit != nil {
						visit(own, v)
					}
				}
			}
		}
		for _, u := range tsV {
			if u == own || (crashed != nil && crashed(u)) {
				continue
			}
			if selected(u, v) {
				incident++
			}
		}
		if incident > 1 {
			conflicts++
		}
	})
	return proposals, matched, conflicts
}
