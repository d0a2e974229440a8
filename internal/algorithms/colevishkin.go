package algorithms

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/model"
)

// ColeVishkinResult reports a Cole–Vishkin MIS computation on a
// directed cycle, clean or under a fault schedule.
type ColeVishkinResult struct {
	// MIS is the computed vertex set (crashed nodes are never members).
	MIS *model.Solution
	// Rounds is the number of rounds executed: on a clean run the
	// O(log* n) colour-reduction phase plus O(1) cleanup.
	Rounds int
	// Colors is every node's final colour: values 0..2 on a clean run,
	// whatever the desynchronised reduction reached under faults.
	Colors []int
	// Report summarises the injected faults ("clean" on a nil
	// schedule).
	Report *model.FaultReport
	// Violations counts surviving adjacent pairs that are both in the
	// set — independence failures caused by lost coordination.
	Violations int
	// Uncovered counts surviving non-members with no surviving member
	// neighbour — maximality failures (legitimate degradation near
	// crashed regions). Both counts are checked to be 0 on a clean run.
	Uncovered int
}

// The Cole–Vishkin pipeline runs on the typed word lane: the whole
// node state is one packed uint64 and every broadcast is the state
// word with the node-local bit masked off. Layout:
//
//	bits 0..61  colour (initially the identifier)
//	bit 62      state only: the local slot index of the in-arc
//	bit 63      inMIS
//
// Colour and membership travel in one word, so a Step is pure integer
// arithmetic on two uint64 columns — no boxing, no pointer chase.
const (
	cvColorBits = 62
	cvColorMask = uint64(1)<<cvColorBits - 1
	cvPredSlot1 = uint64(1) << 62
	cvMISBit    = uint64(1) << 63
)

// ColeVishkinMIS computes a maximal independent set on a directed
// cycle in the ID model in O(log* id) + O(1) rounds: the classical
// Cole–Vishkin [1986] colour reduction from identifiers to 6 colours,
// the shift-down reduction from 6 to 3 colours, and a 3-round greedy
// sweep turning the colouring into an MIS. This is the algorithm
// behind Fig. 2's separation: it is fast in the ID model, needs Θ(n)
// time in OI, and is impossible in PO.
//
// The host must be a consistently oriented cycle (every node with out-
// and in-degree 1) with unique non-negative identifiers. As is
// standard in the LOCAL model, the nodes know the identifier space
// bound (poly(n)) and hence the reduction-step horizon S.
//
// Execution goes through the word-lane engine; the untyped
// RoundAlgo formulation survives as the reference the differential
// tests pin this path against, byte for byte.
func ColeVishkinMIS(h *model.Host, ids []int) (*ColeVishkinResult, error) {
	return coleVishkin(model.NewEngine(h), h, ids, nil)
}

// ColeVishkinMISOn is the clean ColeVishkinMIS on a caller-provided
// engine. Perfbench only.
func ColeVishkinMISOn(e *model.Engine, h *model.Host, ids []int) (*ColeVishkinResult, error) {
	return coleVishkin(e, h, ids, nil)
}

// coleVishkin is Cole–Vishkin on a materialised host: the pipeline on
// a caller-armed engine under sched (nil: the clean run), with the
// result extracted from the state column into a Solution. A clean run
// must end in a proper 3-colouring whose colour-0..2 sweep is an MIS,
// and anything else is an error. Under a schedule those guarantees
// cannot be promised — dropped colours desynchronise the reduction
// and crashed nodes leave their neighbourhoods uncoordinated — so the
// run returns the degraded output with its survivor-safety counts
// (CVSurvivorSafety) instead of failing.
func coleVishkin(e *model.Engine, h *model.Host, ids []int, sched model.Schedule) (*ColeVishkinResult, error) {
	if !h.D.IsRegularDigraph(1) {
		return nil, errCVHost
	}
	if len(ids) != h.G.N() {
		return nil, fmt.Errorf("algorithms: %d ids for %d nodes", len(ids), h.G.N())
	}
	maxID := 0
	for _, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("algorithms: negative id %d", id)
		}
		maxID = max(maxID, id)
	}
	algo, last, err := coleVishkinAlgo(maxID)
	if err != nil {
		return nil, err
	}
	col, rounds, rep, err := e.RunStates(ids, algo, model.Budget(last+2, sched), sched)
	if err != nil {
		return nil, fmt.Errorf("algorithms: Cole–Vishkin: %w", err)
	}
	res := &ColeVishkinResult{
		MIS:    model.NewSolution(model.VertexKind, h.G.N()),
		Rounds: rounds,
		Colors: make([]int, h.G.N()),
		Report: rep,
	}
	for v, w := range col {
		c := int(w & cvColorMask)
		res.Colors[v] = c
		if sched == nil && c > 2 {
			return nil, fmt.Errorf("algorithms: node %d ended with colour %d", v, c)
		}
		res.MIS.Vertices[v] = w&cvMISBit != 0 && !rep.CrashedNode(v)
	}
	res.Violations, res.Uncovered = CVSurvivorSafety(h, rep, res.MIS)
	if sched == nil && (res.Violations != 0 || res.Uncovered != 0) {
		return nil, fmt.Errorf("algorithms: Cole–Vishkin: clean run not an MIS (%d violations, %d uncovered)",
			res.Violations, res.Uncovered)
	}
	return res, nil
}

// errCVHost rejects a host that is not a consistently oriented cycle.
var errCVHost = errors.New("algorithms: Cole–Vishkin needs a consistently oriented cycle host (e.g. dcycle:<n>)")

// CVSurvivorSafety checks an independent-set solution among the
// surviving (non-crashed) nodes: violations counts surviving
// adjacent member pairs, uncovered counts surviving non-members
// whose surviving neighbours are all non-members. Both are 0 exactly
// when the solution restricted to survivors is an MIS of the
// survivor-induced subgraph.
func CVSurvivorSafety(h *model.Host, rep *model.FaultReport, mis *model.Solution) (violations, uncovered int) {
	g := h.G
	for v := 0; v < g.N(); v++ {
		if rep.CrashedNode(v) {
			continue
		}
		if mis.Vertices[v] {
			for _, u := range g.Neighbors(v) {
				if int(u) > v && !rep.CrashedNode(int(u)) && mis.Vertices[u] {
					violations++
				}
			}
			continue
		}
		covered := false
		for _, u := range g.Neighbors(v) {
			if !rep.CrashedNode(int(u)) && mis.Vertices[u] {
				covered = true
				break
			}
		}
		if !covered {
			uncovered++
		}
	}
	return violations, uncovered
}

// coleVishkinAlgo is the word-lane Cole–Vishkin pipeline for ids in
// [0, maxID], clean or under a fault schedule alike, at every shard count;
// last is its halting round. Every live node broadcasts its colour and
// membership every round:
//
//	rounds 1..steps          — CV recolour on the predecessor's colour
//	rounds steps+1..steps+3  — shift down colour 5, then 4, then 3
//	rounds steps+4..steps+6  — MIS sweep for colour 0, then 1, then 2
//
// The recolour step is bit-parallel: the lowest differing bit against
// the predecessor comes from one XOR and one trailing-zero count
// (guarded to 0 on equal colours, which on a clean run never happens
// but under faults — a dropped colour replaced by the zero word — is
// exactly the untyped reference's behaviour). A dropped message
// leaves the zero word in its place and a node transiently down
// resumes mid-schedule — both degrade the colouring rather than crash
// it, which is what the fault experiments measure. Halting is
// round >= last so a node that was down at the scheduled halting
// round still halts at its next up round (identical to == on clean
// runs).
func coleVishkinAlgo(maxID int) (algo model.WordAlgo, last int, err error) {
	if uint64(maxID) > cvColorMask {
		return algo, 0, fmt.Errorf("algorithms: id %d exceeds the %d-bit colour lane", maxID, cvColorBits)
	}
	steps := cvSteps(maxID)
	last = steps + 6
	return model.WordAlgo{
		Init: func(v int64, info model.NodeInfo) uint64 { return cvInit(info) },
		Step: func(state *uint64, round int, inbox []model.WordMsg, out *model.Outbox) bool {
			return cvStep(state, round, inbox, out, steps, last)
		},
		Out: func(state *uint64) model.Output {
			return model.Output{Member: *state&cvMISBit != 0}
		},
	}, last, nil
}

// cvInit packs a node's starting state: the identifier in the colour
// lane plus the in-arc slot marker. Exactly one of the two
// letter-sorted slots is the in-arc (the predecessor on the oriented
// cycle); remember which.
func cvInit(info model.NodeInfo) uint64 {
	w := uint64(info.ID)
	if info.Letters[1].In {
		w |= cvPredSlot1
	}
	return w
}

// cvStep is one round of the pipeline for a reduction horizon of
// steps rounds halting at last.
func cvStep(state *uint64, round int, inbox []model.WordMsg, out *model.Outbox, steps, last int) bool {
	s := *state
	predSlot := int32(0)
	if s&cvPredSlot1 != 0 {
		predSlot = 1
	}
	// An undelivered direction leaves the zero word: colour 0,
	// not in the MIS — the typed image of the zero cvMsg.
	var pred, succ uint64
	for _, m := range inbox {
		if m.Slot == predSlot {
			pred = m.W
		} else {
			succ = m.W
		}
	}
	color := s & cvColorMask
	switch {
	case round == 0:
		// Nothing received yet; just broadcast below.
	case round <= steps:
		// Bit-parallel Cole–Vishkin reduction against the
		// predecessor.
		i := uint64(0)
		if x := color ^ pred&cvColorMask; x != 0 {
			i = uint64(bits.TrailingZeros64(x))
		}
		color = 2*i | color>>i&1
	case round <= steps+3:
		// Shift down 5 -> then 4 -> then 3.
		target := uint64(5 - (round - steps - 1))
		if color == target {
			color = cvFreeColor(pred&cvColorMask, succ&cvColorMask)
		}
	default:
		// MIS sweep for colour classes 0, 1, 2.
		class := uint64(round - steps - 4)
		if color == class && pred&cvMISBit == 0 && succ&cvMISBit == 0 {
			s |= cvMISBit
		}
	}
	s = s&^cvColorMask | color
	*state = s
	if round >= last {
		return true
	}
	out.BroadcastWord(s &^ cvPredSlot1)
	return false
}

// CVRounds predicts the number of rounds ColeVishkinMIS uses for a
// given maximum identifier: the Θ(log* id) separation curve of the
// Fig. 2 experiment.
func CVRounds(maxID int) int { return cvSteps(maxID) + 6 }

// cvSteps returns a safe number of Cole–Vishkin reduction steps to
// bring colours from {0..maxID} into {0..5}: iterate
// bits -> ceil(log2 bits) + 1 until bits <= 3, plus one extra step to
// settle inside {0..5}.
func cvSteps(maxID int) int {
	bits := 1
	for 1<<bits <= maxID {
		bits++
	}
	steps := 0
	for bits > 3 {
		nb := 1
		for 1<<nb < bits {
			nb++
		}
		bits = nb + 1
		steps++
	}
	return steps + 2
}

// cvFreeColor returns the smallest colour in {0,1,2} unused by the
// two arguments.
func cvFreeColor(a, b uint64) uint64 {
	for c := uint64(0); c <= 2; c++ {
		if c != a && c != b {
			return c
		}
	}
	return 0 // unreachable: two values cannot block three colours
}

// freeColor is cvFreeColor on ints, retained for the untyped
// reference formulation exercised by the differential tests.
func freeColor(a, b int) int {
	for c := 0; c <= 2; c++ {
		if c != a && c != b {
			return c
		}
	}
	return 0 // unreachable: two values cannot block three colours
}

// lowestDifferingBit is the per-bit reference of the bit-parallel
// XOR/trailing-zeros reduction above (0 on equal arguments).
func lowestDifferingBit(a, b int) int {
	x := a ^ b
	if x == 0 {
		return 0
	}
	i := 0
	for x&1 == 0 {
		x >>= 1
		i++
	}
	return i
}

func bitOf(x, i int) int { return (x >> i) & 1 }
