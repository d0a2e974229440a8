package algorithms

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/view"
)

// RandomizedMatching is the Section 6.5 demonstration: equipping nodes
// with private randomness strictly increases the power of local
// algorithms. Deterministically, no constant-factor matching
// approximation exists in any of ID/OI/PO (Section 1.4, certified by
// the lower-bound engine on symmetric cycles, where every feasible
// deterministic behaviour outputs the empty matching). With
// randomness, one round of mutual proposals already finds a matching
// of expected size Ω(m/Δ²): each node proposes to a uniformly random
// neighbour, and an edge joins the matching when its endpoints propose
// to each other.
//
// The execution is genuinely operational: the proposals are drawn
// sequentially in node order (so the rng stream is schedule-independent)
// and then exchanged in one synchronous round on the word lane of the
// round plane — each node sends along the arc to its
// chosen neighbour and an edge is matched exactly when both endpoints
// hear a proposal on the arc they proposed along.
//
// The returned solution is a valid matching. Each edge {u, v} is
// matched with probability 1/(deg(u)·deg(v)), so the expected size is
// at least m/Δ²; on d-regular graphs E|M| >= n/(2d) against
// ν(G) <= n/2 — expected ratio at most d, a constant for bounded
// degree, which no deterministic local algorithm can achieve.
func RandomizedMatching(h *model.Host, rng *rand.Rand) *model.Solution {
	return mustMatching(model.NewEngine(h), h, rng)
}

// RandomizedMatchingOn is the clean RandomizedMatching on a
// caller-provided engine. Perfbench only.
func RandomizedMatchingOn(e *model.Engine, h *model.Host, rng *rand.Rand) (*model.Solution, error) {
	res, err := randomizedMatching(e, h, rng, nil)
	if err != nil {
		return nil, err
	}
	return res.Matching, nil
}

// MatchingResult reports a randomized-matching run, clean or under a
// fault schedule.
type MatchingResult struct {
	// Matching is the selected edge set, restricted to edges whose
	// endpoints both survived.
	Matching *model.Solution
	// Report summarises the injected faults ("clean" on a nil
	// schedule).
	Report *model.FaultReport
	// Conflicts counts vertices incident to more than one selected
	// edge. The proposal protocol keeps this 0 under every schedule —
	// each node only ever selects the one edge it proposed — and the
	// checker verifies that safety property rather than assuming it.
	Conflicts int
}

// matchingRounds is the proposal protocol's length: one round to
// propose, one to hear the answers.
const matchingRounds = 2

// Word layout of the proposal protocol's packed state:
//
//	bits 0..31  the proposed arc's local slot index
//	bit 32      propose (unset on isolated nodes: state stays 0)
//	bit 33      sent — the proposal actually left the node (a node
//	            transiently down in round 0 never sends, so it
//	            cannot match)
//	bit 34      matched — a mutual proposal
const (
	mSlotMask = uint64(1)<<32 - 1
	mPropose  = uint64(1) << 32
	mSent     = uint64(1) << 33
	mMatched  = uint64(1) << 34
)

// proposalAlgo is the one-round mutual-proposal exchange, for every
// input: init draws or looks up node v's proposal and returns its
// packed state (0 on isolated nodes). A node matches when a proposal
// arrives on the slot it itself proposed (and sent) along; on a faulty
// plane one or both directions may be lost, but the selected edge set
// stays a matching because each node only ever selects the single edge
// it proposed. The payload word is irrelevant — arrival alone carries
// "I propose to you".
func proposalAlgo(init func(v int64, info model.NodeInfo) uint64) model.WordAlgo {
	return model.WordAlgo{
		Init: init,
		Step: func(state *uint64, round int, inbox []model.WordMsg, out *model.Outbox) bool {
			s := *state
			if round == 0 {
				if s&mPropose != 0 {
					out.SendWord(int(s&mSlotMask), 1)
					*state = s | mSent
				}
				return false
			}
			if s&mPropose != 0 && s&mSent != 0 {
				slot := int32(s & mSlotMask)
				for _, m := range inbox {
					if m.Slot == slot {
						*state = s | mMatched
					}
				}
			}
			return true
		},
		Out: func(*uint64) model.Output { return model.Output{} },
	}
}

// slotOf locates l in a letter-sorted slot row (the typed NodeInfo
// letter order). The caller guarantees presence: every proposal
// letter was resolved from a real arc.
func slotOf(letters []view.Letter, l view.Letter) int {
	lo, hi := 0, len(letters)
	for lo < hi {
		mid := (lo + hi) >> 1
		if letters[mid].Less(l) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mustMatching is the clean matching on an engine that cannot fail.
func mustMatching(e *model.Engine, h *model.Host, rng *rand.Rand) *model.Solution {
	res, err := randomizedMatching(e, h, rng, nil)
	if err != nil {
		// Unreachable on an uncancellable engine: every slot was
		// resolved from a real arc and each node sends at most once.
		panic(fmt.Sprintf("algorithms: randomized matching round: %v", err))
	}
	return res.Matching
}

// randomizedMatching is the matching on a materialised host: the
// sequentially pre-drawn proposals exchanged on a caller-armed engine
// under sched (nil: the clean run), extracted from the state column
// into a Solution. A dropped direction loses at most that edge, so the
// output remains a matching — losses shrink it, they never corrupt it
// — and edges with a crashed endpoint are excluded. The same rng
// stream proposes identically under every schedule.
func randomizedMatching(e *model.Engine, h *model.Host, rng *rand.Rand, sched model.Schedule) (*MatchingResult, error) {
	g := h.G
	n := g.N()
	// Init draws each node's proposal in increasing node order, keeping
	// the rng stream off the parallel rounds (and off the fault
	// schedule: the same seed proposes identically under every
	// profile), and converts the drawn neighbour to its local slot in
	// the letter-sorted row.
	proposal := make([]int, n)
	algo := proposalAlgo(func(v int64, info model.NodeInfo) uint64 {
		proposal[v] = -1
		d := g.Degree(int(v))
		if d == 0 {
			return 0
		}
		proposal[v] = int(g.Neighbors(int(v))[rng.Intn(d)])
		return uint64(slotOf(info.Letters, letterTo(h, int(v), proposal[v]))) | mPropose
	})
	col, _, rep, err := e.RunStates(nil, algo, model.Budget(matchingRounds+1, sched), sched)
	if err != nil {
		return nil, fmt.Errorf("algorithms: randomized matching: %w", err)
	}
	sol := model.NewSolution(model.EdgeKind, n)
	for v := 0; v < n; v++ {
		if col[v]&mMatched != 0 && !rep.CrashedNode(v) && !rep.CrashedNode(proposal[v]) {
			sol.Edges[graph.NewEdge(v, proposal[v])] = true
		}
	}
	return &MatchingResult{Matching: sol, Report: rep, Conflicts: MatchingConflicts(n, sol)}, nil
}

// letterTo returns the letter naming the arc between v and its
// neighbour u at v.
func letterTo(h *model.Host, v, u int) view.Letter {
	for _, a := range h.D.Out(v) {
		if a.To == u {
			return view.Letter{Label: a.Label}
		}
	}
	for _, a := range h.D.In(v) {
		if a.To == u {
			return view.Letter{Label: a.Label, In: true}
		}
	}
	panic(fmt.Sprintf("algorithms: no arc between neighbours %d and %d", v, u))
}

// RandomizedMatchingTrials runs the one-round proposal matching many
// times and reports the average matching size — the in-expectation
// guarantee made measurable. All trials share one engine, so only the
// first pays for the message plane.
func RandomizedMatchingTrials(h *model.Host, trials int, rng *rand.Rand) float64 {
	e := model.NewEngine(h)
	total := 0
	for i := 0; i < trials; i++ {
		total += mustMatching(e, h, rng).Size()
	}
	return float64(total) / float64(trials)
}

// MatchingConflicts counts vertices incident to two or more selected
// edges — 0 exactly when the edge set is a matching.
func MatchingConflicts(n int, sol *model.Solution) int {
	deg := make([]int, n)
	for e := range sol.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	conflicts := 0
	for _, d := range deg {
		if d > 1 {
			conflicts++
		}
	}
	return conflicts
}
