package model

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/view"
)

// Msg is a message travelling along one incident arc, addressed by the
// letter naming the arc at the sending/receiving node.
type Msg struct {
	// L names the arc: at the sender it is the arc the message leaves
	// on; in an inbox it is the arc the message arrived on.
	L view.Letter
	// Data is the payload.
	Data any
}

// NodeInfo is the initial knowledge of a node.
type NodeInfo struct {
	// ID is the node's unique identifier, or -1 in anonymous models.
	ID int
	// Letters names the node's incident arcs: one letter per out-arc
	// (In=false) and per in-arc (In=true).
	Letters []view.Letter
}

// RoundAlgo is a synchronous message-passing algorithm: the classical
// operational formulation of the LOCAL/PO models. Each round every
// node updates its state on the messages received, emits messages for
// the next round, and may halt. A halted node keeps its state and
// sends nothing further.
type RoundAlgo struct {
	// Init returns the initial state.
	Init func(info NodeInfo) any
	// Step consumes the inbox and returns the new state, the outbox,
	// and whether the node halts.
	Step func(state any, round int, inbox []Msg) (any, []Msg, bool)
	// Out extracts the final output from a state.
	Out func(state any) Output
}

// RunRoundsStates is RunRoundsReference under its older name.
// Perfbench only.
func RunRoundsStates(h *Host, ids []int, algo RoundAlgo, maxRounds int) ([]any, int, error) {
	return RunRoundsReference(h, ids, algo, maxRounds)
}

// RunRoundsReference is the sequential reference loop: per-round
// append-built inboxes, every node visited every round. It is the
// executable specification the Engine is differentially tested
// against (and, unlike the engine, it permits duplicate sends on one
// letter and hands out retainable inbox slices).
func RunRoundsReference(h *Host, ids []int, algo RoundAlgo, maxRounds int) ([]any, int, error) {
	n := h.G.N()
	if ids != nil && len(ids) != n {
		return nil, 0, fmt.Errorf("model: %d ids for %d nodes", len(ids), n)
	}
	states := make([]any, n)
	halted := make([]bool, n)
	for v := 0; v < n; v++ {
		info := NodeInfo{ID: -1, Letters: lettersOf(h, v)}
		if ids != nil {
			info.ID = ids[v]
		}
		states[v] = algo.Init(info)
	}
	inboxes := make([][]Msg, n)
	outboxes := make([][]Msg, n)
	round := 0
	for ; round < maxRounds; round++ {
		allHalted := true
		for v := 0; v < n; v++ {
			if halted[v] {
				continue
			}
			allHalted = false
			st, out, done := algo.Step(states[v], round, inboxes[v])
			states[v] = st
			outboxes[v] = out
			halted[v] = done
		}
		if allHalted {
			break
		}
		for v := range inboxes {
			inboxes[v] = nil
		}
		for v := 0; v < n; v++ {
			for _, m := range outboxes[v] {
				to, ok := resolveLetter(h, v, m.L)
				if !ok {
					return nil, 0, fmt.Errorf("model: round %d: node %d sent on absent letter %v", round, v, m.L)
				}
				// The receiver names the same arc by the inverse letter.
				inboxes[to] = append(inboxes[to], Msg{L: m.L.Inv(), Data: m.Data})
			}
			outboxes[v] = nil
		}
	}
	for v := 0; v < n; v++ {
		if !halted[v] {
			return nil, 0, fmt.Errorf("model: node %d did not halt within %d rounds", v, maxRounds)
		}
	}
	return states, round, nil
}

// lettersOf enumerates the letters naming v's incident arcs.
func lettersOf(h *Host, v int) []view.Letter {
	var ls []view.Letter
	for _, a := range h.D.Out(v) {
		ls = append(ls, view.Letter{Label: a.Label})
	}
	for _, a := range h.D.In(v) {
		ls = append(ls, view.Letter{Label: a.Label, In: true})
	}
	return ls
}

// GatherState is the state of the GatherViews full-information
// algorithm; after t rounds Tree is the node's depth-t view.
type GatherState struct {
	letters []view.Letter
	// Tree is the view gathered so far.
	Tree *view.Tree
}

// GatherViews is the canonical full-information algorithm: after r
// rounds each node's state holds exactly its radius-r view tree. It
// witnesses the equivalence of the round-based formulation with the
// ball/view formulation of Section 2.2 (equation (1)): any r-round
// message-passing algorithm can be simulated by gathering the view and
// post-processing it locally.
func GatherViews(r int) RoundAlgo {
	return RoundAlgo{
		Init: func(info NodeInfo) any {
			return &GatherState{letters: info.Letters, Tree: view.Leaf()}
		},
		Step: func(state any, round int, inbox []Msg) (any, []Msg, bool) {
			s := state.(*GatherState)
			if round > 0 && len(inbox) > 0 {
				// Assemble the depth-(round) view from the neighbours'
				// depth-(round-1) views. A message that arrived on the
				// arc we name L was sent by a neighbour that names the
				// same arc L.Inv(); the neighbour's walk back across
				// this arc starts with letter L.Inv() at the
				// neighbour, so that child is pruned (non-backtracking).
				// Faulty schedules may duplicate deliveries, so repeat
				// letters keep only their first message (NewTree
				// requires distinct letters); a fully starved inbox
				// keeps the stale view instead of collapsing to a leaf.
				// On a clean run neither case arises and the assembly
				// is the classical one.
				children := make([]view.Child, 0, len(inbox))
				for _, m := range inbox {
					dup := false
					for _, c := range children {
						if c.L == m.L {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
					children = append(children, view.Child{L: m.L, T: pruneChild(m.Data.(*view.Tree), m.L.Inv())})
				}
				s.Tree = view.NewTree(children)
			}
			if round >= r {
				return s, nil, true
			}
			out := make([]Msg, 0, len(s.letters))
			for _, l := range s.letters {
				out = append(out, Msg{L: l, Data: s.Tree})
			}
			return s, out, false
		},
		Out: func(state any) Output { return Output{} },
	}
}

// pruneChild returns t without its child labelled drop (t itself when
// the letter is absent).
func pruneChild(t *view.Tree, drop view.Letter) *view.Tree {
	if _, ok := t.Child(drop); !ok {
		return t
	}
	kids := make([]view.Child, 0, t.NumChildren()-1)
	for _, c := range t.Children() {
		if c.L == drop {
			continue
		}
		kids = append(kids, c)
	}
	return view.NewTree(kids)
}

// gatherScratch is the worker-local assembly state of GatheredTrees:
// one buffer for the node under assembly and one for the pruned
// neighbour views, both interned copy-on-miss so repeated view types
// cost no allocation.
type gatherScratch struct {
	kids   []view.Child
	pruned []view.Child
}

// GatheredTrees returns each node's radius-r view tree, computed by
// the level-synchronous assembly that GatherViews performs by message
// passing: after round t every node's tree is assembled from its
// neighbours' round-(t-1) trees with the backtracking child pruned.
// Rounds are barriers; within a round the per-node assembly is
// data-parallel with worker-local scratch (each node writes only its
// own slot, and the interned constructors are concurrency-safe), so
// the result is byte-identical to the sequential simulation — a
// property the differential tests pin down against both
// RunRoundsReference and per-node view.Build.
func GatheredTrees(h *Host, r int) ([]*view.Tree, error) {
	levels, err := GatheredTreesAll(h, r)
	if err != nil {
		return nil, err
	}
	return levels[r], nil
}

// GatheredTreesAll is the layered form of GatheredTrees: every node's
// view tree at every radius t = 0..rmax (result[t][v]), from the one
// level-synchronous pass. The per-round levels are exactly the
// intermediate states of the gathering algorithm, so the multi-radius
// gather costs the same single pass the deepest radius alone does —
// the view-side analogue of order.SweepMeasureAll.
func GatheredTreesAll(h *Host, rmax int) ([][]*view.Tree, error) {
	n := h.G.N()
	cur := make([]*view.Tree, n)
	for v := range cur {
		cur[v] = view.Leaf()
	}
	levels := make([][]*view.Tree, rmax+1)
	levels[0] = cur
	for round := 1; round <= rmax; round++ {
		nxt := make([]*view.Tree, n)
		par.ForScratch(n,
			func() *gatherScratch { return &gatherScratch{} },
			func(v int, s *gatherScratch) {
				kids := s.kids[:0]
				for _, a := range h.D.Out(v) {
					l := view.Letter{Label: a.Label}
					kids = append(kids, view.Child{L: l, T: pruneChildWith(s, cur[a.To], l.Inv())})
				}
				for _, a := range h.D.In(v) {
					l := view.Letter{Label: a.Label, In: true}
					kids = append(kids, view.Child{L: l, T: pruneChildWith(s, cur[a.To], l.Inv())})
				}
				s.kids = kids
				nxt[v] = view.NewTreeScratch(kids)
			})
		levels[round] = nxt
		cur = nxt
	}
	return levels, nil
}

// pruneChildWith is pruneChild assembling into the worker's scratch
// buffer (interned copy-on-miss).
func pruneChildWith(s *gatherScratch, t *view.Tree, drop view.Letter) *view.Tree {
	if _, ok := t.Child(drop); !ok {
		return t
	}
	kids := s.pruned[:0]
	for _, c := range t.Children() {
		if c.L != drop {
			kids = append(kids, c)
		}
	}
	s.pruned = kids
	return view.NewTreeScratch(kids)
}

// SimulatePO runs any PO algorithm operationally: gather the radius-r
// view by message passing, then apply the algorithm's view function.
// By equation (1) this is semantically identical to RunPO.
func SimulatePO(h *Host, alg PO, kind Kind) (*Solution, error) {
	trees, err := GatheredTrees(h, alg.Radius())
	if err != nil {
		return nil, err
	}
	sol := NewSolution(kind, h.G.N())
	for v, t := range trees {
		if err := applyPOOut(sol, h, v, alg.EvalPO(t)); err != nil {
			return nil, err
		}
	}
	return sol, nil
}

// gatherAlgo is GatherViews on the word lane. A tree does not fit in a
// word, so the lane carries column handles: each node's state word and
// each message word is the node's global index, and the algorithm
// keeps everything else in its own per-node columns — the letter rows
// (copied from Init's scratch into one flat column), two round-parity
// tree columns (the round-r assembly reads trees[r&1], which round
// r-1's senders wrote, and publishes into trees[(r+1)&1]; distinct
// parities keep same-round reads and writes on different arrays, so
// workers never race), and final[v], node v's latest assembled view for
// extraction after the run. Assembly order, duplicate-letter dedup and
// the starved-inbox stale-view rule mirror GatherViews exactly, which
// the differential tests pin down.
func gatherAlgo(n, slots int64, r int) (WordAlgo, []*view.Tree) {
	var trees [2][]*view.Tree
	trees[0] = make([]*view.Tree, n)
	trees[1] = make([]*view.Tree, n)
	final := make([]*view.Tree, n)
	letters := make([]view.Letter, 0, slots)
	loff := make([]int64, n+1)
	algo := WordAlgo{
		Init: func(v int64, info NodeInfo) uint64 {
			letters = append(letters, info.Letters...)
			loff[v+1] = int64(len(letters))
			final[v] = view.Leaf()
			return uint64(v)
		},
		Step: func(st *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			v := *st
			t := final[v]
			if round > 0 && len(inbox) > 0 {
				cur := trees[round&1]
				ls := letters[loff[v]:loff[v+1]]
				children := make([]view.Child, 0, len(inbox))
				for _, m := range inbox {
					// Duplicated deliveries repeat a slot; keep the first.
					l := ls[m.Slot]
					dup := false
					for _, c := range children {
						if c.L == l {
							dup = true
							break
						}
					}
					if !dup {
						children = append(children, view.Child{L: l, T: pruneChild(cur[m.W], l.Inv())})
					}
				}
				t = view.NewTree(children)
				final[v] = t
			}
			if round >= r {
				return true
			}
			trees[(round+1)&1][v] = t
			out.BroadcastWord(v)
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
	return algo, final
}

// Gather runs the radius-r full-information algorithm of GatherViews
// on e's word lane under sched and returns every node's gathered view,
// the number of rounds and the fault report. A nil schedule is the
// clean run, whose views equal view.Build's radius-r trees; under a
// schedule each view is whatever fragments survived it, and crashed
// nodes keep the last view they assembled. maxRounds bounds the run:
// Budget(r+2, sched) leaves room for nodes a schedule keeps
// transiently down, since a down node halts only at its first up
// round at or after the radius. The run polls e's context at every
// round barrier. The trees live outside the engine's state column, so
// a gather run cannot be checkpointed or resumed: an engine armed with
// a Checkpointer or a snapshot is refused.
func Gather(e *Engine, r, maxRounds int, sched Schedule) ([]*view.Tree, int, *FaultReport, error) {
	if e.ck != nil || e.resume != nil {
		return nil, 0, nil, fmt.Errorf("model: gather keeps its views outside the state column and cannot be checkpointed or resumed")
	}
	algo, final := gatherAlgo(e.n, e.slots, r)
	rounds, rep, err := e.Run(nil, algo, maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	return final, rounds, rep, nil
}

// ViewTypes counts the distinct views among the nodes rep does not
// mark crashed. Views are hash-consed, so distinct types are distinct
// pointers.
func ViewTypes(trees []*view.Tree, rep *FaultReport) int {
	types := map[*view.Tree]bool{}
	for v, t := range trees {
		if !rep.CrashedNode(v) {
			types[t] = true
		}
	}
	return len(types)
}

// SimulatePORounds is SimulatePO driven end-to-end through the round
// engine under sched: the radius-r view is gathered by actual message
// passing (Gather, with Budget(r+2, sched) rounds) and the algorithm's
// view function is applied to the final views. On a nil schedule the
// result coincides with RunPO and SimulatePO by equation (1), which
// the differential tests pin down. Under a schedule each node's
// "view" is whatever fragments survived, and crashed nodes produce no
// output (their vertices and incident-edge selections are simply
// absent from the solution).
func SimulatePORounds(h *Host, alg PO, kind Kind, sched Schedule) (*Solution, *FaultReport, error) {
	r := alg.Radius()
	trees, _, rep, err := Gather(NewEngine(h), r, Budget(r+2, sched), sched)
	if err != nil {
		return nil, nil, err
	}
	sol := NewSolution(kind, h.G.N())
	for v, t := range trees {
		if rep.CrashedNode(v) {
			continue
		}
		if err := applyPOOut(sol, h, v, alg.EvalPO(t)); err != nil {
			return nil, nil, err
		}
	}
	return sol, rep, nil
}

// applyPOOut merges one node's PO output into the solution.
func applyPOOut(sol *Solution, h *Host, v int, out Output) error {
	if sol.Kind == VertexKind {
		sol.Vertices[v] = out.Member
		return nil
	}
	for _, l := range out.Letters {
		to, ok := resolveLetter(h, v, l)
		if !ok {
			return fmt.Errorf("model: node %d selected absent letter %v", v, l)
		}
		sol.Edges[graph.NewEdge(v, to)] = true
	}
	return nil
}
