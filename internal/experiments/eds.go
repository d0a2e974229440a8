package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/homog"
	"repro/internal/model"
	"repro/internal/problems"
	"repro/internal/solve"
)

// EDSLowerBound regenerates Theorem 1.6: the local approximability of
// minimum edge dominating set is exactly α0 = 4 − 2/Δ' in all three
// models.
//
// For Δ' = 2 the story is complete and machine-checked: the certified
// PO bound on directed cycles is exactly 3, the one-out-edge PO
// algorithm achieves 3, and an ID algorithm that genuinely exploits
// identifiers (IDGreedyEDS) beats 3 on random identifier assignments —
// but on adversarial, order-respecting identifier assignments (the
// ones Theorem 1.4's machinery constructs) it is forced back to
// ratio 3.
//
// For Δ' = 4 (α0 = 3.5) a search over small 4-regular circulant G0
// candidates reports the best certified PO bound our exact solver can
// reach; girth-4 commutator cycles keep small circulants slightly
// below the asymptotic 3.5, and the shape (bound grows from 3 towards
// 3.5 with Δ') is preserved.
func EDSLowerBound() (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "minimum edge dominating set: α0 = 4 − 2/Δ' transfer",
		Ref:   "Thm 1.6, §1.7",
		Columns: []string{
			"instance", "Δ'", "α0 = 4−2/Δ'", "certified PO bound",
			"PO alg ratio", "ID greedy (random ids)", "ID greedy (adversarial ids)",
		},
	}
	rng := rand.New(rand.NewSource(31))
	p := problems.MinEdgeDominatingSet{}

	for _, n := range []int{9, 12, 15} {
		h, err := directedCycle(n)
		if err != nil {
			return nil, err
		}
		lb, err := core.CertifyPOLowerBound(h, p, 1, 1<<20)
		if err != nil {
			return nil, err
		}
		solPO, err := model.RunPO(h, algorithms.EDSOneOut(), model.EdgeKind)
		if err != nil {
			return nil, err
		}
		rPO, err := problems.Ratio(p, h.G, solPO)
		if err != nil {
			return nil, err
		}
		// Random identifiers: the greedy ID algorithm coordinates.
		randIDs := model.PermIDs(rng, n, 10*n)
		solRand, err := model.RunID(h, randIDs, algorithms.IDGreedyEDS(), model.EdgeKind)
		if err != nil {
			return nil, err
		}
		rRand, err := problems.Ratio(p, h.G, solRand)
		if err != nil {
			return nil, err
		}
		// Adversarial identifiers: increasing along the cycle — the
		// order a homogeneous lift transfers (every interior node sees
		// the same ordered neighbourhood, exactly Theorem 3.3's
		// situation).
		advIDs := make([]int, n)
		for i := range advIDs {
			advIDs[i] = i + 1
		}
		solAdv, err := model.RunID(h, advIDs, algorithms.IDGreedyEDS(), model.EdgeKind)
		if err != nil {
			return nil, err
		}
		rAdv, err := problems.Ratio(p, h.G, solAdv)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("C%d", n), 2, 3.0, lb.BestRatio, rPO, rRand, rAdv)
	}

	// The full Theorem 1.4/Prop. 4.5 instance: a homogeneous lift of C9
	// with order-respecting identifiers drawn from the transferred
	// linear order. The ID algorithm sees a large instance with genuine
	// O(log n)-bit identifiers, yet its ratio stays near the PO bound.
	for _, m := range []int{6, 10} {
		row, err := liftAdversary(m)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}

	// Δ' = 4: best certified bound over small 4-regular circulants with
	// the Cayley orientation (a single view type, so the PO space is
	// the 16 subsets of {a±, b±}).
	bestBound, bestName := 0.0, ""
	for _, cand := range [][3]int{{9, 1, 2}, {11, 1, 3}, {13, 1, 5}, {14, 1, 4}, {15, 1, 4}} {
		n, a, b := cand[0], cand[1], cand[2]
		h, err := cayleyCirculant(n, a, b)
		if err != nil {
			return nil, err
		}
		lb, err := core.CertifyPOLowerBound(h, p, 1, 1<<20)
		if err != nil {
			return nil, err
		}
		if !math.IsInf(lb.BestRatio, 1) && lb.BestRatio > bestBound {
			bestBound = lb.BestRatio
			bestName = fmt.Sprintf("C%d(%d,%d)", n, a, b)
		}
	}
	t.AddRow(bestName, 4, 3.5, bestBound, "-", "-", "-")

	// Non-abelian G0 candidates: Cayley graphs of H_2(m) with two
	// generators can reach girth 5 (circulants cannot — commutator
	// 4-cycles), pushing the certified bound closer to the asymptotic
	// 3.5. The certified ratio on a vertex-transitive labelled digraph
	// is n/γ' (the only feasible PO behaviours select whole generator
	// classes); γ' is upper-bounded by the greedy solver, so the
	// reported value is a safe lower bound on the certified ratio.
	if name, bound, girth, err := nonabelianG0(rng); err != nil {
		return nil, err
	} else if name != "" {
		t.AddRow(name, 4, 3.5, fmt.Sprintf(">= %.4g (girth %d)", bound, girth), "-", "-", "-")
	}

	t.Notes = append(t.Notes,
		"the Δ'=2 row chain is the full Theorem 1.6 pipeline: PO bound certified, upper bound matches, adversarial identifiers collapse the ID advantage to the PO value",
		"adversarial (order-respecting) identifiers yield (n−1)/⌈n/3⌉: the ID algorithm saves exactly one edge at the order's seam and the ratio tends to α0 = 3 — the paper's ε-fraction of exceptional nodes made visible",
		"Δ'=4 circulants have girth 4 (abelian commutators), so small instances certify slightly below the asymptotic 3.5; Suomela [2010]'s G0 achieves it in the limit",
	)
	return t, nil
}

// liftAdversary runs IDGreedyEDS on a materialised homogeneous lift of
// C9 with identifiers respecting the transferred order — the instance
// Proposition 4.5 constructs. The lift of a cycle is a disjoint union
// of cycles, so the optimum is Σ ⌈len/3⌉ over components.
func liftAdversary(m int) ([]string, error) {
	c, err := homog.Search(1, 1, homog.SearchOptions{Seed: 42})
	if err != nil {
		return nil, err
	}
	if c.Level > 2 {
		return []string{fmt.Sprintf("lift of C9 (m=%d)", m), "2", "3", "-", "-", "-", "construction level too large"}, nil
	}
	baseHost, err := directedCycle(9)
	if err != nil {
		return nil, err
	}
	lr, err := core.BuildHomogeneousLift(c, baseHost.D, m, 1<<17)
	if err != nil {
		return nil, err
	}
	ids := make([]int, lr.Host.G.N())
	for v, r := range lr.Rank {
		ids[v] = r + 1
	}
	sol, err := model.RunID(lr.Host, ids, algorithms.IDGreedyEDS(), model.EdgeKind)
	if err != nil {
		return nil, err
	}
	p := problems.MinEdgeDominatingSet{}
	if err := p.Feasible(lr.Host.G, sol); err != nil {
		return nil, fmt.Errorf("experiments: lift adversary infeasible: %w", err)
	}
	opt, err := cycleUnionEDSOpt(lr.Host.G)
	if err != nil {
		return nil, err
	}
	ratio := float64(sol.Size()) / float64(opt)
	return []string{
		fmt.Sprintf("H(%d)×C9 lift (n=%d)", m, lr.Host.G.N()),
		"2", "3", "3 (inherited: PO-invariant under lifts)", "-", "-",
		fmt.Sprintf("%.4g", ratio),
	}, nil
}

// cycleUnionEDSOpt computes γ' of a disjoint union of cycles exactly:
// Σ ⌈len/3⌉. It errors if the graph is not 2-regular.
func cycleUnionEDSOpt(g *graph.Graph) (int, error) {
	if !g.IsRegular(2) {
		return 0, fmt.Errorf("experiments: not a union of cycles")
	}
	opt := 0
	for _, comp := range g.Components() {
		opt += (len(comp) + 2) / 3
	}
	return opt, nil
}

// nonabelianG0 searches small non-abelian Cayley graphs C(H_2(m), S),
// |S| = 2, for girth >= 5 instances and returns the best lower bound
// n/|greedy γ'| on the certified PO ratio, with the instance's girth.
func nonabelianG0(rng *rand.Rand) (string, float64, int, error) {
	fam := group.H(2, 6)
	bestName, bestBound, bestGirth := "", 0.0, 0
	for try := 0; try < 40; try++ {
		s1, s2 := fam.Rand(rng), fam.Rand(rng)
		if fam.IsIdentity(s1) || fam.IsIdentity(s2) || s1.Equal(s2) {
			continue
		}
		gens := []group.Elem{s1, s2}
		if g := fam.GirthUpTo(gens, 4); g != -1 {
			continue // a relation of length <= 4 exists
		}
		cay, err := group.NewCayley(fam, gens)
		if err != nil {
			continue
		}
		mat, _, _, err := digraph.Materialize[string](cay, []string{cay.Node(fam.Identity())}, 1<<11)
		if err != nil {
			continue
		}
		host, err := model.NewHost(mat)
		if err != nil {
			continue
		}
		if !host.G.IsRegular(4) {
			continue
		}
		girth := host.G.Girth()
		greedy := solve.GreedyEdgeDominatingSet(host.G)
		if len(greedy) == 0 {
			continue
		}
		bound := float64(host.G.N()) / float64(len(greedy))
		if bound > bestBound {
			bestBound = bound
			bestGirth = girth
			bestName = fmt.Sprintf("C(H_2(6),S) n=%d", host.G.N())
		}
	}
	return bestName, bestBound, bestGirth, nil
}

// cayleyCirculant builds the directed Cayley circulant of Z_n with
// generators {a, b} as a host: every node has out-arcs labelled 0 (+a)
// and 1 (+b) — one view type everywhere.
func cayleyCirculant(n, a, b int) (*model.Host, error) {
	bl := digraph.NewBuilder(n, 2)
	for v := 0; v < n; v++ {
		bl.MustAddArc(v, (v+a)%n, 0)
		bl.MustAddArc(v, (v+b)%n, 1)
	}
	return model.NewHost(bl.Build())
}

// EDSOptimaOnCycles is a helper used by tests and docs: γ'(C_n) values.
func EDSOptimaOnCycles(ns []int) map[int]int {
	out := make(map[int]int, len(ns))
	for _, n := range ns {
		out[n] = solve.MinEdgeDominatingSetSize(graph.Cycle(n))
	}
	return out
}
