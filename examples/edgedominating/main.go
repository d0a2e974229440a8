// Edge dominating set: the Theorem 1.6 story end to end.
//
// The paper settles the local approximability of minimum edge
// dominating set at α0 = 4 − 2/Δ' by lifting a PO-model lower bound to
// the ID model. This example replays the whole argument for Δ = 2
// (α0 = 3) with machine-checked steps:
//
//  1. certify (by exhausting all radius-1 PO algorithms) that no PO
//     algorithm beats ratio 3 on the symmetric directed cycle;
//  2. show the one-out-edge PO algorithm achieves 3 — the bound is
//     tight;
//  3. show an ID algorithm that uses identifiers beats 3 on friendly
//     identifier assignments…
//  4. …but on adversarial, order-respecting identifiers (what the
//     homogeneous-lift machinery of Theorems 3.3/4.1 constructs) it is
//     forced back to the PO value as n grows.
//
// Run: go run ./examples/edgedominating
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/digraph"
	"repro/internal/model"
	"repro/internal/problems"
)

func main() {
	p := problems.MinEdgeDominatingSet{}
	rng := rand.New(rand.NewSource(2012))

	fmt.Println("== Theorem 1.6 for Δ = 2: α0 = 4 − 2/Δ' = 3 ==")
	for _, n := range []int{9, 15, 30, 60} {
		h := directedCycle(n)

		// (1) Certified PO lower bound.
		lb, err := core.CertifyPOLowerBound(h, p, 1, 1<<20)
		if err != nil {
			log.Fatal(err)
		}

		// (2) The PO upper bound.
		solPO, err := model.RunPO(h, algorithms.EDSOneOut(), model.EdgeKind)
		if err != nil {
			log.Fatal(err)
		}
		rPO, err := problems.Ratio(p, h.G, solPO)
		if err != nil {
			log.Fatal(err)
		}

		// (3) ID greedy with random identifiers.
		ids := model.PermIDs(rng, n, 10*n)
		solRnd, err := model.RunID(h, ids, algorithms.IDGreedyEDS(), model.EdgeKind)
		if err != nil {
			log.Fatal(err)
		}
		rRnd, err := problems.Ratio(p, h.G, solRnd)
		if err != nil {
			log.Fatal(err)
		}

		// (4) ID greedy with adversarial order-respecting identifiers.
		adv := make([]int, n)
		for i := range adv {
			adv[i] = i + 1
		}
		solAdv, err := model.RunID(h, adv, algorithms.IDGreedyEDS(), model.EdgeKind)
		if err != nil {
			log.Fatal(err)
		}
		rAdv, err := problems.Ratio(p, h.G, solAdv)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("C%-3d certified PO >= %.3f | PO alg %.3f | ID random %.3f | ID adversarial %.3f\n",
			n, lb.BestRatio, rPO, rRnd, rAdv)
	}
	fmt.Println()
	fmt.Println("identifiers help on random instances, but the adversarial order-")
	fmt.Println("respecting assignment pushes the ID algorithm to the PO bound: the")
	fmt.Println("ID model cannot beat α0 — exactly Theorem 1.6.")
}

func directedCycle(n int) *model.Host {
	h, err := model.NewHost(digraph.DirectedCycle(n))
	if err != nil {
		log.Fatal(err)
	}
	return h
}
