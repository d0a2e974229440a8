// Certify: machine-checked lower bounds in both weak models, through
// the public API.
//
// The paper's program is: prove a lower bound in an easy-to-analyse
// weak model, then amplify it to the full LOCAL (ID) model with
// Theorems 1.3/1.4. This example runs the two certified engines — PO
// (exhausting all view-type behaviours) and OI (exhausting all
// ordered-ball-type behaviours) — side by side on directed cycles for
// every one of the six problems of Example 1.1.
//
// Run: go run ./examples/certify
package main

import (
	"fmt"
	"log"
	"math"

	localapprox "repro"
	"repro/internal/core"
	"repro/internal/digraph"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/problems"
)

func main() {
	n := 12
	h := directedCycle(n)
	rank := order.Identity(n)

	fmt.Printf("certified lower bounds on the directed %d-cycle (radius 1)\n\n", n)
	fmt.Printf("%-26s %-14s %-14s %s\n", "problem", "PO bound", "OI bound", "paper's tight factor")
	for _, p := range problems.All() {
		po, err := core.CertifyPOLowerBound(h, p, 1, 1<<22)
		if err != nil {
			log.Fatal(err)
		}
		oi, err := core.CertifyOILowerBound(h, rank, p, 1, 1<<22)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s %-14s %-14s %s\n", p.Name(),
			fmtRatio(po.BestRatio), fmtRatio(oi.BestRatio), paperBound(p.Name()))
	}
	fmt.Println()
	fmt.Println("the OI bounds trail the PO bounds only by the O(r/n) seam effect; by")
	fmt.Println("Theorems 1.3/1.4, on lift-closed families all three models meet the")
	fmt.Println("same asymptotic constants (left column of EXPERIMENTS.md).")

	// And the facade one-liner from the README:
	g := localapprox.Cycle(9)
	host := localapprox.HostFromGraph(g)
	sol, err := localapprox.RunPO(host, localapprox.EDSOneOut(), localapprox.EdgeKind)
	if err != nil {
		log.Fatal(err)
	}
	ratio, err := localapprox.Ratio(localapprox.MinEDS, g, sol)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfacade check: EDS one-out-edge on C9 has ratio %.3f (bound 3)\n", ratio)
}

func fmtRatio(x float64) string {
	if math.IsInf(x, 1) {
		return "∞"
	}
	return fmt.Sprintf("%.4g", x)
}

func paperBound(name string) string {
	switch name {
	case "min-vertex-cover", "min-edge-cover":
		return "2"
	case "min-dominating-set":
		return "Δ'+1 = 3"
	case "min-edge-dominating-set":
		return "4−2/Δ' = 3"
	default:
		return "unbounded"
	}
}

func directedCycle(n int) *model.Host {
	h, err := model.NewHost(digraph.DirectedCycle(n))
	if err != nil {
		log.Fatal(err)
	}
	return h
}
