// Command lowerbound runs the certified PO lower-bound engine: it
// enumerates every radius-r PO algorithm restricted to an instance and
// reports the best approximation ratio any of them achieves. By
// Theorems 1.3/1.4 the bound transfers verbatim to the OI and ID
// models on lift-closed families containing the instance.
//
// Usage:
//
//	lowerbound -problem min-edge-dominating-set -graph dcycle -n 9 [-r 1]
//
// Graphs: dcycle (directed n-cycle), circulant (directed Cayley
// circulant of Z_n with generators -a and -b), cycle/petersen/complete
// (port-numbered with the smaller-endpoint orientation).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/problems"
)

func main() {
	problemName := flag.String("problem", "min-edge-dominating-set", "problem name (see internal/problems)")
	graphName := flag.String("graph", "dcycle", "instance family: dcycle|circulant|cycle|petersen|complete")
	n := flag.Int("n", 9, "instance size")
	a := flag.Int("a", 1, "first circulant generator")
	b := flag.Int("b", 2, "second circulant generator")
	r := flag.Int("r", 1, "algorithm radius")
	budget := flag.Int("budget", 1<<22, "maximum number of PO algorithms to enumerate")
	flag.Parse()
	if err := run(*problemName, *graphName, *n, *a, *b, *r, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "lowerbound:", err)
		os.Exit(1)
	}
}

func run(problemName, graphName string, n, a, b, r, budget int) error {
	p, err := problems.ByName(problemName)
	if err != nil {
		return err
	}
	h, err := buildHost(graphName, n, a, b)
	if err != nil {
		return err
	}
	lb, err := core.CertifyPOLowerBound(h, p, r, budget)
	if err != nil {
		return err
	}
	fmt.Printf("instance: %s n=%d  problem: %s  radius: %d\n", graphName, h.G.N(), p.Name(), r)
	fmt.Printf("view types: %d   algorithms enumerated: %d   feasible: %d\n",
		lb.Types, lb.Algorithms, lb.FeasibleCount)
	fmt.Printf("optimum: %d\n", lb.Optimum)
	if math.IsInf(lb.BestRatio, 1) {
		fmt.Println("certified: NO radius-bounded PO algorithm achieves a finite approximation ratio on this instance")
	} else {
		fmt.Printf("certified: every radius-%d PO algorithm has ratio >= %.6g on this instance\n", r, lb.BestRatio)
		fmt.Println("by Theorems 1.3/1.4 the same bound holds for OI and ID algorithms on lift-closed families containing it")
	}
	return nil
}

func buildHost(name string, n, a, b int) (*model.Host, error) {
	switch name {
	case "dcycle":
		return model.NewHost(digraph.DirectedCycle(n))
	case "circulant":
		bl := digraph.NewBuilder(n, 2)
		for v := 0; v < n; v++ {
			bl.MustAddArc(v, (v+a)%n, 0)
			bl.MustAddArc(v, (v+b)%n, 1)
		}
		return model.NewHost(bl.Build())
	case "cycle":
		return model.HostFromGraph(graph.Cycle(n)), nil
	case "petersen":
		return model.HostFromGraph(graph.Petersen()), nil
	case "complete":
		return model.HostFromGraph(graph.Complete(n)), nil
	default:
		return nil, fmt.Errorf("unknown graph %q", name)
	}
}
