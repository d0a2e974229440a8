// Command liftview renders the paper's structural objects as Graphviz
// DOT: views (Fig. 4), complete trees T* (Fig. 5), cyclic lifts
// (Fig. 3), and homogeneous lifts (Fig. 7).
//
// Usage:
//
//	liftview -what view -n 6 -r 2        # view of the directed n-cycle
//	liftview -what tstar -l 2 -r 2       # complete tree T*
//	liftview -what cyclic -n 4 -l 3      # connected cyclic l-lift of C_n
//	liftview -what homog -n 5 -m 4       # homogeneous lift H(m) × C_n
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/digraph"
	"repro/internal/homog"
	"repro/internal/lift"
	"repro/internal/view"
)

func main() {
	what := flag.String("what", "view", "object: view|tstar|cyclic|homog")
	n := flag.Int("n", 6, "base cycle length")
	r := flag.Int("r", 2, "view radius")
	l := flag.Int("l", 2, "alphabet size (tstar) or lift degree (cyclic)")
	m := flag.Int("m", 4, "homogeneous modulus")
	flag.Parse()
	if err := run(*what, *n, *r, *l, *m); err != nil {
		fmt.Fprintln(os.Stderr, "liftview:", err)
		os.Exit(1)
	}
}

func run(what string, n, r, l, m int) error {
	switch what {
	case "view":
		d := digraph.DirectedCycle(n)
		t := view.Build[int](d, 0, r)
		vd, walks, _ := t.ToDigraph(1)
		fmt.Print(vd.DOT(fmt.Sprintf("view_C%d_r%d", n, r), func(v int) string {
			if len(walks[v]) == 0 {
				return "λ"
			}
			return view.Key(walks[v])
		}))
	case "tstar":
		t := view.Complete(l, r)
		vd, walks, _ := t.ToDigraph(l)
		fmt.Print(vd.DOT(fmt.Sprintf("Tstar_L%d_r%d", l, r), func(v int) string {
			if len(walks[v]) == 0 {
				return "λ"
			}
			return view.Key(walks[v])
		}))
	case "cyclic":
		d := digraph.DirectedCycle(n)
		h, _, err := lift.ConnectedCyclic(d, l, 0, 1, 0)
		if err != nil {
			return err
		}
		fmt.Print(h.DOT(fmt.Sprintf("cyclic_%d_lift_C%d", l, n), func(v int) string {
			return fmt.Sprintf("%d/%d", v%n, v/n)
		}))
	case "homog":
		c, err := homog.Search(1, 1, homog.SearchOptions{Seed: 42})
		if err != nil {
			return err
		}
		lr, err := core.BuildHomogeneousLift(c, digraph.DirectedCycle(n), m, 1<<15)
		if err != nil {
			return err
		}
		fmt.Print(lr.Host.D.DOT(fmt.Sprintf("homog_lift_H%d_C%d", m, n), func(v int) string {
			p := lr.Pairs[v]
			return fmt.Sprintf("%s|%d", p.H, p.G)
		}))
	default:
		return fmt.Errorf("unknown object %q", what)
	}
	return nil
}
