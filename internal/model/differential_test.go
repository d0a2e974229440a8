package model

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/view"
)

func diffHosts(t *testing.T) map[string]*Host {
	t.Helper()
	return map[string]*Host{
		"petersen":      HostFromGraph(graph.Petersen()),
		"torus6x6":      HostFromGraph(graph.Torus(6, 6)),
		"randomregular": HostFromGraph(graph.RandomRegular(18, 3, rand.New(rand.NewSource(11)))),
	}
}

// TestGatheredTreesDifferential pins the three formulations of view
// gathering against each other on Petersen, torus and random-regular
// hosts: the parallel level-synchronous assembly, the sequential
// fallback, the message-passing simulation (GatherViews), and direct
// per-node view construction. All four must produce identical interned
// trees (and hence byte-identical encodings).
func TestGatheredTreesDifferential(t *testing.T) {
	for name, h := range diffHosts(t) {
		for r := 0; r <= 2; r++ {
			direct := make([]*view.Tree, h.G.N())
			for v := range direct {
				direct[v] = view.Build[int](h.D, v, r)
			}

			for _, p := range []int{1, 8} {
				old := par.Set(p)
				gathered, err := GatheredTrees(h, r)
				par.Set(old)
				if err != nil {
					t.Fatalf("%s r=%d p=%d: %v", name, r, p, err)
				}
				for v := range direct {
					if gathered[v] != direct[v] {
						t.Fatalf("%s r=%d p=%d node %d: gathered view differs from direct build:\n%s\nvs\n%s",
							name, r, p, v, gathered[v].Encode(), direct[v].Encode())
					}
				}
			}

			// Message-passing simulation (the operational reference).
			states, _, err := RunRoundsReference(h, nil, GatherViews(r), r+1)
			if err != nil {
				t.Fatalf("%s r=%d: sim: %v", name, r, err)
			}
			for v, st := range states {
				if st.(*GatherState).Tree != direct[v] {
					t.Fatalf("%s r=%d node %d: simulated gather differs from direct build", name, r, v)
				}
			}
		}
	}
}

// TestSimulatePODifferential re-pins equation (1) through the new
// parallel gather on all differential hosts: simulation and direct
// evaluation coincide.
func TestSimulatePODifferential(t *testing.T) {
	defer par.Set(par.Set(8))
	for name, h := range diffHosts(t) {
		alg := FuncPO{R: 1, Fn: func(tr *view.Tree) Output {
			return Output{Member: tr.NumChildren()%2 == 0, Letters: tr.Letters()}
		}}
		a, err := RunPO(h, alg, EdgeKind)
		if err != nil {
			t.Fatalf("%s: RunPO: %v", name, err)
		}
		b, err := SimulatePO(h, alg, EdgeKind)
		if err != nil {
			t.Fatalf("%s: SimulatePO: %v", name, err)
		}
		ae, be := a.EdgeSet(), b.EdgeSet()
		if len(ae) != len(be) {
			t.Fatalf("%s: %d vs %d edges", name, len(ae), len(be))
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("%s: edge sets differ at %d", name, i)
			}
		}
	}
}
