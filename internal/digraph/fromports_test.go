package digraph_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/host"
)

// builderFromPorts is FromPorts as it was built before the two-pass
// CSR fill: an arc record per edge, a label map and Builder rows. It
// is the reference the CSR path must reproduce byte for byte.
func builderFromPorts(g *graph.Graph, orient digraph.Orientation) *digraph.Ported {
	if orient == nil {
		orient = digraph.OrientBySmaller
	}
	type arcRec struct {
		u, v int
		pl   digraph.PortLabel
	}
	arcs := make([]arcRec, 0, g.M())
	labelIdx := make(map[digraph.PortLabel]int)
	var labels []digraph.PortLabel
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		if !orient(e) {
			u, v = v, u
		}
		pl := digraph.PortLabel{I: g.NeighborIndex(u, v) + 1, J: g.NeighborIndex(v, u) + 1}
		if _, ok := labelIdx[pl]; !ok {
			labelIdx[pl] = len(labels)
			labels = append(labels, pl)
		}
		arcs = append(arcs, arcRec{u: u, v: v, pl: pl})
	}
	b := digraph.NewBuilder(g.N(), len(labels))
	for _, a := range arcs {
		b.MustAddArc(a.u, a.v, labelIdx[a.pl])
	}
	return &digraph.Ported{D: b.Build(), Labels: labels, Host: g}
}

func samePorted(got, want *digraph.Ported) error {
	if got.Host != want.Host {
		return fmt.Errorf("host graph not carried through")
	}
	if !slices.Equal(got.Labels, want.Labels) {
		return fmt.Errorf("labels %v, want %v", got.Labels, want.Labels)
	}
	d, w := got.D, want.D
	if d.N() != w.N() || d.Alphabet() != w.Alphabet() || d.Arcs() != w.Arcs() {
		return fmt.Errorf("got %v, want %v", d, w)
	}
	for v := 0; v < d.N(); v++ {
		if !slices.Equal(d.Out(v), w.Out(v)) {
			return fmt.Errorf("out-arcs of %d: %v, want %v", v, d.Out(v), w.Out(v))
		}
		if !slices.Equal(d.In(v), w.In(v)) {
			return fmt.Errorf("in-arcs of %d: %v, want %v", v, d.In(v), w.In(v))
		}
	}
	return nil
}

// TestFromPortsMatchesBuilder runs FromPorts and its Builder-based
// reference on registry hosts, with the default orientation and, on
// even-degree hosts, the Eulerian one. The random-regular seeds hit
// the pairing model's restarts.
func TestFromPortsMatchesBuilder(t *testing.T) {
	descs := []string{"torus:6x6", "torus:3x4x5", "cycle:3", "petersen", "margulis-expander:n=8", "lift:cycle:9,l=3"}
	for seed := 1; seed <= 5; seed++ {
		descs = append(descs, fmt.Sprintf("random-regular:d=3,n=1000,seed=%d", seed))
	}
	for _, desc := range descs {
		g := host.MustParse(desc).G
		orients := map[string]digraph.Orientation{"nil": nil}
		if o, err := digraph.EulerianOrientation(g); err == nil {
			orients["eulerian"] = o
		}
		for name, o := range orients {
			if err := samePorted(digraph.FromPorts(g, o), builderFromPorts(g, o)); err != nil {
				t.Errorf("%s, %s orientation: %v", desc, name, err)
			}
		}
	}
}

// TestFromPortsLargeDegree covers the sparse label table: a star's
// max degree squared is far past its edge count.
func TestFromPortsLargeDegree(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Star(200), graph.Complete(12), graph.CompleteBipartite(3, 90)} {
		if err := samePorted(digraph.FromPorts(g, nil), builderFromPorts(g, nil)); err != nil {
			t.Errorf("n=%d m=%d: %v", g.N(), g.M(), err)
		}
	}
}
