package digraph

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// PortLabel is the pair (i, j) arising from a port numbering: the arc
// u -> v is labelled (i, j) when v is the i-th neighbour of u and u is
// the j-th neighbour of v (ports are 1-based, as in the paper).
type PortLabel struct{ I, J int }

// Ported is a digraph derived from a port numbering and orientation of
// an undirected graph, together with the meaning of its compact labels.
type Ported struct {
	D *Digraph
	// Labels maps compact label -> port pair.
	Labels []PortLabel
	// Host is the original undirected graph.
	Host *graph.Graph
}

// Orientation assigns a direction to each undirected edge: true means
// the edge {U, V} (with U < V) is directed U -> V.
type Orientation func(e graph.Edge) bool

// OrientBySmaller directs every edge from its smaller endpoint to its
// larger endpoint.
func OrientBySmaller(graph.Edge) bool { return true }

// FromPorts equips g with the canonical port numbering (the i-th
// neighbour of u is Neighbors(u)[i-1]) and the given orientation, and
// returns the resulting L-digraph with a compact label alphabet.
// If orient is nil, OrientBySmaller is used.
//
// Compact labels number the port pairs in order of first appearance
// over g.Edges(). The out- and in-arc CSR arrays are filled in two
// counting passes over the edges and finished by fromCSR, which
// label-sorts every row and re-checks the proper labelling.
func FromPorts(g *graph.Graph, orient Orientation) *Ported {
	if orient == nil {
		orient = OrientBySmaller
	}
	n := g.N()
	pl := newPortLabeler(g.MaxDegree(), g.M())
	// code[k] is edge k's compact label times two, plus one when the
	// edge runs from its larger endpoint to its smaller one.
	code := make([]int32, 0, g.M())
	outOff := make([]int32, n+1)
	inOff := make([]int32, n+1)
	for u := 0; u < n; u++ {
		for i, w := range g.Neighbors(u) {
			v := int(w)
			if v <= u {
				continue
			}
			// v's port at u is i+1. u's port at v is one past the count
			// of v's neighbours below u: v's row is sorted and those
			// neighbours are exactly the edges of v counted so far.
			iu, iv := i+1, int(outOff[v+1]+inOff[v+1])+1
			flip := int32(0)
			if orient(graph.Edge{U: u, V: v}) {
				outOff[u+1]++
				inOff[v+1]++
			} else {
				outOff[v+1]++
				inOff[u+1]++
				iu, iv, flip = iv, iu, 1
			}
			code = append(code, pl.label(iu, iv)<<1|flip)
		}
	}
	for v := 0; v < n; v++ {
		outOff[v+1] += outOff[v]
		inOff[v+1] += inOff[v]
	}
	out := make([]Arc, len(code))
	in := make([]Arc, len(code))
	outAt := slices.Clone(outOff[:n])
	inAt := slices.Clone(inOff[:n])
	k := 0
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors(u) {
			v := int(w)
			if v <= u {
				continue
			}
			c := code[k]
			k++
			a, b := u, v
			if c&1 == 1 {
				a, b = v, u
			}
			l := int(c >> 1)
			out[outAt[a]] = Arc{To: b, Label: l}
			outAt[a]++
			in[inAt[b]] = Arc{To: a, Label: l}
			inAt[b]++
		}
	}
	d, err := fromCSR(n, len(pl.labels), outOff, out, inOff, in)
	if err != nil {
		panic(err)
	}
	return &Ported{D: d, Labels: pl.labels, Host: g}
}

// portLabeler numbers port pairs in order of first appearance. Pairs
// (i, j) with 1 <= i, j <= maxDeg index a dense table when it is small
// next to the edge count, as on every bounded-degree host; a map
// serves hosts like large stars, whose table would be quadratic.
type portLabeler struct {
	maxDeg int
	dense  []int32 // (i-1)*maxDeg + (j-1) -> label+1; 0 means unseen
	sparse map[PortLabel]int32
	labels []PortLabel
}

func newPortLabeler(maxDeg, edges int) *portLabeler {
	pl := &portLabeler{maxDeg: maxDeg}
	if cells := int64(maxDeg) * int64(maxDeg); cells <= max(4*int64(edges), 1<<12) {
		pl.dense = make([]int32, cells)
	} else {
		pl.sparse = make(map[PortLabel]int32)
	}
	return pl
}

func (pl *portLabeler) label(i, j int) int32 {
	key := PortLabel{I: i, J: j}
	if pl.dense != nil {
		cell := &pl.dense[(i-1)*pl.maxDeg+j-1]
		if *cell == 0 {
			pl.labels = append(pl.labels, key)
			*cell = int32(len(pl.labels))
		}
		return *cell - 1
	}
	l, ok := pl.sparse[key]
	if !ok {
		l = int32(len(pl.labels))
		pl.sparse[key] = l
		pl.labels = append(pl.labels, key)
	}
	return l
}

// EulerianOrientation orients the edges of a graph whose vertices all
// have even degree along Eulerian circuits, so that every vertex has
// equal in- and out-degree. It returns an error if some degree is odd.
func EulerianOrientation(g *graph.Graph) (Orientation, error) {
	for v := 0; v < g.N(); v++ {
		if g.Degree(v)%2 != 0 {
			return nil, fmt.Errorf("digraph: vertex %d has odd degree %d", v, g.Degree(v))
		}
	}
	// Hierholzer on each component; record the traversal direction of
	// each edge.
	dir := make(map[graph.Edge]bool, g.M()) // true: U -> V
	used := make(map[graph.Edge]bool, g.M())
	next := make([]int, g.N()) // per-vertex scan position into Neighbors
	for s := 0; s < g.N(); s++ {
		for next[s] < g.Degree(s) {
			// Walk a closed trail from s using unused edges.
			v := s
			for {
				advanced := false
				for next[v] < g.Degree(v) {
					w := int(g.Neighbors(v)[next[v]])
					next[v]++
					e := graph.NewEdge(v, w)
					if used[e] {
						continue
					}
					used[e] = true
					dir[e] = v == e.U
					v = w
					advanced = true
					break
				}
				if !advanced {
					break
				}
				if v == s && next[s] >= g.Degree(s) {
					break
				}
			}
		}
	}
	return func(e graph.Edge) bool { return dir[e] }, nil
}

// FibreMap is a vertex map phi: V(H) -> V(G) claimed to be a covering.
type FibreMap []int

// VerifyCovering checks that phi is a covering map of L-digraphs from h
// onto g: it must be onto, preserve arcs and labels, and preserve
// out-/in-degrees (local bijectivity then follows from the proper
// labelling). It returns nil if phi is a covering map.
func VerifyCovering(h, g *Digraph, phi FibreMap) error {
	if len(phi) != h.N() {
		return fmt.Errorf("digraph: fibre map has length %d, want %d", len(phi), h.N())
	}
	if h.Alphabet() != g.Alphabet() {
		return fmt.Errorf("digraph: alphabet mismatch %d vs %d", h.Alphabet(), g.Alphabet())
	}
	hit := make([]bool, g.N())
	for v := 0; v < h.N(); v++ {
		pv := phi[v]
		if pv < 0 || pv >= g.N() {
			return fmt.Errorf("digraph: phi(%d)=%d out of range", v, pv)
		}
		hit[pv] = true
		if len(h.Out(v)) != len(g.Out(pv)) || len(h.In(v)) != len(g.In(pv)) {
			return fmt.Errorf("digraph: degree not preserved at %d", v)
		}
		for _, a := range h.Out(v) {
			ga, ok := g.OutArc(pv, a.Label)
			if !ok {
				return fmt.Errorf("digraph: out-arc label %d of %d missing at phi-image %d", a.Label, v, pv)
			}
			if ga.To != phi[a.To] {
				return fmt.Errorf("digraph: arc (%d,%d,label %d) maps to (%d,%d), want (%d,%d)",
					v, a.To, a.Label, pv, phi[a.To], pv, ga.To)
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if !hit[v] {
			return fmt.Errorf("digraph: phi is not onto: %d has empty fibre", v)
		}
	}
	return nil
}

// Fibres groups the vertices of the covering graph by their phi-image.
func Fibres(gN int, phi FibreMap) [][]int {
	out := make([][]int, gN)
	for v, pv := range phi {
		out[pv] = append(out[pv], v)
	}
	return out
}
