// Package digraph provides L-edge-labelled directed graphs (the
// "L-digraphs" of Section 2.5 of the paper), port numberings and
// orientations, covering-map verification, an interface for lazily
// evaluated (implicit) digraphs, and radius-r ball extraction.
//
// A proper labelling assigns the outgoing edges of each node distinct
// labels and the incoming edges of each node distinct labels; this is
// exactly the structure induced by a port numbering and orientation.
package digraph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
)

// ArcTo is a labelled arc to a node of type V in an implicit digraph.
type ArcTo[V comparable] struct {
	To    V
	Label int
}

// Arc is a labelled arc in a materialised digraph.
type Arc = ArcTo[int]

// Implicit is a lazily evaluated L-digraph. Implementations include
// materialised digraphs, Cayley graphs of the paper's groups, and the
// label-matching lift products — the latter two are far too large to
// materialise, but every construction in the paper only ever inspects
// a constant-radius neighbourhood, which Implicit supports.
type Implicit[V comparable] interface {
	// Alphabet returns |L|, the number of edge labels; labels are
	// 0..Alphabet()-1.
	Alphabet() int
	// Out returns the labelled out-arcs of v, with distinct labels.
	Out(v V) []ArcTo[V]
	// In returns the labelled in-arcs of v (ArcTo.To is the arc's
	// source), with distinct labels.
	In(v V) []ArcTo[V]
}

// Digraph is a materialised L-digraph with a proper labelling, stored
// in CSR form: the out-arcs of v are out[outOff[v]:outOff[v+1]] (and
// symmetrically for in), label-sorted within each row, so every arc
// scan walks one flat contiguous array. It implements Implicit[int].
type Digraph struct {
	n        int
	alphabet int
	outOff   []int32 // row offsets into out, len n+1
	inOff    []int32 // row offsets into in, len n+1
	out      []Arc   // flat out-arc array, label-sorted per row
	in       []Arc   // flat in-arc array, label-sorted per row
}

var _ Implicit[int] = (*Digraph)(nil)

// Builder accumulates arcs for a Digraph, enforcing proper labelling.
// Per-vertex rows are scaffolding; Build concatenates them into the
// final flat CSR arrays.
type Builder struct {
	n        int
	alphabet int
	built    bool
	out      [][]Arc
	in       [][]Arc
}

// NewBuilder returns a builder for an L-digraph on n vertices with the
// given alphabet size. Vertex ids and CSR offsets are int32, so n is
// capped at graph.FlatCapacity; larger hosts must stay implicit
// (host.ShardSource).
func NewBuilder(n, alphabet int) *Builder {
	if n < 0 || alphabet < 0 {
		panic("digraph: negative size")
	}
	if int64(n) > graph.FlatCapacity {
		panic(capacityErr("vertex count", int64(n)))
	}
	return &Builder{
		n:        n,
		alphabet: alphabet,
		out:      make([][]Arc, n),
		in:       make([][]Arc, n),
	}
}

// AddArc adds the arc u -> v with the given label. It returns an error
// if the arc would violate the proper-labelling condition: u must not
// already have an outgoing arc labelled label, and v must not already
// have an incoming arc labelled label. Self-loops are rejected.
//
// Arc lists are kept label-sorted as they grow, so the duplicate-label
// check is a binary search rather than a linear scan and Build needs
// no final sort.
func (b *Builder) AddArc(u, v, label int) error {
	if b.built {
		panic("digraph: AddArc on a Builder after Build")
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("digraph: arc (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("digraph: self-loop at %d", u)
	}
	if label < 0 || label >= b.alphabet {
		return fmt.Errorf("digraph: label %d out of range [0,%d)", label, b.alphabet)
	}
	oi, dup := searchLabel(b.out[u], label)
	if dup {
		return fmt.Errorf("digraph: node %d already has out-label %d", u, label)
	}
	ii, dup := searchLabel(b.in[v], label)
	if dup {
		return fmt.Errorf("digraph: node %d already has in-label %d", v, label)
	}
	b.out[u] = insertArc(b.out[u], oi, Arc{To: v, Label: label})
	b.in[v] = insertArc(b.in[v], ii, Arc{To: u, Label: label})
	return nil
}

// searchLabel returns the insertion position of label in the
// label-sorted arc slice and whether the label is already present.
func searchLabel(arcs []Arc, label int) (int, bool) {
	i := sort.Search(len(arcs), func(i int) bool { return arcs[i].Label >= label })
	return i, i < len(arcs) && arcs[i].Label == label
}

func insertArc(arcs []Arc, i int, a Arc) []Arc {
	arcs = append(arcs, Arc{})
	copy(arcs[i+1:], arcs[i:])
	arcs[i] = a
	return arcs
}

// MustAddArc is AddArc that panics on error.
func (b *Builder) MustAddArc(u, v, label int) {
	if err := b.AddArc(u, v, label); err != nil {
		panic(err)
	}
}

// Build finalises the digraph, concatenating the label-sorted arc
// rows (an invariant AddArc maintains incrementally) into the flat
// CSR arrays. The builder is dead afterwards: further AddArc panics.
func (b *Builder) Build() *Digraph {
	if b.built {
		panic("digraph: Build called twice")
	}
	b.built = true
	outOff, out := flattenArcs(b.out)
	inOff, in := flattenArcs(b.in)
	b.out, b.in = nil, nil
	return &Digraph{n: b.n, alphabet: b.alphabet, outOff: outOff, inOff: inOff, out: out, in: in}
}

// fromCSR finishes a digraph assembled straight into CSR form, the
// wholesale path for generators (DirectedCycle, FromPorts) that know
// their arcs up front. outOff/inOff have n+1 entries and
// out[outOff[v]:outOff[v+1]] (in[inOff[v]:inOff[v+1]]) lists the out-
// (in-)arcs of v in any order. Each row is sorted by label in place
// and the result is checked for everything AddArc enforces: endpoints
// and labels in range, no self-loops, distinct labels per row, and
// every out-arc (u -> v, l) mirrored by the in-arc (v <- u, l), with
// as many in-arcs as out-arcs so the mirroring is a bijection. The
// slices are owned by the digraph afterwards (the two offset arrays
// may be one slice).
func fromCSR(n, alphabet int, outOff []int32, out []Arc, inOff []int32, in []Arc) (*Digraph, error) {
	if n < 0 || alphabet < 0 {
		return nil, fmt.Errorf("digraph: negative size")
	}
	if int64(n) > graph.FlatCapacity {
		return nil, capacityErr("vertex count", int64(n))
	}
	if int64(len(out)) > graph.FlatCapacity {
		return nil, capacityErr("arc count", int64(len(out)))
	}
	if len(out) != len(in) {
		return nil, fmt.Errorf("digraph: %d out-arcs but %d in-arcs", len(out), len(in))
	}
	if err := sortRows(n, alphabet, outOff, out, "out"); err != nil {
		return nil, err
	}
	if err := sortRows(n, alphabet, inOff, in, "in"); err != nil {
		return nil, err
	}
	d := &Digraph{n: n, alphabet: alphabet, outOff: outOff, inOff: inOff, out: out, in: in}
	for u := 0; u < n; u++ {
		for _, a := range d.Out(u) {
			if b, ok := d.InArc(a.To, a.Label); !ok || b.To != u {
				return nil, fmt.Errorf("digraph: arc (%d,%d) label %d has no mirrored in-arc", u, a.To, a.Label)
			}
		}
	}
	return d, nil
}

// sortRows label-sorts each CSR row of one direction and validates
// the offsets, endpoint and label ranges, self-loops and per-row label
// distinctness.
func sortRows(n, alphabet int, off []int32, arcs []Arc, dir string) error {
	if len(off) != n+1 || off[0] != 0 || int(off[n]) != len(arcs) {
		return fmt.Errorf("digraph: malformed %s-arc offsets", dir)
	}
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return fmt.Errorf("digraph: %s-arc offsets not monotone at %d", dir, v)
		}
		row := arcs[off[v]:off[v+1]]
		slices.SortFunc(row, func(a, b Arc) int { return cmp.Compare(a.Label, b.Label) })
		for i, a := range row {
			if a.To < 0 || a.To >= n {
				return fmt.Errorf("digraph: arc (%d,%d) out of range [0,%d)", v, a.To, n)
			}
			if a.To == v {
				return fmt.Errorf("digraph: self-loop at %d", v)
			}
			if a.Label < 0 || a.Label >= alphabet {
				return fmt.Errorf("digraph: label %d out of range [0,%d)", a.Label, alphabet)
			}
			if i > 0 && row[i-1].Label == a.Label {
				return fmt.Errorf("digraph: node %d already has %s-label %d", v, dir, a.Label)
			}
		}
	}
	return nil
}

// DirectedCycle returns the consistently oriented n-cycle, every arc
// i -> i+1 (mod n) labelled 0, built straight into CSR form. It panics
// on negative n and on n == 1 (a self-loop), as the Builder would.
func DirectedCycle(n int) *Digraph {
	if n < 0 {
		panic("digraph: negative size")
	}
	if int64(n) > graph.FlatCapacity {
		panic(capacityErr("vertex count", int64(n)))
	}
	off := make([]int32, n+1)
	out := make([]Arc, n)
	in := make([]Arc, n)
	for i := 0; i < n; i++ {
		off[i+1] = int32(i + 1)
		out[i] = Arc{To: (i + 1) % n}
		in[i] = Arc{To: (i + n - 1) % n}
	}
	d, err := fromCSR(n, 1, off, out, off, in)
	if err != nil {
		panic(err)
	}
	return d
}

// capacityErr mirrors graph's flat-capacity diagnostic for the
// digraph CSR arrays.
func capacityErr(what string, have int64) error {
	return fmt.Errorf("digraph: %s %d exceeds the flat-CSR int32 capacity %d: host exceeds flat-CSR capacity, use shards (model.ShardedEngine over a host.ShardSource)",
		what, have, int64(graph.FlatCapacity))
}

// flattenArcs concatenates per-vertex arc rows into one flat array
// with row offsets. Row totals are checked in 64 bits first: the
// int32 offset accumulation would wrap silently past 2^31 arcs.
func flattenArcs(rows [][]Arc) ([]int32, []Arc) {
	total := int64(0)
	for _, row := range rows {
		total += int64(len(row))
	}
	if total > graph.FlatCapacity {
		panic(capacityErr("arc count", total))
	}
	off := make([]int32, len(rows)+1)
	for v, row := range rows {
		off[v+1] = off[v] + int32(len(row))
	}
	flat := make([]Arc, off[len(rows)])
	for v, row := range rows {
		copy(flat[off[v]:], row)
	}
	return off, flat
}

// N returns the number of vertices.
func (d *Digraph) N() int { return d.n }

// Alphabet returns |L|.
func (d *Digraph) Alphabet() int { return d.alphabet }

// Out returns the out-arcs of v sorted by label: a subslice of the
// flat CSR arc array. Do not modify.
func (d *Digraph) Out(v int) []Arc { return d.out[d.outOff[v]:d.outOff[v+1]] }

// In returns the in-arcs of v sorted by label (Arc.To is the source).
// Do not modify.
func (d *Digraph) In(v int) []Arc { return d.in[d.inOff[v]:d.inOff[v+1]] }

// Degree returns the total number of arcs incident to v.
func (d *Digraph) Degree(v int) int {
	return int(d.outOff[v+1] - d.outOff[v] + d.inOff[v+1] - d.inOff[v])
}

// Arcs returns the number of arcs.
func (d *Digraph) Arcs() int { return len(d.out) }

// OutArc returns the out-arc of v with the given label, if any.
// Binary search over the label-sorted arc row.
func (d *Digraph) OutArc(v, label int) (Arc, bool) {
	row := d.Out(v)
	if i, ok := searchLabel(row, label); ok {
		return row[i], true
	}
	return Arc{}, false
}

// InArc returns the in-arc of v with the given label, if any.
// Binary search over the label-sorted arc row.
func (d *Digraph) InArc(v, label int) (Arc, bool) {
	row := d.In(v)
	if i, ok := searchLabel(row, label); ok {
		return row[i], true
	}
	return Arc{}, false
}

// Underlying returns the simple undirected graph obtained by forgetting
// directions and labels. It returns an error if two vertices are joined
// by more than one arc (the underlying structure would be a multigraph,
// which graph.Graph does not represent). The CSR arrays are assembled
// directly — every vertex's undirected degree is its out-degree plus
// in-degree, so the offsets are known up front and the fill is a
// single pass over the flat arc arrays. Underlying runs once per
// extracted ball in the homogeneity scans.
func (d *Digraph) Underlying() (*graph.Graph, error) {
	// out-arcs + in-arcs undirected slots can exceed int32 even when
	// each arc array fits; check before the int32 accumulation wraps.
	undirected := int64(d.outOff[d.n]) + int64(d.inOff[d.n])
	if undirected > graph.FlatCapacity {
		return nil, capacityErr("undirected arc count", undirected)
	}
	off := make([]int32, d.n+1)
	for v := 0; v < d.n; v++ {
		off[v+1] = off[v] + int32(d.Degree(v))
	}
	nbr := make([]int32, off[d.n])
	cur := append([]int32(nil), off[:d.n]...)
	for u := 0; u < d.n; u++ {
		for _, a := range d.Out(u) {
			nbr[cur[u]] = int32(a.To)
			cur[u]++
			nbr[cur[a.To]] = int32(u)
			cur[a.To]++
		}
	}
	g, err := graph.FromCSR(off, nbr)
	if err != nil {
		return nil, fmt.Errorf("digraph: underlying graph: parallel arcs or invalid structure: %w", err)
	}
	return g, nil
}

// IsRegularDigraph reports whether every vertex has out-degree and
// in-degree exactly k (so the digraph is 2k-regular as an undirected
// structure, the shape required of the homogeneous graphs H).
func (d *Digraph) IsRegularDigraph(k int) bool {
	for v := 0; v < d.n; v++ {
		if int(d.outOff[v+1]-d.outOff[v]) != k || int(d.inOff[v+1]-d.inOff[v]) != k {
			return false
		}
	}
	return true
}

// String returns a short human-readable summary.
func (d *Digraph) String() string {
	return fmt.Sprintf("digraph{n=%d arcs=%d |L|=%d}", d.n, d.Arcs(), d.alphabet)
}

// Induced returns the subdigraph induced by the given vertices (arcs
// with both endpoints inside), together with the map from new index to
// old vertex.
func (d *Digraph) Induced(verts []int) (*Digraph, []int) {
	idx := make(map[int]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	b := NewBuilder(len(verts), d.alphabet)
	for i, v := range verts {
		for _, a := range d.Out(v) {
			if j, in := idx[a.To]; in {
				b.MustAddArc(i, j, a.Label)
			}
		}
	}
	old := append([]int(nil), verts...)
	return b.Build(), old
}

// WithAlphabet returns a copy of d whose declared alphabet is enlarged
// to k (labels keep their values); used to match a base graph to the
// alphabet of a homogeneous factor before forming a lift product.
func (d *Digraph) WithAlphabet(k int) (*Digraph, error) {
	if k < d.alphabet {
		return nil, fmt.Errorf("digraph: cannot shrink alphabet %d to %d", d.alphabet, k)
	}
	b := NewBuilder(d.n, k)
	for v := 0; v < d.n; v++ {
		for _, a := range d.Out(v) {
			if err := b.AddArc(v, a.To, a.Label); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}
