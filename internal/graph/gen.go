package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// Cycle returns the n-cycle, n >= 3.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: Cycle(%d): need n >= 3", n))
	}
	off, nbr := regularCSR(n, 2)
	for v := 0; v < n; v++ {
		nbr[2*v] = int32((v + n - 1) % n)
		nbr[2*v+1] = int32((v + 1) % n)
	}
	return mustCSR(off, nbr)
}

// regularCSR allocates the CSR arrays of a d-regular graph on n
// vertices, offsets filled (row v is nbr[v*d:(v+1)*d]), for the
// generators that write their rows directly and finish through
// FromCSR. It panics past the flat capacity, as NewBuilder does.
func regularCSR(n, d int) ([]int32, []int32) {
	if int64(n) > FlatCapacity {
		panic(capacityErr("vertex count", int64(n)))
	}
	if arcs := int64(n) * int64(d); arcs > FlatCapacity {
		panic(capacityErr("arc count", arcs))
	}
	off := make([]int32, n+1)
	for v := range off {
		off[v] = int32(v * d)
	}
	return off, make([]int32, n*d)
}

// mustCSR is FromCSR for generators whose rows are valid by
// construction: an error is a generator bug.
func mustCSR(off, nbr []int32) *Graph {
	g, err := FromCSR(off, nbr)
	if err != nil {
		panic(err)
	}
	return g
}

// Path returns the path on n vertices (n-1 edges).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.MustAddEdge(i, i+1)
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.MustAddEdge(i, j)
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b} with parts {0..a-1} and {a..a+b-1}.
func CompleteBipartite(a, b int) *Graph {
	bu := NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bu.MustAddEdge(i, a+j)
		}
	}
	return bu.Build()
}

// Star returns the star K_{1,k} with centre 0.
func Star(k int) *Graph {
	b := NewBuilder(k + 1)
	for i := 1; i <= k; i++ {
		b.MustAddEdge(0, i)
	}
	return b.Build()
}

// Grid returns the rows x cols grid graph. Vertex (i, j) is i*cols+j.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				b.MustAddEdge(id(i, j), id(i, j+1))
			}
			if i+1 < rows {
				b.MustAddEdge(id(i, j), id(i+1, j))
			}
		}
	}
	return b.Build()
}

// Grid3D returns the nx x ny x nz three-dimensional grid graph
// (no wrap-around; the wrapped form is Torus(nx, ny, nz)). Vertex
// (i, j, k) is (i*ny+j)*nz+k.
func Grid3D(nx, ny, nz int) *Graph {
	b := NewBuilder(nx * ny * nz)
	id := func(i, j, k int) int { return (i*ny+j)*nz + k }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				if i+1 < nx {
					b.MustAddEdge(id(i, j, k), id(i+1, j, k))
				}
				if j+1 < ny {
					b.MustAddEdge(id(i, j, k), id(i, j+1, k))
				}
				if k+1 < nz {
					b.MustAddEdge(id(i, j, k), id(i, j, k+1))
				}
			}
		}
	}
	return b.Build()
}

// MargulisExpander returns the Margulis-type expander on Z_n x Z_n in
// its Gabber–Galil form: (x, y) is joined to (x±2y, y), (x±(2y+1), y),
// (x, y±2x) and (x, y±(2x+1)), all mod n. The underlying simple graph
// has maximum degree 8; coincident images (small n, fixed points) are
// deduplicated, so low-degree vertices can occur. Spectral expansion
// of the family is classical; here it serves as a constant-degree
// host with girth and growth behaviour unlike the paper's tori.
func MargulisExpander(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: MargulisExpander(%d): need n >= 2", n))
	}
	b := NewBuilder(n * n)
	id := func(x, y int) int { return x*n + y }
	mod := func(x int) int {
		x %= n
		if x < 0 {
			x += n
		}
		return x
	}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			v := id(x, y)
			for _, u := range []int{
				id(mod(x+2*y), y),
				id(mod(x+2*y+1), y),
				id(x, mod(y+2*x)),
				id(x, mod(y+2*x+1)),
			} {
				if u != v && !b.HasEdge(v, u) {
					b.MustAddEdge(v, u)
				}
			}
		}
	}
	return b.Build()
}

// Torus returns the cartesian product of cycles with the given side
// lengths: the k-dimensional toroidal grid of Section 3.2. Every side
// must be at least 3 so the result is simple. Vertex coordinates are
// mixed-radix encoded with the last dimension fastest.
func Torus(sides ...int) *Graph {
	n := 1
	for _, s := range sides {
		if s < 3 {
			panic(fmt.Sprintf("graph: Torus side %d < 3", s))
		}
		n *= s
	}
	k := len(sides)
	off, nbr := regularCSR(n, 2*k)
	// The ±1 steps in dimension d move v by ±stride, wrapping within
	// the block of side*stride vertices that shares the outer
	// coordinates.
	stride := 1
	for d := k - 1; d >= 0; d-- {
		s := sides[d]
		for v := 0; v < n; v++ {
			c := v / stride % s
			up, down := v+stride, v-stride
			if c == s-1 {
				up -= s * stride
			}
			if c == 0 {
				down += s * stride
			}
			nbr[2*k*v+2*d] = int32(up)
			nbr[2*k*v+2*d+1] = int32(down)
		}
		stride *= s
	}
	return mustCSR(off, nbr)
}

// TorusCoord returns the vertex index of the given coordinates in
// Torus(sides...).
func TorusCoord(sides []int, coord ...int) int {
	if len(coord) != len(sides) {
		panic("graph: TorusCoord dimension mismatch")
	}
	v := 0
	for d := range sides {
		c := coord[d] % sides[d]
		if c < 0 {
			c += sides[d]
		}
		v = v*sides[d] + c
	}
	return v
}

// Hypercube returns the k-dimensional hypercube graph on 2^k vertices.
func Hypercube(k int) *Graph {
	n := 1 << k
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for d := 0; d < k; d++ {
			u := v ^ (1 << d)
			if u > v {
				b.MustAddEdge(v, u)
			}
		}
	}
	return b.Build()
}

// Petersen returns the Petersen graph (3-regular, girth 5, 10 vertices).
func Petersen() *Graph {
	b := NewBuilder(10)
	for i := 0; i < 5; i++ {
		b.MustAddEdge(i, (i+1)%5)     // outer 5-cycle
		b.MustAddEdge(5+i, 5+(i+2)%5) // inner pentagram
		b.MustAddEdge(i, 5+i)         // spokes
	}
	return b.Build()
}

// Circulant returns the circulant graph C_n(S): vertices Z_n, with v
// adjacent to v±s for each s in offsets. Offsets must satisfy
// 0 < s <= n/2; an offset equal to n/2 contributes a single edge.
func Circulant(n int, offsets ...int) *Graph {
	b := NewBuilder(n)
	for _, s := range offsets {
		if s <= 0 || 2*s > n {
			panic(fmt.Sprintf("graph: Circulant offset %d out of range for n=%d", s, n))
		}
		for v := 0; v < n; v++ {
			u := (v + s) % n
			if !b.HasEdge(v, u) {
				b.MustAddEdge(v, u)
			}
		}
	}
	return b.Build()
}

// CompleteBinaryTree returns the complete binary tree with the given
// number of levels (level 1 is a single root).
func CompleteBinaryTree(levels int) *Graph {
	n := 1<<levels - 1
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.MustAddEdge(v, (v-1)/2)
	}
	return b.Build()
}

// RandomRegular returns a random d-regular graph on n vertices generated
// by the pairing model with restarts (n*d must be even, 0 <= d < n). The
// result is simple; generation retries until a simple matching of
// half-edge stubs is found. It panics where TryRandomRegular errs.
func RandomRegular(n, d int, rng *rand.Rand) *Graph {
	g, err := TryRandomRegular(n, d, rng)
	if err != nil {
		panic(err)
	}
	return g
}

// TryRandomRegular is RandomRegular for parameters from outside: bad
// parameters and a pairing model that needs more than 10000 restarts
// (large d, where a simple pairing is vanishingly rare) are errors.
//
// Each attempt fills one flat stride-d row array (row v is
// nbr[v*d:v*d+deg[v]]) that is reused across restarts; a loop or a
// repeated edge rejects the attempt at the first offending stub pair.
func TryRandomRegular(n, d int, rng *rand.Rand) (*Graph, error) {
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular(%d,%d): n*d must be even", n, d)
	}
	if d < 0 || d >= n {
		return nil, fmt.Errorf("graph: RandomRegular(%d,%d): need 0 <= d < n", n, d)
	}
	off, nbr := regularCSR(n, d)
	stubs := make([]int32, n*d)
	deg := make([]int32, n)
	for attempt := 0; ; attempt++ {
		if attempt > 10000 {
			return nil, fmt.Errorf("graph: RandomRegular(%d,%d): too many restarts", n, d)
		}
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs[v*d+i] = int32(v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		clear(deg)
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v || slices.Contains(nbr[int(u)*d:int(u)*d+int(deg[u])], v) {
				ok = false
				break
			}
			nbr[int(u)*d+int(deg[u])] = v
			deg[u]++
			nbr[int(v)*d+int(deg[v])] = u
			deg[v]++
		}
		if ok {
			return mustCSR(off, nbr), nil
		}
	}
}

// RandomGraph returns a G(n, p) Erdős–Rényi graph.
func RandomGraph(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// Disjoint returns the disjoint union of the given graphs, with vertex
// blocks in argument order.
func Disjoint(gs ...*Graph) *Graph {
	n := 0
	for _, g := range gs {
		n += g.N()
	}
	b := NewBuilder(n)
	off := 0
	for _, g := range gs {
		for _, e := range g.Edges() {
			b.MustAddEdge(off+e.U, off+e.V)
		}
		off += g.N()
	}
	return b.Build()
}
