package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The generators below fill CSR rows directly. Each is pinned against
// a Builder-built reference, the construction the package used before,
// array for array: a generator that diverges from it changes every
// host, id draw and golden downstream.

func builderCycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.MustAddEdge(i, (i+1)%n)
	}
	return b.Build()
}

func builderTorus(sides ...int) *Graph {
	n := 1
	for _, s := range sides {
		n *= s
	}
	b := NewBuilder(n)
	coord := make([]int, len(sides))
	for v := 0; v < n; v++ {
		x := v
		for d := len(sides) - 1; d >= 0; d-- {
			coord[d] = x % sides[d]
			x /= sides[d]
		}
		for d := range sides {
			old := coord[d]
			coord[d] = (old + 1) % sides[d]
			u := 0
			for e := 0; e < len(sides); e++ {
				u = u*sides[e] + coord[e]
			}
			coord[d] = old
			if !b.HasEdge(v, u) {
				b.MustAddEdge(v, u)
			}
		}
	}
	return b.Build()
}

func builderRandomRegular(n, d int, rng *rand.Rand) *Graph {
	stubs := make([]int, 0, n*d)
	for {
		stubs = stubs[:0]
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		b := NewBuilder(n)
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v || b.HasEdge(u, v) {
				ok = false
				break
			}
			b.MustAddEdge(u, v)
		}
		if ok {
			return b.Build()
		}
	}
}

func sameCSR(got, want *Graph) error {
	if got.n != want.n || got.m != want.m {
		return fmt.Errorf("n, m = %d, %d, want %d, %d", got.n, got.m, want.n, want.m)
	}
	if !slices.Equal(got.off, want.off) {
		return fmt.Errorf("offsets differ")
	}
	if !slices.Equal(got.nbr, want.nbr) {
		return fmt.Errorf("neighbour arrays differ")
	}
	return nil
}

func TestCycleMatchesBuilder(t *testing.T) {
	for _, n := range []int{3, 4, 5, 17, 1000} {
		if err := sameCSR(Cycle(n), builderCycle(n)); err != nil {
			t.Errorf("Cycle(%d): %v", n, err)
		}
	}
}

func TestTorusMatchesBuilder(t *testing.T) {
	for _, sides := range [][]int{{3}, {7}, {3, 3}, {6, 6}, {5, 8}, {3, 4, 5}, {3, 3, 3}, {4, 3, 3, 5}} {
		if err := sameCSR(Torus(sides...), builderTorus(sides...)); err != nil {
			t.Errorf("Torus(%v): %v", sides, err)
		}
	}
}

// TestRandomRegularMatchesBuilder also compares the generator's next
// draw, so both consume the same stream across their restarts.
func TestRandomRegularMatchesBuilder(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{4, 3}, {10, 3}, {14, 3}, {16, 4}, {50, 5}, {1000, 3}, {200, 2}} {
		for seed := int64(1); seed <= 5; seed++ {
			r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := RandomRegular(tc.n, tc.d, r1), builderRandomRegular(tc.n, tc.d, r2)
			if err := sameCSR(got, want); err != nil {
				t.Errorf("RandomRegular(%d,%d) seed %d: %v", tc.n, tc.d, seed, err)
			}
			if a, b := r1.Int63(), r2.Int63(); a != b {
				t.Errorf("RandomRegular(%d,%d) seed %d: next draw %d, Builder path %d", tc.n, tc.d, seed, a, b)
			}
		}
	}
}

func TestRandomRegularRestartCap(t *testing.T) {
	// A 12-regular graph on 13 vertices is K_13: the pairing model
	// essentially never draws it.
	if _, err := TryRandomRegular(13, 12, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("TryRandomRegular(13, 12) succeeded; want the restart-cap error")
	}
	for _, tc := range []struct{ n, d int }{{5, 3}, {4, 4}} {
		if _, err := TryRandomRegular(tc.n, tc.d, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("TryRandomRegular(%d, %d) accepted invalid parameters", tc.n, tc.d)
		}
	}
}

// TestFromCSRRejectsAsymmetric: FromCSR is the generators' one check,
// so its symmetry test must catch a missing mirror whether or not the
// upward and downward entry counts balance.
func TestFromCSRRejectsAsymmetric(t *testing.T) {
	for _, tc := range []struct {
		name     string
		off, nbr []int32
		want     string
	}{
		{"unbalanced", []int32{0, 1, 1, 1}, []int32{1}, "not symmetric"},
		// 0-1 has no mirror in row 1, and 2-0 none in row 0.
		{"balanced", []int32{0, 1, 1, 2}, []int32{1, 0}, "missing its mirror"},
	} {
		_, err := FromCSR(tc.off, tc.nbr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
