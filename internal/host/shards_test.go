package host

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/model"
)

// TestParseRejectsOverCapacity: descriptors whose derived size cannot
// fit the int32 flat-CSR substrate fail at parse time — fast, with no
// giant allocation — and the error points at the sharded escape
// hatch by name.
func TestParseRejectsOverCapacity(t *testing.T) {
	cases := []string{
		"torus:100000x100000",
		"grid:70000x70000",
		"grid3d:2000x2000x2000",
		"complete:100000",
		"cycle:3000000000",
		"dcycle:2200000000",
		"path:2147483648",
		"circulant:200000000,1+2+3+4+5+6",
		"random-regular:d=30,n=100000000,seed=1",
		"shift-regular:d=30,n=100000000,seed=1",
		"lift:cycle:2000000,l=2000",
	}
	for _, desc := range cases {
		_, err := Parse(desc)
		if err == nil {
			t.Errorf("Parse(%q): expected a flat-capacity error, got nil", desc)
			continue
		}
		for _, want := range []string{
			"exceeds the flat-CSR int32 capacity",
			"use shards",
			"shard-capable families:",
			"torus", // at least one real family must be named
		} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Parse(%q) error %q: missing %q", desc, err, want)
			}
		}
	}
}

// TestCheckFlatBoundary pins the exact capacity boundary without
// allocating anything.
func TestCheckFlatBoundary(t *testing.T) {
	if err := checkFlat(graph.FlatCapacity, graph.FlatCapacity); err != nil {
		t.Fatalf("checkFlat at capacity: %v", err)
	}
	if err := checkFlat(graph.FlatCapacity+1, 0); err == nil {
		t.Fatal("checkFlat(cap+1 nodes) accepted")
	}
	if err := checkFlat(0, graph.FlatCapacity+1); err == nil {
		t.Fatal("checkFlat(cap+1 arcs) accepted")
	}
}

// TestMulNodesOverflow: the dimension product stops at the first
// over-capacity prefix instead of overflowing int64.
func TestMulNodesOverflow(t *testing.T) {
	if n, err := mulNodes([]int{10, 20, 30}); err != nil || n != 6000 {
		t.Fatalf("mulNodes(10,20,30) = %d, %v", n, err)
	}
	for _, dims := range [][]int{
		{100000, 100000},
		{46341, 46341}, // 46341^2 = 2147488281, just past 2^31-1
		{1 << 20, 1 << 20, 1 << 20, 1 << 20}, // would overflow int64 without the prefix check
	} {
		if _, err := mulNodes(dims); err == nil {
			t.Errorf("mulNodes(%v) accepted", dims)
		}
	}
}

// TestShiftRegularFamily: the materialised shift-regular host is
// d-regular with a proper d/2-label orientation, and invalid
// parameters are rejected.
func TestShiftRegularFamily(t *testing.T) {
	h := MustParse("shift-regular:d=4,n=16,seed=7")
	if h.G.N() != 16 {
		t.Fatalf("n = %d", h.G.N())
	}
	for v := 0; v < h.G.N(); v++ {
		if h.G.Degree(v) != 4 {
			t.Fatalf("node %d has degree %d, want 4", v, h.G.Degree(v))
		}
		if len(h.D.Out(v)) != 2 || len(h.D.In(v)) != 2 {
			t.Fatalf("node %d has out/in %d/%d, want 2/2", v, len(h.D.Out(v)), len(h.D.In(v)))
		}
	}
	for _, bad := range []string{
		"shift-regular:d=3,n=16,seed=1", // odd degree
		"shift-regular:d=8,n=7,seed=1",  // d/2 > (n-1)/2
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestShardFamiliesAndParseShard: the implicit registry lists its
// families, resolves their descriptors and rejects the rest by
// pointing at what it can do.
func TestShardFamiliesAndParseShard(t *testing.T) {
	fams := ShardFamilies()
	for _, want := range []string{"cycle", "dcycle", "torus", "shift-regular"} {
		if !slices.Contains(fams, want) {
			t.Errorf("ShardFamilies() = %v: missing %q", fams, want)
		}
	}
	src, err := ParseShard("cycle:12")
	if err != nil {
		t.Fatalf("ParseShard(cycle:12): %v", err)
	}
	if src.N() != 12 || src.Alphabet() != 3 {
		t.Fatalf("cycle:12 source: n=%d alphabet=%d", src.N(), src.Alphabet())
	}
	if _, err := ParseShard("petersen"); err == nil ||
		!strings.Contains(err.Error(), "no implicit shard source") ||
		!strings.Contains(err.Error(), "shard-capable families:") {
		t.Fatalf("ParseShard(petersen) = %v", err)
	}
	if _, err := ParseShard("cycle:nope"); err == nil {
		t.Fatal("ParseShard(cycle:nope) accepted")
	}
	// The implicit grammar accepts sizes the flat registry cannot:
	// the whole point of the sources.
	big, err := ParseShard("dcycle:3000000000")
	if err != nil || big.N() != 3000000000 {
		t.Fatalf("ParseShard(dcycle:3000000000): n=%v err=%v", big, err)
	}
}

// sameDigraph asserts two labelled digraphs are arc-for-arc equal.
func sameDigraph(t *testing.T, name string, got, want *digraph.Digraph) {
	t.Helper()
	if got.N() != want.N() || got.Alphabet() != want.Alphabet() {
		t.Fatalf("%s: n/alphabet %d/%d, want %d/%d", name, got.N(), got.Alphabet(), want.N(), want.Alphabet())
	}
	for v := 0; v < want.N(); v++ {
		if !slices.Equal(got.Out(v), want.Out(v)) {
			t.Fatalf("%s: node %d out arcs %v, want %v", name, v, got.Out(v), want.Out(v))
		}
		if !slices.Equal(got.In(v), want.In(v)) {
			t.Fatalf("%s: node %d in arcs %v, want %v", name, v, got.In(v), want.In(v))
		}
	}
}

// TestCycleSourceMatchesFromPorts pins the cycle source's closed-form
// labelling to the canonical digraph.FromPorts(graph.Cycle(n), nil)
// labelling, arc for arc — the equality the source's comment promises.
func TestCycleSourceMatchesFromPorts(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8, 12, 33} {
		src, err := ParseShard(fmt.Sprintf("cycle:%d", n))
		if err != nil {
			t.Fatal(err)
		}
		got, err := model.MaterializeSource(src)
		if err != nil {
			t.Fatalf("materialize cycle:%d: %v", n, err)
		}
		sameDigraph(t, fmt.Sprintf("cycle:%d", n), got.D, digraph.FromPorts(graph.Cycle(n), nil).D)
	}
}

// TestDcycleSourceMatchesRegistry: the implicit oriented cycle equals
// the materialised registry family.
func TestDcycleSourceMatchesRegistry(t *testing.T) {
	for _, n := range []int{3, 7, 12} {
		desc := fmt.Sprintf("dcycle:%d", n)
		src, err := ParseShard(desc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := model.MaterializeSource(src)
		if err != nil {
			t.Fatal(err)
		}
		sameDigraph(t, desc, got.D, MustParse(desc).D)
	}
}

// TestShiftRegularSourceMatchesRegistry: one shift derivation feeds
// both registrations, so implicit and materialised shift-regular
// hosts agree arc for arc.
func TestShiftRegularSourceMatchesRegistry(t *testing.T) {
	for _, desc := range []string{
		"shift-regular:d=4,n=16,seed=7",
		"shift-regular:d=6,n=31,seed=3",
		"shift-regular:d=2,n=5,seed=1",
	} {
		src, err := ParseShard(desc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := model.MaterializeSource(src)
		if err != nil {
			t.Fatal(err)
		}
		sameDigraph(t, desc, got.D, MustParse(desc).D)
	}
}

// TestTorusSourceUnderlyingMatchesRegistry: the implicit torus
// carries its own dimension-indexed labelling, but its underlying
// graph must be exactly the registry torus — same row-major ids,
// same edges.
func TestTorusSourceUnderlyingMatchesRegistry(t *testing.T) {
	for _, desc := range []string{"torus:4x4", "torus:3x4x5", "torus:3x3"} {
		src, err := ParseShard(desc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := model.MaterializeSource(src)
		if err != nil {
			t.Fatalf("materialize %s: %v", desc, err)
		}
		want := MustParse(desc).G
		if got.G.N() != want.N() {
			t.Fatalf("%s: n = %d, want %d", desc, got.G.N(), want.N())
		}
		for v := 0; v < want.N(); v++ {
			if !slices.Equal(got.G.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("%s: node %d neighbours %v, want %v", desc, v, got.G.Neighbors(v), want.Neighbors(v))
			}
		}
	}
}

// TestTorusSourceRejectsOverflow: the implicit torus may exceed the
// flat cap, but its node count must fit int64 — side products that
// wrap (to 8589934593 for 2^32+1 squared, negative just past 2^31.5
// squared) are errors, not giant or negative hosts.
func TestTorusSourceRejectsOverflow(t *testing.T) {
	for _, desc := range []string{"torus:4294967297x4294967297", "torus:3037000500x3037000500", "torus:3x1099511627776x3x1099511627776"} {
		if src, err := ParseShard(desc); err == nil || !strings.Contains(err.Error(), "overflows int64") {
			t.Errorf("ParseShard(%q) = %v, err %v; want the int64 overflow error", desc, src, err)
		}
	}
	src, err := ParseShard("torus:3037000499x3037000499")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3037000499) * 3037000499; src.N() != want {
		t.Fatalf("N = %d, want %d", src.N(), want)
	}
}
