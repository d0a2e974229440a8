package digraph

import (
	"strings"
	"testing"
)

// TestDirectedCycleMatchesBuilder pins DirectedCycle against the
// Builder loop it replaces, CSR array for CSR array.
func TestDirectedCycleMatchesBuilder(t *testing.T) {
	for _, n := range []int{0, 2, 3, 4, 9, 1000} {
		if got, want := DirectedCycle(n), directedCycle(n); !sameDigraph(got, want) {
			t.Errorf("DirectedCycle(%d) differs from the Builder-built cycle", n)
		}
	}
	mustPanic(t, "DirectedCycle(1)", func() { DirectedCycle(1) })
	mustPanic(t, "DirectedCycle(-1)", func() { DirectedCycle(-1) })
}

// TestFromCSRRejects: the flat validation pass re-checks everything
// Builder.AddArc enforces. Each case breaks one rule in a 3-node
// digraph assembled straight into CSR form.
func TestFromCSRRejects(t *testing.T) {
	type csr struct {
		alphabet      int
		outOff, inOff []int32
		out, in       []Arc
	}
	// valid: 0 -> 1 (label 0), 1 -> 2 (label 0), 2 -> 0 (label 1).
	valid := func() csr {
		return csr{
			alphabet: 2,
			outOff:   []int32{0, 1, 2, 3},
			out:      []Arc{{To: 1, Label: 0}, {To: 2, Label: 0}, {To: 0, Label: 1}},
			inOff:    []int32{0, 1, 2, 3},
			in:       []Arc{{To: 2, Label: 1}, {To: 0, Label: 0}, {To: 1, Label: 0}},
		}
	}
	c := valid()
	if _, err := fromCSR(3, c.alphabet, c.outOff, c.out, c.inOff, c.in); err != nil {
		t.Fatalf("valid digraph rejected: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(c *csr)
	}{
		{"repeated out-label", "already has out-label", func(c *csr) {
			// 0 -> 1 and 0 -> 2, both labelled 0.
			c.outOff = []int32{0, 2, 2, 3}
			c.out = []Arc{{To: 1, Label: 0}, {To: 2, Label: 0}, {To: 0, Label: 1}}
			c.in = []Arc{{To: 2, Label: 1}, {To: 0, Label: 0}, {To: 0, Label: 0}}
		}},
		{"repeated in-label", "already has in-label", func(c *csr) {
			c.inOff = []int32{0, 0, 3, 3}
			c.in = []Arc{{To: 0, Label: 0}, {To: 2, Label: 1}, {To: 2, Label: 1}}
		}},
		{"missing mirror", "no mirrored in-arc", func(c *csr) {
			c.in[0] = Arc{To: 1, Label: 1}
		}},
		{"self-loop", "self-loop", func(c *csr) {
			c.out[0] = Arc{To: 0, Label: 0}
		}},
		{"label out of range", "out of range", func(c *csr) {
			c.out[2].Label, c.in[0].Label = 2, 2
		}},
		{"endpoint out of range", "out of range", func(c *csr) {
			c.out[1].To = 3
		}},
		{"unequal arc counts", "in-arcs", func(c *csr) {
			c.inOff = []int32{0, 1, 2, 2}
			c.in = c.in[:2]
		}},
		{"bad offsets", "offsets", func(c *csr) {
			c.outOff = []int32{0, 1, 0, 3}
		}},
	} {
		c := valid()
		tc.mutate(&c)
		_, err := fromCSR(3, c.alphabet, c.outOff, c.out, c.inOff, c.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
