package host

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/digraph"
)

// This file is the implicit side of the registry: shard sources
// generate a family's host node by node under digraph.Source, so a
// 10^8-node host never materialises. Sources must agree with their
// materialised siblings — cycle and dcycle reproduce the canonical
// digraph.FromPorts / registry labelling exactly (pinned by
// differential tests); torus carries its own canonical
// dimension-indexed labelling (FromPorts compact labels depend on a
// global first-encounter order no local rule can reproduce), and
// shift-regular is registered in both forms from one shift
// derivation, so implicit and materialised agree arc for arc.

var (
	shardMu  sync.RWMutex
	shardReg = map[string]func(p *Params) (digraph.Source, error){}
)

// RegisterShard adds an implicit shard-source builder for a family
// name; duplicate names panic.
func RegisterShard(name string, build func(p *Params) (digraph.Source, error)) {
	if name == "" || build == nil {
		panic("host: RegisterShard needs a name and a build func")
	}
	shardMu.Lock()
	defer shardMu.Unlock()
	if _, dup := shardReg[name]; dup {
		panic(fmt.Sprintf("host: shard family %q registered twice", name))
	}
	shardReg[name] = build
}

// ShardFamilies returns the names of the families that can generate
// shard-locally, sorted — the escape hatch the flat-capacity errors
// point at.
func ShardFamilies() []string {
	shardMu.RLock()
	defer shardMu.RUnlock()
	out := make([]string, 0, len(shardReg))
	for name := range shardReg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ParseShard resolves a descriptor into an implicit shard source.
// The grammar is exactly Parse's; only families with a registered
// source resolve (ShardFamilies lists them).
func ParseShard(desc string) (digraph.Source, error) {
	name, rest := desc, ""
	if i := strings.IndexByte(desc, ':'); i >= 0 {
		name, rest = desc[:i], desc[i+1:]
	}
	shardMu.RLock()
	build, ok := shardReg[name]
	shardMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("host: family %q has no implicit shard source (shard-capable families: %s)",
			name, strings.Join(ShardFamilies(), ", "))
	}
	p, err := parseParams(rest)
	if err != nil {
		return nil, fmt.Errorf("host: descriptor %q: %w", desc, err)
	}
	src, err := build(p)
	if err != nil {
		return nil, fmt.Errorf("host: %s: %w", desc, err)
	}
	if err := p.unusedErr(); err != nil {
		return nil, fmt.Errorf("host: descriptor %q: %w", desc, err)
	}
	return src, nil
}

func init() {
	RegisterShard("cycle", func(p *Params) (digraph.Source, error) {
		n, err := p.Int64("n", 12)
		if err != nil || n < 3 {
			return nil, orErr(err, "need n >= 3")
		}
		return cycleSource{n: n}, nil
	})
	RegisterShard("dcycle", func(p *Params) (digraph.Source, error) {
		n, err := p.Int64("n", 12)
		if err != nil || n < 3 {
			return nil, orErr(err, "need n >= 3")
		}
		return dcycleSource{n: n}, nil
	})
	RegisterShard("torus", func(p *Params) (digraph.Source, error) {
		dims, err := p.Dims("dims", []int{6, 6})
		if err != nil {
			return nil, err
		}
		n := int64(1)
		for _, s := range dims {
			if s < 3 {
				return nil, fmt.Errorf("side %d < 3", s)
			}
			// mulNodes' product check, without the flat cap: a shard
			// source may exceed it, but its node count must fit int64.
			if int64(s) > math.MaxInt64/n {
				return nil, fmt.Errorf("sides %v: node count overflows int64", dims)
			}
			n *= int64(s)
		}
		return newTorusSource(dims), nil
	})
	RegisterShard("shift-regular", func(p *Params) (digraph.Source, error) {
		d, err := p.Int("d", 4)
		if err != nil {
			return nil, err
		}
		n, err := p.Int64("n", 16)
		if err != nil {
			return nil, err
		}
		seed, err := p.Int64("seed", 1)
		if err != nil {
			return nil, err
		}
		if n > int64(int(^uint(0)>>1)) {
			return nil, fmt.Errorf("n=%d out of range", n)
		}
		shifts, err := shiftRegularShifts(int(n), d, seed)
		if err != nil {
			return nil, err
		}
		s64 := make([]int64, len(shifts))
		for i, s := range shifts {
			s64[i] = int64(s)
		}
		return shiftSource{n: n, shifts: s64}, nil
	})
}

// cycleSource generates the undirected n-cycle with exactly the
// canonical labelling digraph.FromPorts(graph.Cycle(n), nil) assigns:
// compact labels in first-encounter order over the lexicographic edge
// sweep, which for a cycle closes to three labels — (1,1) on 0->1,
// (2,1) on every other forward arc and on 0->n-1, (2,2) on the last
// arc n-2 -> n-1. The equality is pinned by a differential test.
type cycleSource struct{ n int64 }

func (c cycleSource) N() int64      { return c.n }
func (c cycleSource) Alphabet() int { return 3 }

func (c cycleSource) Degree(v int64) (int, int) {
	switch v {
	case 0:
		return 2, 0
	case c.n - 1:
		return 0, 2
	default:
		return 1, 1
	}
}

func (c cycleSource) AppendArcs(v int64, out, in []digraph.SourceArc) ([]digraph.SourceArc, []digraph.SourceArc) {
	n := c.n
	switch {
	case v == 0:
		out = append(out, digraph.SourceArc{To: 1, Label: 0}, digraph.SourceArc{To: n - 1, Label: 1})
	case v == n-1:
		in = append(in, digraph.SourceArc{To: 0, Label: 1}, digraph.SourceArc{To: n - 2, Label: 2})
	default:
		lbl := 1
		if v == n-2 {
			lbl = 2
		}
		out = append(out, digraph.SourceArc{To: v + 1, Label: lbl})
		prev := 1
		if v == 1 {
			prev = 0
		}
		in = append(in, digraph.SourceArc{To: v - 1, Label: prev})
	}
	return out, in
}

// dcycleSource generates the consistently oriented directed n-cycle
// with the registry's labelling: every arc i -> i+1 mod n carries
// label 0.
type dcycleSource struct{ n int64 }

func (c dcycleSource) N() int64                { return c.n }
func (c dcycleSource) Alphabet() int           { return 1 }
func (c dcycleSource) Degree(int64) (int, int) { return 1, 1 }

func (c dcycleSource) AppendArcs(v int64, out, in []digraph.SourceArc) ([]digraph.SourceArc, []digraph.SourceArc) {
	out = append(out, digraph.SourceArc{To: (v + 1) % c.n, Label: 0})
	in = append(in, digraph.SourceArc{To: (v - 1 + c.n) % c.n, Label: 0})
	return out, in
}

// torusSource generates the k-dimensional torus (row-major node ids,
// matching graph.Torus) under its own canonical labelling: the +1
// step along dimension e is the out-arc labelled e, the -1 step the
// in-arc labelled e. This is a proper labelling (one out- and one
// in-label per dimension) but NOT the FromPorts compact labelling —
// the implicit torus is its own host family variant, and sharded
// runs compare against its materialised form via
// model.MaterializeSource.
type torusSource struct {
	dims   []int64
	stride []int64
	n      int64
}

func newTorusSource(dims []int) torusSource {
	k := len(dims)
	t := torusSource{dims: make([]int64, k), stride: make([]int64, k), n: 1}
	for i, s := range dims {
		t.dims[i] = int64(s)
		t.n *= int64(s)
	}
	st := int64(1)
	for e := k - 1; e >= 0; e-- {
		t.stride[e] = st
		st *= t.dims[e]
	}
	return t
}

func (t torusSource) N() int64      { return t.n }
func (t torusSource) Alphabet() int { return len(t.dims) }
func (t torusSource) Degree(int64) (int, int) {
	return len(t.dims), len(t.dims)
}

func (t torusSource) AppendArcs(v int64, out, in []digraph.SourceArc) ([]digraph.SourceArc, []digraph.SourceArc) {
	for e := range t.dims {
		s, st := t.dims[e], t.stride[e]
		c := (v / st) % s
		fwd := v + (((c+1)%s)-c)*st
		bwd := v + (((c-1+s)%s)-c)*st
		out = append(out, digraph.SourceArc{To: fwd, Label: e})
		in = append(in, digraph.SourceArc{To: bwd, Label: e})
	}
	return out, in
}

// shiftSource generates the shift-regular circulant implicitly: the
// out-arc labelled j goes to v + shifts[j] mod n, mirroring the
// materialised family's builder loop exactly.
type shiftSource struct {
	n      int64
	shifts []int64
}

func (c shiftSource) N() int64      { return c.n }
func (c shiftSource) Alphabet() int { return len(c.shifts) }
func (c shiftSource) Degree(int64) (int, int) {
	return len(c.shifts), len(c.shifts)
}

func (c shiftSource) AppendArcs(v int64, out, in []digraph.SourceArc) ([]digraph.SourceArc, []digraph.SourceArc) {
	for j, s := range c.shifts {
		out = append(out, digraph.SourceArc{To: (v + s) % c.n, Label: j})
		in = append(in, digraph.SourceArc{To: (v - s + c.n) % c.n, Label: j})
	}
	return out, in
}
