package model

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/digraph"
	"repro/internal/view"
)

// This file is the plane's topology input: the ShardSource contract
// NewShardedEngine builds from, the adapter that lets any materialised
// host be sharded, and the letter-row helpers construction and Init
// share.

// ShardArc is one labelled arc of an implicitly generated host: the
// global id of the other endpoint plus the arc label. It aliases
// digraph.SourceArc so source implementations live below the model.
type ShardArc = digraph.SourceArc

// ShardSource generates a properly labelled host digraph node by
// node, without ever materialising it — digraph.Source, under the
// name the engine API uses. Construction verifies reciprocity for
// every cross-shard arc and fails loudly on inconsistent sources.
type ShardSource = digraph.Source

// hostSource adapts a materialised host to the ShardSource contract,
// so any registry host can be sharded — the differential tests run
// Petersen and random-regular through exactly this adapter.
type hostSource struct{ h *Host }

// SourceOf wraps a materialised host as a ShardSource. The host must
// carry an L-digraph (equip plain graphs with digraph.FromPorts
// first, as every engine workload does).
func SourceOf(h *Host) ShardSource {
	if h.D == nil {
		panic("model: SourceOf needs a host with an L-digraph (use digraph.FromPorts)")
	}
	return hostSource{h: h}
}

func (s hostSource) N() int64      { return int64(s.h.G.N()) }
func (s hostSource) Alphabet() int { return s.h.D.Alphabet() }
func (s hostSource) Degree(v int64) (int, int) {
	return len(s.h.D.Out(int(v))), len(s.h.D.In(int(v)))
}
func (s hostSource) AppendArcs(v int64, out, in []ShardArc) ([]ShardArc, []ShardArc) {
	for _, a := range s.h.D.Out(int(v)) {
		out = append(out, ShardArc{To: int64(a.To), Label: a.Label})
	}
	for _, a := range s.h.D.In(int(v)) {
		in = append(in, ShardArc{To: int64(a.To), Label: a.Label})
	}
	return out, in
}

// mergeLetters merges label-sorted out- and in-arc rows into the
// letter-sorted slot row (out before in on equal labels — exactly the
// Engine's merge), recording each slot's letter and peer.
func mergeLetters(ls []view.Letter, ts []int64, out, in []ShardArc) ([]view.Letter, []int64) {
	i, j := 0, 0
	for i < len(out) || j < len(in) {
		if i < len(out) && (j >= len(in) || out[i].Label <= in[j].Label) {
			ls = append(ls, view.Letter{Label: out[i].Label})
			ts = append(ts, out[i].To)
			i++
		} else {
			ls = append(ls, view.Letter{Label: in[j].Label, In: true})
			ts = append(ts, in[j].To)
			j++
		}
	}
	return ls, ts
}

// hostLetters is mergeLetters over a materialised host's CSR rows,
// without the peers; ls must have capacity for the whole row.
func hostLetters(ls []view.Letter, out, in []digraph.Arc) []view.Letter {
	ls = ls[:len(out)+len(in)]
	i, j := 0, 0
	for k := range ls {
		if j >= len(in) || (i < len(out) && out[i].Label <= in[j].Label) {
			ls[k] = view.Letter{Label: out[i].Label}
			i++
		} else {
			ls[k] = view.Letter{Label: in[j].Label, In: true}
			j++
		}
	}
	return ls
}

// peerSlot returns the local slot index of letter l at a node with
// the given arc rows, verifying the arc at that letter really leads
// back to the expected endpoint. The letters before l are the arcs
// before it in its own row plus the other row's arcs with smaller
// labels (or equal ones, for an in-letter: out before in).
func peerSlot(out, in []ShardArc, l view.Letter, back int64) (int32, error) {
	row, other, dir := out, in, "out"
	if l.In {
		row, other, dir = in, out, "in"
	}
	i := slices.IndexFunc(row, func(a ShardArc) bool { return a.Label == l.Label })
	if i < 0 {
		return 0, fmt.Errorf("no %s-arc labelled %d", dir, l.Label)
	}
	if row[i].To != back {
		return 0, fmt.Errorf("%s-arc labelled %d leads to %d, not %d", dir, l.Label, row[i].To, back)
	}
	for _, a := range other {
		if a.Label < l.Label || (l.In && a.Label == l.Label) {
			i++
		}
	}
	return int32(i), nil
}

// MaterializeSource builds the flat host a ShardSource generates —
// the bridge the implicit-vs-materialised differential tests and the
// unsharded comparison runs use. Only hosts within the int32 flat
// capacity can come back out; giant sources stay implicit.
func MaterializeSource(src ShardSource) (*Host, error) {
	n := src.N()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("model: source has %d nodes, past the flat-CSR capacity %d: host exceeds flat-CSR capacity, use shards", n, int64(math.MaxInt32))
	}
	b := digraph.NewBuilder(int(n), src.Alphabet())
	var out, in []ShardArc
	for v := int64(0); v < n; v++ {
		out, in = src.AppendArcs(v, out[:0], in[:0])
		for _, a := range out {
			if err := b.AddArc(int(v), int(a.To), a.Label); err != nil {
				return nil, fmt.Errorf("model: materialize: %w", err)
			}
		}
	}
	d := b.Build()
	g, err := d.Underlying()
	if err != nil {
		return nil, fmt.Errorf("model: materialize: %w", err)
	}
	return &Host{G: g, D: d}, nil
}
