package algorithms

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/host"
	"repro/internal/model"
)

// mustEngineHost resolves a registry descriptor into an engine-ready
// host, equipping plain graph families with the canonical labelling.
func mustEngineHost(t *testing.T, desc string) *model.Host {
	t.Helper()
	hh := host.MustParse(desc)
	if hh.D != nil {
		h, err := model.NewHost(hh.D)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	return model.HostFromGraph(hh.G)
}

// TestShardedCVMatchesFlat: the sharded Cole–Vishkin port reproduces
// the flat run node for node — same colours, same membership, same
// round count — at P=1, 2 and 8, with SeededIDs feeding both planes.
func TestShardedCVMatchesFlat(t *testing.T) {
	for _, n := range []int{12, 64, 97} {
		h := mustEngineHost(t, fmt.Sprintf("dcycle:%d", n))
		idf := model.SeededIDs(int64(n), 11)
		ids := make([]int, n)
		for v := range ids {
			ids[v] = idf(int64(v))
		}
		flat, err := ColeVishkinMIS(h, ids)
		if err != nil {
			t.Fatalf("n=%d flat: %v", n, err)
		}
		for _, p := range []int{1, 2, 8} {
			se, err := model.NewShardedEngine(model.SourceOf(h), p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := coleVishkinSharded(se, idf, n-1, nil)
			if err != nil {
				t.Fatalf("n=%d P=%d: %v", n, p, err)
			}
			if res.Rounds != flat.Rounds {
				t.Fatalf("n=%d P=%d: rounds %d, want %d", n, p, res.Rounds, flat.Rounds)
			}
			misSize := int64(0)
			se.VisitStates(func(v int64, w uint64) {
				c, member := CVState(w)
				if c != flat.Colors[v] || member != flat.MIS.Vertices[v] {
					t.Fatalf("n=%d P=%d node %d: (colour %d, member %v), want (%d, %v)",
						n, p, v, c, member, flat.Colors[v], flat.MIS.Vertices[v])
				}
				if member {
					misSize++
				}
			})
			if res.MISSize != misSize || res.Violations != 0 || res.Uncovered != 0 {
				t.Fatalf("n=%d P=%d: result %+v disagrees with states (mis %d)", n, p, res, misSize)
			}
		}
	}
}

// TestShardedCVFaultyMatchesFlat: under the E17 fault profiles the
// sharded run degrades identically — same survivor MIS, same safety
// counts, same fault report.
func TestShardedCVFaultyMatchesFlat(t *testing.T) {
	const n = 60
	h := mustEngineHost(t, fmt.Sprintf("dcycle:%d", n))
	idf := model.SeededIDs(int64(n), 5)
	ids := make([]int, n)
	for v := range ids {
		ids[v] = idf(int64(v))
	}
	for _, prof := range []string{"lossy:p=0.2", "crash:f=5,by=4", "crash:f=4,by=3,recover=6", "dup+reorder:p=0.3"} {
		pr := model.MustParseProfile(prof)
		flat, err := coleVishkin(model.NewEngine(h), h, ids, pr.New(h, 77))
		if err != nil {
			t.Fatalf("%s flat: %v", prof, err)
		}
		for _, p := range []int{1, 2, 8} {
			se, err := model.NewShardedEngine(model.SourceOf(h), p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := coleVishkinSharded(se, idf, n-1, pr.New(h, 77))
			if err != nil {
				t.Fatalf("%s P=%d: %v", prof, p, err)
			}
			if res.Rounds != flat.Rounds {
				t.Fatalf("%s P=%d: rounds %d, want %d", prof, p, res.Rounds, flat.Rounds)
			}
			if int(res.Violations) != flat.Violations || int(res.Uncovered) != flat.Uncovered {
				t.Fatalf("%s P=%d: safety (%d,%d), want (%d,%d)",
					prof, p, res.Violations, res.Uncovered, flat.Violations, flat.Uncovered)
			}
			fr, sr := flat.Report, res.Report
			if sr.Dropped != fr.Dropped || sr.Duplicated != fr.Duplicated ||
				sr.Reordered != fr.Reordered || sr.DownSteps != fr.DownSteps ||
				sr.NumCrashed != fr.NumCrashed {
				t.Fatalf("%s P=%d: report %+v, want %+v", prof, p, sr, fr)
			}
			se.VisitStates(func(v int64, w uint64) {
				if sr.CrashedNode(int(v)) {
					return
				}
				_, member := CVState(w)
				if member != flat.MIS.Vertices[v] {
					t.Fatalf("%s P=%d node %d: member %v, want %v", prof, p, v, member, flat.MIS.Vertices[v])
				}
			})
		}
	}
}

// shardedEdges collects the sharded matching's edge set in flat edge
// form.
func shardedEdges(se *model.Engine, crashed func(int64) bool) map[graph.Edge]bool {
	out := map[graph.Edge]bool{}
	VisitShardedMatching(se, crashed, func(u, v int64) {
		out[graph.NewEdge(int(u), int(v))] = true
	})
	return out
}

// TestShardedMatchingMatchesFlat: same seed, same edges — the
// in-Init rng draw reproduces the flat pre-drawn proposal stream.
func TestShardedMatchingMatchesFlat(t *testing.T) {
	for _, desc := range []string{"petersen", "torus:4x4", "dcycle:12", "shift-regular:d=4,n=18,seed=9", "cycle:13"} {
		h := mustEngineHost(t, desc)
		flat := RandomizedMatching(h, rand.New(rand.NewSource(99)))
		for _, p := range []int{1, 2, 8} {
			se, err := model.NewShardedEngine(model.SourceOf(h), p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := randomizedMatchingSharded(se, rand.New(rand.NewSource(99)), nil)
			if err != nil {
				t.Fatalf("%s P=%d: %v", desc, p, err)
			}
			if res.Conflicts != 0 {
				t.Fatalf("%s P=%d: %d conflicts", desc, p, res.Conflicts)
			}
			if res.Proposals != int64(h.G.N()) {
				t.Fatalf("%s P=%d: %d proposals, want %d", desc, p, res.Proposals, h.G.N())
			}
			got := shardedEdges(se, nil)
			if int(res.Matched) != len(got) || len(got) != flat.Size() {
				t.Fatalf("%s P=%d: %d/%d edges, want %d", desc, p, res.Matched, len(got), flat.Size())
			}
			for e := range flat.Edges {
				if flat.Edges[e] && !got[e] {
					t.Fatalf("%s P=%d: missing edge %v", desc, p, e)
				}
			}
		}
	}
}

// TestShardedMatchingFaultyMatchesFlat: the degraded matchings agree
// edge for edge under every profile and shard count.
func TestShardedMatchingFaultyMatchesFlat(t *testing.T) {
	for _, desc := range []string{"torus:4x4", "dcycle:20"} {
		h := mustEngineHost(t, desc)
		for _, prof := range []string{"lossy:p=0.4", "crash:f=4,by=2", "dup+reorder:p=0.3"} {
			pr := model.MustParseProfile(prof)
			flat, err := randomizedMatching(model.NewEngine(h), h, rand.New(rand.NewSource(7)), pr.New(h, 13))
			if err != nil {
				t.Fatalf("%s/%s flat: %v", desc, prof, err)
			}
			for _, p := range []int{1, 2, 8} {
				se, err := model.NewShardedEngine(model.SourceOf(h), p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := randomizedMatchingSharded(se, rand.New(rand.NewSource(7)), pr.New(h, 13))
				if err != nil {
					t.Fatalf("%s/%s P=%d: %v", desc, prof, p, err)
				}
				if res.Conflicts != 0 {
					t.Fatalf("%s/%s P=%d: %d conflicts", desc, prof, p, res.Conflicts)
				}
				got := shardedEdges(se, func(v int64) bool { return res.Report.CrashedNode(int(v)) })
				want := 0
				for e, on := range flat.Matching.Edges {
					if !on {
						continue
					}
					want++
					if !got[e] {
						t.Fatalf("%s/%s P=%d: missing edge %v", desc, prof, p, e)
					}
				}
				if len(got) != want || int(res.Matched) != want {
					t.Fatalf("%s/%s P=%d: %d/%d edges, want %d", desc, prof, p, res.Matched, len(got), want)
				}
			}
		}
	}
}

// TestShardedCVRejectsNonCycle: the sharded plan check mirrors the
// flat one.
func TestShardedCVRejectsNonCycle(t *testing.T) {
	h := mustEngineHost(t, "torus:4x4")
	se, err := model.NewShardedEngine(model.SourceOf(h), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coleVishkinSharded(se, model.SeededIDs(16, 1), 15, nil); err == nil {
		t.Fatal("non-cycle accepted")
	}
	cyc, err := host.ParseShard("dcycle:16")
	if err != nil {
		t.Fatal(err)
	}
	se2, err := model.NewShardedEngine(cyc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coleVishkinSharded(se2, nil, 15, nil); err == nil {
		t.Fatal("nil ids accepted")
	}
}

// TestSeededIDsPermutation: SeededIDs is a permutation of [0, n) —
// distinct ids, max n-1 — so the CV id-space bound is tight with no
// materialised table.
func TestSeededIDsPermutation(t *testing.T) {
	for _, n := range []int64{1, 2, 37, 1024, 5000} {
		idf := model.SeededIDs(n, 42)
		seen := make([]bool, n)
		for v := int64(0); v < n; v++ {
			id := idf(v)
			if id < 0 || int64(id) >= n {
				t.Fatalf("n=%d: id %d out of range", n, id)
			}
			if seen[id] {
				t.Fatalf("n=%d: duplicate id %d", n, id)
			}
			seen[id] = true
		}
	}
}
