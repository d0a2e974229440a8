package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/algorithms"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/order"
)

// This file is the server's workload layer: each compute function
// resolves the validated request into the repo's engine entry points
// (always the Ctx variants, so the per-request deadline reaches the
// round loop and the sweep loop) and renders the result as the JSON
// body that the cache stores verbatim. Every computation is
// deterministic in its canonical tuple, which is what makes the
// bodies cacheable forever.

// workloads is the run-endpoint registry, mirroring cmd/localsim's
// scale mode; unknown algo values list it (self-repairing errors,
// like the host and profile grammars).
var workloads = []struct{ Name, Doc string }{
	{"cole-vishkin", "ID-model MIS on a directed cycle (typed word-lane engine)"},
	{"matching", "one round of randomized mutual proposals (typed word-lane engine)"},
	{"gather", "full-information view gathering, radius rmax (default 2)"},
}

func describeWorkloads() string {
	s := "workloads:\n"
	for _, w := range workloads {
		s += fmt.Sprintf("  %-14s %s\n", w.Name, w.Doc)
	}
	return s
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// measureResponse is the body of /v1/measure.
type measureResponse struct {
	Host  string         `json:"host"`
	N     int            `json:"n"`
	M     int            `json:"m"`
	Rmax  int            `json:"rmax"`
	Radii []radiusResult `json:"radii"`
}

type radiusResult struct {
	R        int     `json:"r"`
	Alpha    float64 `json:"alpha"`
	Types    int     `json:"types"`
	Majority int     `json:"majority"`
}

// computeMeasure resolves the host and runs the layered homogeneity
// sweep under the request deadline (vertex-index rank, as the CLIs
// measure).
func computeMeasure(ctx context.Context, hostDesc string, rmax int) ([]byte, error) {
	rh, err := host.Parse(hostDesc)
	if err != nil {
		return nil, err
	}
	homs, err := order.SweepMeasureAllCtx(ctx, rh.G, order.Identity(rh.G.N()), rmax)
	if err != nil {
		return nil, err
	}
	resp := measureResponse{Host: rh.Desc, N: rh.G.N(), M: rh.G.M(), Rmax: rmax}
	for r, hm := range homs {
		resp.Radii = append(resp.Radii, radiusResult{R: r + 1, Alpha: hm.Alpha, Types: len(hm.Counts), Majority: hm.Count})
	}
	return json.Marshal(resp)
}

// runResponse is the body of /v1/run. Fault fields are present only
// on faulty runs (pointers stay nil on clean runs and are omitted).
type runResponse struct {
	Host   string `json:"host"`
	Algo   string `json:"algo"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`
	Rounds int    `json:"rounds"`
	// Size is the solution size: |MIS|, |M|, or distinct view types.
	Size   int          `json:"size"`
	Faults *faultResult `json:"faults,omitempty"`
	// Sharded is present only on shards= runs.
	Sharded *shardedResult `json:"sharded,omitempty"`
}

// shardedResult summarises a sharded run's exchange plane: shard
// count, resident cross-shard arcs and total words exchanged (the
// per-shard breakdown is on /metrics).
type shardedResult struct {
	P              int   `json:"p"`
	CrossArcs      int64 `json:"cross_arcs"`
	ExchangedWords int64 `json:"exchanged_words"`
}

type faultResult struct {
	Profile    string `json:"profile"`
	Crashed    int    `json:"crashed"`
	Dropped    int64  `json:"dropped"`
	Duplicated int64  `json:"duplicated"`
	Reordered  int64  `json:"reordered"`
	// Violations/Uncovered are Cole–Vishkin survivor-safety counts;
	// Conflicts is the matching's (all 0 for gather).
	Violations int `json:"violations"`
	Uncovered  int `json:"uncovered"`
	Conflicts  int `json:"conflicts"`
}

// gatherFaultSlack mirrors cmd/localsim: headroom beyond the clean
// horizon for nodes transiently down at their halting round.
const gatherFaultSlack = 256

// computeRun resolves the host (or the synthesized n-node default:
// the directed cycle for cole-vishkin, the port-numbered cycle
// otherwise), arms the engine with the request context, and runs the
// named workload clean or under the fault profile.
func computeRun(ctx context.Context, hostDesc, algo string, seed int64, faults string, rmax int) ([]byte, error) {
	rh, err := host.Parse(hostDesc)
	if err != nil {
		return nil, err
	}
	var h *model.Host
	if rh.D != nil {
		h = &model.Host{D: rh.D, G: rh.G}
	} else {
		h = model.HostFromGraph(rh.G)
	}
	n := h.G.N()
	var sched model.Schedule
	var profDesc string
	if faults != "" {
		prof, err := model.ParseProfile(faults)
		if err != nil {
			return nil, err
		}
		sched = prof.New(h, seed)
		profDesc = prof.Desc
	}
	rng := rand.New(rand.NewSource(seed))
	resp := runResponse{Host: rh.Desc, Algo: algo, N: n, Seed: seed}
	switch algo {
	case "cole-vishkin":
		if h.D == nil || !h.D.IsRegularDigraph(1) {
			return nil, fmt.Errorf("cole-vishkin needs a consistently oriented cycle host (e.g. dcycle:<n>)")
		}
		ids := rng.Perm(8 * n)[:n]
		if sched != nil {
			res, err := algorithms.ColeVishkinMISFaultyCtx(ctx, h, ids, sched)
			if err != nil {
				return nil, err
			}
			resp.Rounds, resp.Size = res.Rounds, res.MIS.Size()
			resp.Faults = &faultResult{
				Profile: profDesc, Crashed: res.Report.NumCrashed,
				Dropped: res.Report.Dropped, Duplicated: res.Report.Duplicated,
				Reordered:  res.Report.Reordered,
				Violations: res.Violations, Uncovered: res.Uncovered,
			}
		} else {
			res, err := algorithms.ColeVishkinMISCtx(ctx, h, ids)
			if err != nil {
				return nil, err
			}
			resp.Rounds, resp.Size = res.Rounds, res.MIS.Size()
		}
	case "matching":
		if sched != nil {
			res, err := algorithms.RandomizedMatchingFaultyCtx(ctx, h, rng, sched)
			if err != nil {
				return nil, err
			}
			resp.Rounds, resp.Size = 2, res.Matching.Size()
			resp.Faults = &faultResult{
				Profile: profDesc, Crashed: res.Report.NumCrashed,
				Dropped: res.Report.Dropped, Duplicated: res.Report.Duplicated,
				Reordered: res.Report.Reordered, Conflicts: res.Conflicts,
			}
		} else {
			sol, err := algorithms.RandomizedMatchingCtx(ctx, h, rng)
			if err != nil {
				return nil, err
			}
			resp.Rounds, resp.Size = 2, sol.Size()
		}
	case "gather":
		r := 2
		if rmax >= 1 {
			r = rmax
		}
		maxRounds := r + 2
		if sched != nil {
			maxRounds += gatherFaultSlack
		}
		trees, rounds, rep, err := model.Gather(ctx, h, r, maxRounds, sched)
		if err != nil {
			return nil, err
		}
		resp.Rounds, resp.Size = rounds, model.ViewTypes(trees, rep)
		if sched != nil {
			resp.Faults = &faultResult{
				Profile: profDesc, Crashed: rep.NumCrashed,
				Dropped: rep.Dropped, Duplicated: rep.Duplicated,
				Reordered: rep.Reordered,
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q\n%s", algo, describeWorkloads())
	}
	return json.Marshal(resp)
}

// computeRunSharded is the shards= path of /v1/run: cole-vishkin and
// matching on model.ShardedEngine, generated shard-locally when the
// family has an implicit source (so descriptors past the flat int32
// capacity run in bounded resident memory) and adapted from the
// materialised host otherwise. The engine registers with the server's
// shard gauges, so /metrics shows per-shard occupancy and exchange
// volume while the run is in flight and a final snapshot after.
func (s *Server) computeRunSharded(ctx context.Context, hostDesc, algo string, seed int64, faults string, shards int) ([]byte, error) {
	desc := hostDesc
	src, err := host.ParseShard(hostDesc)
	if err != nil {
		rh, perr := host.Parse(hostDesc)
		if perr != nil {
			return nil, fmt.Errorf("%w\n(no implicit shard source either: %v)", perr, err)
		}
		var h *model.Host
		if rh.D != nil {
			h = &model.Host{D: rh.D, G: rh.G}
		} else {
			h = model.HostFromGraph(rh.G)
		}
		src, desc = model.SourceOf(h), rh.Desc
	}
	var sched model.Schedule
	var profDesc string
	if faults != "" {
		prof, err := model.ParseProfile(faults)
		if err != nil {
			return nil, err
		}
		mh, err := model.MaterializeSource(src)
		if err != nil {
			return nil, fmt.Errorf("faults with shards need a materialisable host (schedules hash global coordinates from a flat host): %w", err)
		}
		sched = prof.New(mh, seed)
		profDesc = prof.Desc
	}
	se, err := model.NewShardedEngine(src, shards)
	if err != nil {
		return nil, err
	}
	se.WithContext(ctx)
	s.shard.track(se, desc)
	completed := false
	defer func() { s.shard.finish(se, desc, completed) }()
	n := src.N()
	resp := runResponse{Host: desc, Algo: algo, N: int(n), Seed: seed}
	switch algo {
	case "cole-vishkin":
		idf := model.SeededIDs(n, seed)
		if sched != nil {
			res, err := algorithms.ColeVishkinMISShardedFaulty(se, idf, int(n-1), sched)
			if err != nil {
				return nil, err
			}
			resp.Rounds, resp.Size = res.Rounds, int(res.MISSize)
			resp.Faults = &faultResult{
				Profile: profDesc, Crashed: res.Report.NumCrashed,
				Dropped: res.Report.Dropped, Duplicated: res.Report.Duplicated,
				Reordered:  res.Report.Reordered,
				Violations: int(res.Violations), Uncovered: int(res.Uncovered),
			}
		} else {
			res, err := algorithms.ColeVishkinMISSharded(se, idf, int(n-1))
			if err != nil {
				return nil, err
			}
			resp.Rounds, resp.Size = res.Rounds, int(res.MISSize)
		}
	case "matching":
		rng := rand.New(rand.NewSource(seed))
		if sched != nil {
			res, err := algorithms.RandomizedMatchingShardedFaulty(se, rng, sched)
			if err != nil {
				return nil, err
			}
			resp.Rounds, resp.Size = 2, int(res.Matched)
			resp.Faults = &faultResult{
				Profile: profDesc, Crashed: res.Report.NumCrashed,
				Dropped: res.Report.Dropped, Duplicated: res.Report.Duplicated,
				Reordered: res.Report.Reordered, Conflicts: int(res.Conflicts),
			}
		} else {
			res, err := algorithms.RandomizedMatchingSharded(se, rng)
			if err != nil {
				return nil, err
			}
			resp.Rounds, resp.Size = 2, int(res.Matched)
		}
	default:
		return nil, fmt.Errorf("shards supports the cole-vishkin and matching workloads only")
	}
	completed = true
	var arcs, words int64
	for _, st := range se.Stats() {
		arcs += st.ExchangeOut
		words += st.Exchanged
	}
	resp.Sharded = &shardedResult{P: shards, CrossArcs: arcs, ExchangedWords: words}
	return json.Marshal(resp)
}
