package algorithms

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/model"
)

// This file is the one workload runner behind every front end:
// cmd/localsim's scale mode, the /v1/run endpoint, durable jobs and the
// E17 experiment each build and arm a plane, name a workload, and get
// one Outcome back. The runner owns what they would otherwise each
// repeat: the workload registry, the identifier draw, the fault slack
// (model.Budget) and the gather radius default. A nil schedule is the
// clean run, so no caller chooses between run functions.

// Workload is one entry of the engine workload registry.
type Workload struct {
	// Name is the workload's name in -algo, algo= and job specs.
	Name string
	// Doc is a one-line description for registry listings.
	Doc string
	// Sharded reports whether RunSharded runs the workload.
	Sharded bool
	// Checkpointed reports whether the run's whole state is the
	// engine's uint64 column, so a Checkpointer-armed or resumed
	// engine can run it. Gather's view trees live outside the column.
	Checkpointed bool
}

// Workloads is the registry, in listing order.
var Workloads = []Workload{
	{"cole-vishkin", "ID-model MIS on a directed cycle (word-lane engine)", true, true},
	{"matching", "one round of §6.5 randomized mutual proposals (word-lane engine)", true, true},
	{"gather", "full-information view gathering, radius rmax (default 2)", false, false},
	{"flood", "FloodMax leader election for a horizon of rounds (default n; long-horizon)", false, true},
}

// LookupWorkload finds a registered workload by name.
func LookupWorkload(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// DescribeWorkloads renders the registry as a usage listing, appended
// to unknown-workload errors.
func DescribeWorkloads() string {
	var sb strings.Builder
	sb.WriteString("workloads:\n")
	for _, w := range Workloads {
		fmt.Fprintf(&sb, "  %-14s %s\n", w.Name, w.Doc)
	}
	return sb.String()
}

// ShardedWorkloads lists the names RunSharded accepts.
func ShardedWorkloads() string {
	var names []string
	for _, w := range Workloads {
		if w.Sharded {
			names = append(names, w.Name)
		}
	}
	return strings.Join(names, ", ")
}

// Spec names one run of a registered workload.
type Spec struct {
	// Algo is the workload name.
	Algo string
	// Sched is the fault schedule; nil is the clean run.
	Sched model.Schedule
	// Rmax is the gather radius; 0 means 2.
	Rmax int
	// Rounds is the flood horizon; 0 means n.
	Rounds int
}

// Radius is the gather radius the spec runs at.
func (s Spec) Radius() int {
	if s.Rmax >= 1 {
		return s.Rmax
	}
	return 2
}

// Outcome is what one run reports, from Run or RunSharded.
type Outcome struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Size is |MIS| (cole-vishkin), |M| (matching), the number of
	// distinct views among survivors (gather) or the number of
	// surviving nodes that learned the leader (flood).
	Size int
	// Leader is the largest identifier (flood only).
	Leader int
	// Solution is the computed MIS or matching (Run's cole-vishkin and
	// matching only), for callers that verify feasibility.
	Solution *model.Solution
	// Report summarises the injected faults ("clean" on a nil
	// schedule).
	Report *model.FaultReport
	// Violations and Uncovered are Cole–Vishkin's survivor-safety
	// counts; Conflicts is the matching's.
	Violations, Uncovered, Conflicts int
	// Shards is the shard count RunSharded's engine actually used (0
	// from Run); CrossArcs and ExchangedWords total its exchange plane.
	Shards                    int
	CrossArcs, ExchangedWords int64
}

// Run runs a workload on a materialised host: e is the caller's
// engine for h (any shard count), armed as the caller needs
// (checkpoints, resume), and ctx is armed on it here. Results are
// extracted from the state column into a Solution. Identifiers are model.PermIDs(rng, n, 8n), exactly
// rng.Perm(8n)[:n], from the caller's rng, drawn first, and matching
// draws its proposals from the same rng.
func Run(ctx context.Context, e *model.Engine, h *model.Host, rng *rand.Rand, spec Spec) (*Outcome, error) {
	e.WithContext(ctx)
	n := h.G.N()
	switch spec.Algo {
	case "cole-vishkin":
		res, err := coleVishkin(e, h, model.PermIDs(rng, n, 8*n), spec.Sched)
		if err != nil {
			return nil, err
		}
		return &Outcome{Rounds: res.Rounds, Size: res.MIS.Size(), Solution: res.MIS, Report: res.Report,
			Violations: res.Violations, Uncovered: res.Uncovered}, nil
	case "matching":
		res, err := randomizedMatching(e, h, rng, spec.Sched)
		if err != nil {
			return nil, err
		}
		return &Outcome{Rounds: matchingRounds, Size: res.Matching.Size(), Solution: res.Matching,
			Report: res.Report, Conflicts: res.Conflicts}, nil
	case "gather":
		r := spec.Radius()
		trees, rounds, rep, err := model.Gather(e, r, model.Budget(r+2, spec.Sched), spec.Sched)
		if err != nil {
			return nil, err
		}
		return &Outcome{Rounds: rounds, Size: model.ViewTypes(trees, rep), Report: rep}, nil
	case "flood":
		horizon := spec.Rounds
		if horizon < 1 {
			horizon = n
		}
		res, err := floodMax(e, h, model.PermIDs(rng, n, 8*n), horizon, spec.Sched)
		if err != nil {
			return nil, err
		}
		return &Outcome{Rounds: res.Rounds, Size: res.Converged, Leader: res.Leader, Report: res.Report}, nil
	}
	return nil, fmt.Errorf("unknown workload %q\n%s", spec.Algo, DescribeWorkloads())
}

// RunSharded runs a workload on the engine se over its shard source,
// at any shard count, with ctx armed on it here and results extracted
// streaming. Identifiers come from model.SeededIDs(n, seed) and
// matching proposals from a rand.Rand seeded with seed.
func RunSharded(ctx context.Context, se *model.Engine, seed int64, spec Spec) (*Outcome, error) {
	se.WithContext(ctx)
	n := se.N()
	var out *Outcome
	switch spec.Algo {
	case "cole-vishkin":
		res, err := coleVishkinSharded(se, model.SeededIDs(n, seed), int(n-1), spec.Sched)
		if err != nil {
			return nil, err
		}
		out = &Outcome{Rounds: res.Rounds, Size: int(res.MISSize), Report: res.Report,
			Violations: int(res.Violations), Uncovered: int(res.Uncovered)}
	case "matching":
		res, err := randomizedMatchingSharded(se, rand.New(rand.NewSource(seed)), spec.Sched)
		if err != nil {
			return nil, err
		}
		out = &Outcome{Rounds: matchingRounds, Size: int(res.Matched), Report: res.Report, Conflicts: int(res.Conflicts)}
	default:
		return nil, fmt.Errorf("the sharded plane runs %s only (got %q)", ShardedWorkloads(), spec.Algo)
	}
	out.Shards = se.Shards()
	for _, st := range se.Stats() {
		out.CrossArcs += st.ExchangeOut
		out.ExchangedWords += st.Exchanged
	}
	return out, nil
}
