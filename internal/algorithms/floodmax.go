package algorithms

import (
	"fmt"

	"repro/internal/model"
)

// FloodMax is the long-horizon workload of the job subsystem: every
// node floods the largest identifier it has heard for a caller-chosen
// number of rounds and reports whether the flood converged (every
// surviving node knows the global maximum). Unlike Cole–Vishkin's
// O(log* n) schedule, the horizon here is a free parameter, which is
// what makes FloodMax the natural subject for checkpoint/resume and
// crash-recovery drills: a run can be made arbitrarily long on any
// host, its state is one uint64 per node (the default word codec
// applies), and its result is a deterministic function of (host, ids,
// rounds, profile, seed).

// FloodMaxResult reports a FloodMax run.
type FloodMaxResult struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// Leader is the global maximum identifier (the value a complete
	// flood converges to).
	Leader int
	// Converged counts surviving nodes that learned the leader.
	Converged int
	// Report summarises the injected faults ("clean" on a nil
	// schedule).
	Report *model.FaultReport
}

// floodMaxWordAlgo floods the max-id word for the given horizon.
// Halting is round >= rounds (not ==) so a node transiently down at
// its halting round halts at its next up round, like the other word
// workloads.
func floodMaxWordAlgo(rounds int) model.WordAlgo {
	return model.WordAlgo{
		Init: func(v int, info model.NodeInfo) uint64 { return uint64(info.ID) },
		Step: func(state *uint64, round int, inbox []model.WordMsg, out *model.Outbox) bool {
			for _, m := range inbox {
				if m.W > *state {
					*state = m.W
				}
			}
			if round >= rounds {
				return true
			}
			out.BroadcastWord(*state)
			return false
		},
		Out: func(state *uint64) model.Output { return model.Output{} },
	}
}

// floodPlan validates a FloodMax instance and returns the leader.
func floodPlan(h *model.Host, ids []int, rounds int) (leader int, err error) {
	if len(ids) != h.G.N() {
		return 0, fmt.Errorf("algorithms: FloodMax: %d ids for %d nodes", len(ids), h.G.N())
	}
	if rounds < 1 {
		return 0, fmt.Errorf("algorithms: FloodMax: rounds must be >= 1 (got %d)", rounds)
	}
	for _, id := range ids {
		if id < 0 {
			return 0, fmt.Errorf("algorithms: FloodMax: negative id %d", id)
		}
		if id > leader {
			leader = id
		}
	}
	return leader, nil
}

// FloodMaxOn runs the flood clean on a caller-provided engine, so the
// caller can arm it with a cancellation context, a Checkpointer and a
// resume snapshot before handing it over.
func FloodMaxOn(e *model.WordEngine, h *model.Host, ids []int, rounds int) (*FloodMaxResult, error) {
	return floodMax(e, h, ids, rounds, nil)
}

// floodMax is the flood core on a caller-armed engine under sched
// (nil: the clean run). Crashed nodes are excluded from the
// convergence count, and a faulty run gets the fault slack so
// transiently down nodes can still halt.
func floodMax(e *model.WordEngine, h *model.Host, ids []int, rounds int, sched model.Schedule) (*FloodMaxResult, error) {
	leader, err := floodPlan(h, ids, rounds)
	if err != nil {
		return nil, err
	}
	col, executed, rep, err := e.RunStates(ids, floodMaxWordAlgo(rounds), model.Budget(rounds+2, sched), sched)
	if err != nil {
		return nil, fmt.Errorf("algorithms: FloodMax: %w", err)
	}
	res := &FloodMaxResult{Rounds: executed, Leader: leader, Report: rep}
	for v, w := range col {
		if int(w) == leader && !rep.CrashedNode(v) {
			res.Converged++
		}
	}
	return res, nil
}
