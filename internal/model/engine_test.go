package model

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/host"
	"repro/internal/par"
	"repro/internal/view"
)

// engineHosts is the differential host set: the fixed hosts of the
// paper plus a registry Cayley host (which carries its own labelling).
func engineHosts(t *testing.T) map[string]*Host {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	hosts := map[string]*Host{
		"petersen":      HostFromGraph(graph.Petersen()),
		"torus6x6":      HostFromGraph(graph.Torus(6, 6)),
		"randomregular": HostFromGraph(graph.RandomRegular(18, 3, rng)),
	}
	ch := host.MustParse("cayley:H,level=2,m=4,k=2,seed=1")
	hosts["cayley"] = &Host{D: ch.D, G: ch.G}
	return hosts
}

// floodMaxAlgo is a multi-round RoundAlgo exercising ids, letters and
// staggered halting: every node floods the largest id it has heard for
// a node-dependent number of rounds, then reports whether it ever
// heard an id larger than its own.
func floodMaxAlgo() RoundAlgo {
	type st struct {
		letters []view.Letter
		id      int
		best    int
		ticks   int
	}
	return RoundAlgo{
		Init: func(info NodeInfo) any {
			return &st{letters: info.Letters, id: info.ID, best: info.ID, ticks: 1 + info.ID%4}
		},
		Step: func(state any, round int, inbox []Msg) (any, []Msg, bool) {
			s := state.(*st)
			for _, m := range inbox {
				if v := m.Data.(int); v > s.best {
					s.best = v
				}
			}
			if s.ticks == 0 {
				return s, nil, true
			}
			s.ticks--
			out := make([]Msg, 0, len(s.letters))
			for _, l := range s.letters {
				out = append(out, Msg{L: l, Data: s.best})
			}
			return s, out, false
		},
		Out: func(state any) Output {
			s := state.(*st)
			return Output{Member: s.best > s.id}
		},
	}
}

// floodWordAlgo is floodMaxAlgo packed into one uint64 per node (best
// id in the high 32 bits, own id in bits 8..31, remaining ticks in the
// low byte): the WordAlgo twin of the reference workload.
func floodWordAlgo() WordAlgo {
	return WordAlgo{
		Init: func(v int64, info NodeInfo) uint64 {
			id := uint64(info.ID)
			return id<<32 | id<<8 | uint64(1+info.ID%4)
		},
		Step: func(st *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			best, ticks := *st>>32, *st&0xff
			for _, m := range inbox {
				best = max(best, m.W)
			}
			*st = best<<32 | *st&0xffffff00 | ticks
			if ticks == 0 {
				return true
			}
			*st--
			out.BroadcastWord(best)
			return false
		},
		Out: func(st *uint64) Output { return Output{Member: *st>>32 > *st>>8&0xffffff} },
	}
}

// referenceOutputs runs floodMaxAlgo through the reference loop.
func referenceOutputs(t *testing.T, h *Host, ids []int) ([]Output, int) {
	t.Helper()
	states, rounds, err := RunRoundsReference(h, ids, floodMaxAlgo(), 16)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	outs := make([]Output, len(states))
	for v, st := range states {
		outs[v] = floodMaxAlgo().Out(st)
	}
	return outs, rounds
}

// TestEngineDifferentialFlood pins the packed word-lane flood against
// RunRoundsReference: outputs and round counts byte-identical on every
// differential host, at parallelism 1 and 8.
func TestEngineDifferentialFlood(t *testing.T) {
	for name, h := range engineHosts(t) {
		n := h.G.N()
		rng := rand.New(rand.NewSource(int64(n)))
		ids := rng.Perm(4 * n)[:n]
		refOuts, refRounds := referenceOutputs(t, h, ids)
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			outs, rounds, _, err := RunRoundsWord(h, ids, floodWordAlgo(), 16, nil)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: engine: %v", name, p, err)
			}
			if rounds != refRounds {
				t.Fatalf("%s p=%d: %d rounds, reference %d", name, p, rounds, refRounds)
			}
			if !reflect.DeepEqual(outs, refOuts) {
				t.Fatalf("%s p=%d: outputs differ from reference", name, p)
			}
		}
	}
}

// TestEngineDifferentialGather pins Gather against the reference loop
// running GatherViews: identical interned trees (pointer equality) and
// identical round counts, across radii and parallelism.
func TestEngineDifferentialGather(t *testing.T) {
	for name, h := range engineHosts(t) {
		for r := 0; r <= 2; r++ {
			refStates, refRounds, err := RunRoundsReference(h, nil, GatherViews(r), r+2)
			if err != nil {
				t.Fatalf("%s r=%d: reference: %v", name, r, err)
			}
			for _, p := range []int{1, 8} {
				old := par.Set(p)
				trees, rounds, rep, err := Gather(NewEngine(h).WithContext(context.Background()), r, r+2, nil)
				par.Set(old)
				if err != nil {
					t.Fatalf("%s r=%d p=%d: engine: %v", name, r, p, err)
				}
				if rounds != refRounds || rep.Profile != "clean" {
					t.Fatalf("%s r=%d p=%d: %d rounds (%s), reference %d", name, r, p, rounds, rep.Profile, refRounds)
				}
				for v := range trees {
					if trees[v] != refStates[v].(*GatherState).Tree {
						t.Fatalf("%s r=%d p=%d node %d: gathered tree differs", name, r, p, v)
					}
				}
			}
		}
	}
}

// TestSimulatePORoundsDifferential: the engine-driven operational PO
// path coincides with SimulatePO and RunPO on every differential host.
func TestSimulatePORoundsDifferential(t *testing.T) {
	alg := FuncPO{R: 1, Fn: func(tr *view.Tree) Output {
		return Output{Member: tr.NumChildren()%2 == 0, Letters: tr.Letters()}
	}}
	for name, h := range engineHosts(t) {
		direct, err := RunPO(h, alg, EdgeKind)
		if err != nil {
			t.Fatalf("%s: RunPO: %v", name, err)
		}
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			sim, _, err := SimulatePORounds(h, alg, EdgeKind, nil)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: SimulatePORounds: %v", name, p, err)
			}
			a, b := direct.EdgeSet(), sim.EdgeSet()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s p=%d: edge sets differ", name, p)
			}
		}
	}
}

// TestEngineInboxLetterOrder: inboxes arrive sorted by the receiver's
// letter order whatever the worker schedule.
func TestEngineInboxLetterOrder(t *testing.T) {
	defer par.Set(par.Set(8))
	h := HostFromGraph(graph.Torus(6, 6))
	// The letter rows live in the test's own column; the state word is
	// the node index (the column-handle form Gather uses).
	rows := make([][]view.Letter, h.G.N())
	ordered := WordAlgo{
		Init: func(v int64, info NodeInfo) uint64 {
			rows[v] = append([]view.Letter(nil), info.Letters...)
			return uint64(v)
		},
		Step: func(st *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			if round == 1 {
				ls := rows[*st]
				for i := 1; i < len(inbox); i++ {
					if a, b := ls[inbox[i-1].Slot], ls[inbox[i].Slot]; !a.Less(b) {
						panic(fmt.Sprintf("inbox out of letter order: %v after %v", b, a))
					}
				}
				return true
			}
			out.BroadcastWord(uint64(round))
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
	if _, _, _, err := RunRoundsWord(h, nil, ordered, 4, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineErrorsMatchReference: the error paths the engine shares
// with the reference loop produce its exact messages.
func TestEngineErrorsMatchReference(t *testing.T) {
	h := HostFromGraph(graph.Cycle(5))
	never := RoundAlgo{
		Init: func(NodeInfo) any { return nil },
		Step: func(st any, round int, inbox []Msg) (any, []Msg, bool) { return st, nil, false },
		Out:  func(any) Output { return Output{} },
	}
	neverWord := WordAlgo{
		Init: func(int64, NodeInfo) uint64 { return 0 },
		Step: func(*uint64, int, []WordMsg, *Outbox) bool { return false },
		Out:  func(*uint64) Output { return Output{} },
	}
	_, _, _, errE := RunRoundsWord(h, nil, neverWord, 4, nil)
	_, _, errR := RunRoundsReference(h, nil, never, 4)
	if errE == nil || errR == nil || errE.Error() != errR.Error() {
		t.Errorf("non-halt errors differ: %v vs %v", errE, errR)
	}
	_, _, _, errE = RunRoundsWord(h, []int{1, 2}, neverWord, 4, nil)
	_, _, errR = RunRoundsReference(h, []int{1, 2}, never, 4)
	if errE == nil || errR == nil || errE.Error() != errR.Error() {
		t.Errorf("ids-length errors differ: %v vs %v", errE, errR)
	}
}

// TestEngineDuplicateSend: the engine's one-message-per-slot contract
// is enforced with a clear error.
func TestEngineDuplicateSend(t *testing.T) {
	h := HostFromGraph(graph.Cycle(4))
	dup := WordAlgo{
		Init: func(int64, NodeInfo) uint64 { return 0 },
		Step: func(st *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			out.SendWord(0, 1)
			out.SendWord(0, 2)
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
	if _, _, _, err := RunRoundsWord(h, nil, dup, 3, nil); err == nil {
		t.Error("duplicate send accepted")
	}
}

// slotPulseAlgo is the checked-send steady-state workload: every node
// sends the remaining round count on each of its slots through
// SendWord for a fixed number of rounds. The state packs the slot
// count (high 32 bits) and the remaining rounds (low 32 bits).
func slotPulseAlgo(rounds int) WordAlgo {
	return WordAlgo{
		Init: func(v int64, info NodeInfo) uint64 {
			return uint64(len(info.Letters))<<32 | uint64(rounds)
		},
		Step: func(s *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			if *s&0xffffffff == 0 {
				return true
			}
			*s--
			for i := 0; i < int(*s>>32); i++ {
				out.SendWord(i, *s&0xffffffff)
			}
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
}

// TestEngineSteadyStateAllocs: after arena warm-up, a steady-state
// round of checked sends allocates nothing. Measured as the allocation
// difference between a long run and a short run on one engine (per-run
// setup — closures, per-worker scratch — cancels exactly).
func TestEngineSteadyStateAllocs(t *testing.T) {
	defer par.Set(par.Set(1))
	h := HostFromGraph(graph.Cycle(512))
	te := NewEngine(h)
	runFor := func(rounds int) func() {
		return func() {
			if _, _, _, err := te.RunStates(nil, slotPulseAlgo(rounds), rounds+2, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	runFor(8)() // warm-up
	short := testing.AllocsPerRun(3, runFor(8))
	long := testing.AllocsPerRun(3, runFor(264))
	if perRound := (long - short) / 256; perRound > 0.01 {
		t.Errorf("steady-state round allocates: %.3f allocs/round (short run %.0f, long run %.0f)", perRound, short, long)
	}
}

// TestEngineReuseAfterError: a run that fails mid-way (absent slot,
// non-halt) must not poison the plane — the next run clears every
// stamp the failed run wrote, so it reads no stale messages.
func TestEngineReuseAfterError(t *testing.T) {
	h := HostFromGraph(graph.Cycle(6))
	e := NewEngine(h)
	bad := WordAlgo{
		Init: func(int64, NodeInfo) uint64 { return 0 },
		Step: func(st *uint64, r int, inbox []WordMsg, out *Outbox) bool {
			out.SendWord(99, 1)
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
	never := WordAlgo{
		Init: func(int64, NodeInfo) uint64 { return 0 },
		Step: func(st *uint64, r int, inbox []WordMsg, out *Outbox) bool {
			out.SendWord(0, 1<<40)
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
	rng := rand.New(rand.NewSource(9))
	ids := rng.Perm(24)[:6]
	want, wantRounds := referenceOutputs(t, h, ids)
	for i := 0; i < 3; i++ {
		if _, _, _, err := e.RunStates(ids, bad, 4, nil); err == nil {
			t.Fatal("absent slot accepted")
		}
		if _, _, _, err := e.RunStates(ids, never, 4, nil); err == nil {
			t.Fatal("non-halting run accepted")
		}
		outs, rounds, err := runOutputs(e, ids, floodWordAlgo(), 16)
		if err != nil {
			t.Fatalf("run after errors: %v", err)
		}
		if rounds != wantRounds || !reflect.DeepEqual(outs, want) {
			t.Fatalf("iteration %d: results diverge after failed runs", i)
		}
	}
}

// TestEngineReuse: one engine executes many runs (each clears the
// stamps, never the words) with results identical to fresh engines.
func TestEngineReuse(t *testing.T) {
	h := HostFromGraph(graph.Petersen())
	e := NewEngine(h)
	rng := rand.New(rand.NewSource(3))
	ids := rng.Perm(40)[:10]
	var first []Output
	for i := 0; i < 5; i++ {
		outs, rounds, err := runOutputs(e, ids, floodWordAlgo(), 16)
		if err != nil {
			t.Fatal(err)
		}
		fresh, freshRounds, _, err := RunRoundsWord(h, ids, floodWordAlgo(), 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rounds != freshRounds || !reflect.DeepEqual(outs, fresh) {
			t.Fatalf("run %d on reused engine differs from fresh engine", i)
		}
		if i == 0 {
			first = append([]Output(nil), outs...)
		} else if !reflect.DeepEqual(outs, first) {
			t.Fatalf("run %d differs from run 0", i)
		}
	}
}

// runOutputs runs a word algorithm clean on a reused engine and
// extracts the per-node outputs.
func runOutputs(e *Engine, ids []int, algo WordAlgo, maxRounds int) ([]Output, int, error) {
	col, rounds, _, err := e.RunStates(ids, algo, maxRounds, nil)
	if err != nil {
		return nil, 0, err
	}
	outs := make([]Output, len(col))
	for v := range col {
		outs[v] = algo.Out(&col[v])
	}
	return outs, rounds, nil
}
