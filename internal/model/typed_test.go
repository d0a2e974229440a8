package model

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/view"
)

// floodTypedState mirrors floodMaxAlgo's boxed state as a column
// entry wider than a word: the algorithm keeps it in its own per-node
// column and the state word is the node index (the column-handle form
// Gather uses).
type floodTypedState struct {
	id    int32
	best  int32
	ticks int32
}

// floodTypedAlgo is floodMaxAlgo in the column-handle form: same
// staggered halting, same flood-the-best-id traffic, with the id
// riding the word lane. Outputs must match the reference algorithm
// byte for byte.
func floodTypedAlgo(n int) WordAlgo {
	col := make([]floodTypedState, n)
	return WordAlgo{
		Init: func(v int64, info NodeInfo) uint64 {
			id := int32(info.ID)
			col[v] = floodTypedState{id: id, best: id, ticks: 1 + id%4}
			return uint64(v)
		},
		Step: func(st *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			s := &col[*st]
			for _, m := range inbox {
				if v := int32(m.W); v > s.best {
					s.best = v
				}
			}
			if s.ticks == 0 {
				return true
			}
			s.ticks--
			out.BroadcastWord(uint64(s.best))
			return false
		},
		Out: func(st *uint64) Output {
			return Output{Member: col[*st].best > col[*st].id}
		},
	}
}

// TestTypedDifferentialFlood pins the column-handle flood (state wider
// than a word, in the algorithm's own column) against the sequential
// reference: identical outputs and round counts on every
// differential host, at parallelism 1 and 8.
func TestTypedDifferentialFlood(t *testing.T) {
	for name, h := range engineHosts(t) {
		n := h.G.N()
		ids := rand.New(rand.NewSource(int64(n))).Perm(4 * n)[:n]
		refOuts, refRounds := referenceOutputs(t, h, ids)
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			outs, rounds, _, err := RunRoundsWord(h, ids, floodTypedAlgo(n), 16, nil)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: typed: %v", name, p, err)
			}
			if rounds != refRounds {
				t.Fatalf("%s p=%d: %d rounds, reference %d", name, p, rounds, refRounds)
			}
			if !reflect.DeepEqual(outs, refOuts) {
				t.Fatalf("%s p=%d: typed outputs differ from reference", name, p)
			}
		}
	}
}

// TestTypedFaultyFormsAgree: under every profile family, the
// column-handle flood and its packed uint64 twin degrade identically —
// same outputs, same round count, same fault report — because fates
// are hashes of (seed, round, slot) coordinates, not of the state
// layout.
func TestTypedFaultyFormsAgree(t *testing.T) {
	for _, desc := range []string{"lossy:p=0.2", "dup+reorder", "crash:f=6,by=4", "churn:p=0.3,window=2", "adversarial:p=0.1,f=3"} {
		h := HostFromGraph(graph.Torus(8, 8))
		n := h.G.N()
		ids := rand.New(rand.NewSource(1)).Perm(4 * n)[:n]
		sched := MustParseProfile(desc).New(h, 99)
		wOuts, wRounds, wRep, err := RunRoundsWord(h, ids, floodWordAlgo(), 300, sched)
		if err != nil {
			t.Fatalf("%s: packed: %v", desc, err)
		}
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			tOuts, tRounds, tRep, err := RunRoundsWord(h, ids, floodTypedAlgo(n), 300, sched)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: generic: %v", desc, p, err)
			}
			if tRounds != wRounds || !reflect.DeepEqual(tOuts, wOuts) {
				t.Errorf("%s p=%d: generic faulty run differs from packed (reproducer: seed=99)", desc, p)
			}
			if !reflect.DeepEqual(tRep, wRep) {
				t.Errorf("%s p=%d: reports differ: generic %+v packed %+v", desc, p, tRep, wRep)
			}
		}
	}
}

// TestTypedCleanFaultyPins: a nil schedule through the column-handle
// flood takes the exact clean path — the reference loop's
// outputs and rounds — with the all-zero "clean" report.
func TestTypedCleanFaultyPins(t *testing.T) {
	h := HostFromGraph(graph.Torus(6, 6))
	n := h.G.N()
	ids := rand.New(rand.NewSource(2)).Perm(4 * n)[:n]
	want, wantRounds := referenceOutputs(t, h, ids)
	outs, rounds, rep, err := RunRoundsWord(h, ids, floodTypedAlgo(n), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != wantRounds || !reflect.DeepEqual(outs, want) {
		t.Fatal("clean typed run differs from the reference loop")
	}
	if rep.Profile != "clean" || rep.Dropped != 0 || rep.Duplicated != 0 ||
		rep.Reordered != 0 || rep.DownSteps != 0 || rep.NumCrashed != 0 || rep.Crashed != nil {
		t.Fatalf("clean report not all-zero: %+v", rep)
	}
}

// TestTypedInboxSlotRouting: typed inboxes arrive in strictly
// increasing slot order whatever the worker schedule, every slot
// index names the letter the typed Init contract promises, and the
// payload proves the routing — each word is the sender's index, and
// the slot's letter at the receiver must resolve back to exactly that
// sender.
func TestTypedInboxSlotRouting(t *testing.T) {
	defer par.Set(par.Set(8))
	h := HostFromGraph(graph.Torus(6, 6))
	rows := make([][]view.Letter, h.G.N())
	algo := WordAlgo{
		Init: func(v int64, info NodeInfo) uint64 {
			for i := 1; i < len(info.Letters); i++ {
				if !info.Letters[i-1].Less(info.Letters[i]) {
					t.Errorf("node %d: info letters not letter-sorted at %d", v, i)
				}
			}
			rows[v] = append([]view.Letter(nil), info.Letters...)
			return uint64(v)
		},
		Step: func(s *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			v := int(*s)
			if round == 1 {
				for i, m := range inbox {
					if i > 0 && inbox[i-1].Slot >= m.Slot {
						t.Errorf("node %d: inbox out of slot order", v)
					}
					from, ok := resolveLetter(h, v, rows[v][m.Slot])
					if !ok || uint64(from) != m.W {
						t.Errorf("node %d slot %d: word %d, letter resolves to %d", v, m.Slot, m.W, from)
					}
				}
				return true
			}
			out.BroadcastWord(*s)
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
	if _, _, _, err := RunRoundsWord(h, nil, algo, 4, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTypedErrorFormats: the send contract fails with round-stamped
// errors, profile-suffixed on faulty runs, plus the ids-length check.
func TestTypedErrorFormats(t *testing.T) {
	h := HostFromGraph(graph.Cycle(5))
	badAt := func(round int) WordAlgo {
		return WordAlgo{
			Init: func(int64, NodeInfo) uint64 { return 0 },
			Step: func(st *uint64, r int, inbox []WordMsg, out *Outbox) bool {
				if r == round {
					out.SendWord(99, 7)
					return false
				}
				out.BroadcastWord(uint64(r))
				return false
			},
			Out: func(*uint64) Output { return Output{} },
		}
	}
	_, _, _, err := RunRoundsWord(h, nil, badAt(2), 6, nil)
	want := "model: round 2: node 0 sent on absent slot 99 (node has 2)"
	if err == nil || err.Error() != want {
		t.Errorf("clean absent-slot error = %v, want %q", err, want)
	}
	sched := MustParseProfile("lossy:p=0").New(h, 1)
	_, _, _, err = RunRoundsWord(h, nil, badAt(2), 6, sched)
	want = "model: round 2 [lossy:p=0]: node 0 sent on absent slot 99 (node has 2)"
	if err == nil || err.Error() != want {
		t.Errorf("faulty absent-slot error = %v, want %q", err, want)
	}

	dup := WordAlgo{
		Init: func(int64, NodeInfo) uint64 { return 0 },
		Step: func(st *uint64, r int, inbox []WordMsg, out *Outbox) bool {
			out.SendWord(0, 1)
			out.SendWord(0, 2)
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
	_, _, _, err = RunRoundsWord(h, nil, dup, 3, nil)
	if err == nil || !strings.HasPrefix(err.Error(), "model: round 0: node ") ||
		!strings.Contains(err.Error(), "sent twice on slot 0") {
		t.Errorf("typed double-send error lacks round prefix: %v", err)
	}

	never := WordAlgo{
		Init: func(int64, NodeInfo) uint64 { return 0 },
		Step: func(*uint64, int, []WordMsg, *Outbox) bool { return false },
		Out:  func(*uint64) Output { return Output{} },
	}
	_, _, _, err = RunRoundsWord(h, nil, never, 4, nil)
	want = "model: node 0 did not halt within 4 rounds"
	if err == nil || err.Error() != want {
		t.Errorf("typed non-halt error = %v, want %q", err, want)
	}

	if _, _, _, err := RunRoundsWord(h, []int{1, 2}, never, 4, nil); err == nil ||
		!strings.Contains(err.Error(), "2 ids for 5 nodes") {
		t.Errorf("typed ids-length error = %v", err)
	}
}

// TestScratchPreSized: the per-worker compaction scratch bound. The
// plane's maxSlots must equal the widest slot row, and a schedule
// that duplicates every delivery (the worst case the 2x fault scratch
// is sized for) must run without growing anything — pinned both by
// the run completing and by its agreement with the reference, since
// flooding the maximum is blind to duplicates and delivery order.
func TestScratchPreSized(t *testing.T) {
	for name, h := range engineHosts(t) {
		e := NewEngine(h)
		want := int32(0)
		for v := 0; v < h.G.N(); v++ {
			if w := int32(len(h.D.Out(v)) + len(h.D.In(v))); w > want {
				want = w
			}
		}
		if e.maxSlots != want {
			t.Errorf("%s: maxSlots = %d, want %d", name, e.maxSlots, want)
		}
	}

	// dup+reorder:p=1 duplicates every delivered message: inboxes hit
	// exactly 2x the in-degree, the fault scratch's sized bound.
	h := HostFromGraph(graph.Torus(8, 8))
	n := h.G.N()
	ids := rand.New(rand.NewSource(4)).Perm(4 * n)[:n]
	sched := MustParseProfile("dup+reorder:p=1").New(h, 7)
	outs, rounds, rep, err := RunRoundsWord(h, ids, floodTypedAlgo(n), 300, sched)
	if err != nil {
		t.Fatalf("all-duplicate run: %v", err)
	}
	if rep.Duplicated == 0 {
		t.Fatal("p=1 duplication schedule duplicated nothing")
	}
	want, wantRounds := referenceOutputs(t, h, ids)
	if rounds != wantRounds || !reflect.DeepEqual(outs, want) {
		t.Fatal("all-duplicate run disagrees with the reference")
	}
}

// typedPulseAlgo is the typed steady-state workload: the remaining
// round count is the whole state.
func typedPulseAlgo(rounds int) WordAlgo {
	return WordAlgo{
		Init: func(int64, NodeInfo) uint64 { return uint64(rounds) },
		Step: func(st *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			if *st == 0 {
				return true
			}
			*st--
			out.BroadcastWord(*st)
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
}

// TestTypedSteadyStateAllocs: a steady-state typed round allocates
// nothing, on the clean and the faulty path alike. Measured as the
// long-run minus short-run allocation difference on one engine
// (per-run setup — closures, per-worker scratch — cancels exactly).
func TestTypedSteadyStateAllocs(t *testing.T) {
	defer par.Set(par.Set(1))
	h := HostFromGraph(graph.Cycle(512))
	te := NewEngine(h)
	sched := MustParseProfile("lossy:p=0.05").New(h, 11)
	for _, c := range []struct {
		name   string
		runFor func(rounds int) func()
	}{
		{"clean", func(rounds int) func() {
			return func() {
				if _, _, _, err := te.RunStates(nil, typedPulseAlgo(rounds), rounds+2, nil); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"faulty", func(rounds int) func() {
			return func() {
				if _, _, _, err := te.RunStates(nil, typedPulseAlgo(rounds), rounds+2, sched); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		c.runFor(8)() // warm-up
		short := testing.AllocsPerRun(3, c.runFor(8))
		long := testing.AllocsPerRun(3, c.runFor(264))
		if perRound := (long - short) / 256; perRound > 0.01 {
			t.Errorf("%s: steady-state typed round allocates: %.3f allocs/round (short %.0f, long %.0f)", c.name, perRound, short, long)
		}
	}
}

// TestTypedReuseAfterError: a typed run failing mid-way (absent slot,
// non-halt) must not poison the shared plane for later typed runs.
func TestTypedReuseAfterError(t *testing.T) {
	h := HostFromGraph(graph.Cycle(6))
	te := NewEngine(h)
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
			out.BroadcastWord(uint64(r))
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
	h2 := HostFromGraph(graph.Cycle(6))
	want, _, _, err := NewEngine(h2).RunStates(nil, typedPulseAlgo(5), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, _, err := te.RunStates(nil, bad, 4, nil); err == nil {
			t.Fatal("absent slot accepted")
		}
		if _, _, _, err := te.RunStates(nil, never, 4, nil); err == nil {
			t.Fatal("non-halting typed run accepted")
		}
		col, _, _, err := te.RunStates(nil, typedPulseAlgo(5), 8, nil)
		if err != nil {
			t.Fatalf("typed run after errors: %v", err)
		}
		if !reflect.DeepEqual(col, want) {
			t.Fatalf("iteration %d: typed results diverge after failed runs", i)
		}
	}
}

// TestSimulatePORoundsTypedDifferential: the word-lane gather (column
// handles to hash-consed trees) returns, at every radius, the very
// trees the level-synchronous GatheredTreesAll assembles — the
// encoding of tree payloads is semantically invisible.
func TestSimulatePORoundsTypedDifferential(t *testing.T) {
	for name, h := range engineHosts(t) {
		levels, err := GatheredTreesAll(h, 3)
		if err != nil {
			t.Fatal(err)
		}
		for r, want := range levels {
			for _, p := range []int{1, 8} {
				old := par.Set(p)
				got, _, _, err := Gather(NewEngine(h).WithContext(context.Background()), r, r+2, nil)
				par.Set(old)
				if err != nil {
					t.Fatalf("%s r=%d p=%d: Gather: %v", name, r, p, err)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s r=%d p=%d node %d: gathered tree differs from GatheredTreesAll", name, r, p, v)
					}
				}
			}
		}
	}
}

// TestSimulatePORoundsTypedFaulty: under a fault schedule the gather
// solution is the view function applied to Gather's surviving views,
// identically at parallelism 1 and 8, with the same report.
func TestSimulatePORoundsTypedFaulty(t *testing.T) {
	alg := FuncPO{R: 2, Fn: func(tr *view.Tree) Output {
		return Output{Member: tr.NumChildren()%2 == 0}
	}}
	for _, desc := range []string{"lossy:p=0.15", "crash:f=5,by=2", "dup+reorder:p=0.3"} {
		h := HostFromGraph(graph.Torus(6, 6))
		sched := MustParseProfile(desc).New(h, 13)
		trees, _, rep, err := Gather(NewEngine(h).WithContext(context.Background()), 2, 300, sched)
		if err != nil {
			t.Fatalf("%s: gather: %v", desc, err)
		}
		want := make([]bool, h.G.N())
		for v, tr := range trees {
			want[v] = !rep.CrashedNode(v) && alg.EvalPO(tr).Member
		}
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			sol, solRep, err := SimulatePORounds(h, alg, VertexKind, sched)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: %v", desc, p, err)
			}
			if !reflect.DeepEqual(sol.Vertices, want) {
				t.Errorf("%s p=%d: faulty gather solution differs (reproducer: seed=13)", desc, p)
			}
			if !reflect.DeepEqual(solRep, rep) {
				t.Errorf("%s p=%d: reports differ", desc, p)
			}
		}
	}
}
