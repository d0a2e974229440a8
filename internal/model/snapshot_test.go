package model

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/host"
	"repro/internal/par"
)

// snapWordAlgo is the checkpointed flood workload: state packs
// best<<8 | ticks in one word, messages carry the packed state.
func snapWordAlgo() WordAlgo {
	return WordAlgo{
		Init: func(v int64, info NodeInfo) uint64 {
			return uint64(info.ID)<<8 | uint64(1+info.ID%4)
		},
		Step: func(state *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			best, ticks := *state>>8, *state&0xff
			for _, m := range inbox {
				if b := m.W >> 8; b > best {
					best = b
				}
			}
			*state = best<<8 | ticks
			if ticks == 0 {
				return true
			}
			*state = best<<8 | (ticks - 1)
			out.BroadcastWord(*state)
			return false
		},
		Out: func(state *uint64) Output { return Output{Member: *state>>8 > 0} },
	}
}

// snapHosts is the snapshot differential host set (a subset of
// engineHosts: one regular, one irregular).
func snapHosts() map[string]*Host {
	rng := rand.New(rand.NewSource(7))
	return map[string]*Host{
		"torus6x6":      HostFromGraph(graph.Torus(6, 6)),
		"randomregular": HostFromGraph(graph.RandomRegular(20, 3, rng)),
	}
}

// snapSink collects every snapshot's encoded payload by round.
func snapSink(dst map[int][]byte) *Checkpointer {
	return &Checkpointer{Every: 1, Sink: func(s *Snapshot) error {
		dst[s.Round] = s.Encode()
		return nil
	}}
}

// TestSnapshotResumeAcrossShards: snapshots are written in global
// coordinates, so a checkpoint taken at one shard count resumes at
// another. For every host, clean and under two fault profiles, a run
// at P=1 checkpoints every round and each checkpoint resumes at P=3,
// and the reverse; the resumed run must reproduce the uninterrupted
// run's final states, round count, fault report AND every later
// checkpoint's encoded bytes (content addressing makes that last check
// equivalent to whole-state equality at every subsequent barrier).
func TestSnapshotResumeAcrossShards(t *testing.T) {
	defer par.Set(par.Set(4))
	hosts := snapHosts()
	src, err := host.ParseShard("torus:5x5")
	if err != nil {
		t.Fatal(err)
	}
	if hosts["implicit-torus5x5"], err = MaterializeSource(src); err != nil {
		t.Fatal(err)
	}
	for name, h := range hosts {
		plane := func(p int) *Engine {
			if p == 1 {
				return NewEngine(h)
			}
			e, err := NewShardedEngine(SourceOf(h), p)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		if name == "implicit-torus5x5" {
			plane = func(p int) *Engine {
				e, err := NewShardedEngine(src, p)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
		}
		n := h.G.N()
		ids := rand.New(rand.NewSource(int64(n))).Perm(4 * n)[:n]
		for _, prof := range []string{"", "lossy:p=0.3", "crash:f=5,by=2"} {
			var sched Schedule
			if prof != "" {
				sched = MustParseProfile(prof).New(h, 99)
			}
			for _, pq := range [][2]int{{1, 3}, {3, 1}} {
				from, to := pq[0], pq[1]
				tag := fmt.Sprintf("%s/%q/P=%d->%d", name, prof, from, to)
				control := map[int][]byte{}
				col1, rounds1, rep1, err := plane(from).WithCheckpoints(snapSink(control)).RunStates(ids, snapWordAlgo(), 64, sched)
				if err != nil {
					t.Fatalf("%s: control: %v", tag, err)
				}
				final1 := append([]uint64(nil), col1...)
				if len(control) == 0 {
					t.Fatalf("%s: control run took no checkpoints", tag)
				}
				for k, payload := range control {
					snap, err := DecodeSnapshot(payload)
					if err != nil {
						t.Fatalf("%s: decode round %d: %v", tag, k, err)
					}
					resumed := map[int][]byte{}
					col2, rounds2, rep2, err := plane(to).WithCheckpoints(snapSink(resumed)).Resume(snap).RunStates(ids, snapWordAlgo(), 64, sched)
					if err != nil {
						t.Fatalf("%s: resume from %d: %v", tag, k, err)
					}
					if rounds2 != rounds1 || !reflect.DeepEqual(col2, final1) {
						t.Errorf("%s: resume from %d: rounds %d (control %d) or final states differ", tag, k, rounds2, rounds1)
					}
					if !reflect.DeepEqual(rep1, rep2) {
						t.Errorf("%s: resume from %d: fault report differs:\n  control %+v\n  resumed %+v", tag, k, rep1, rep2)
					}
					for j, want := range control {
						if j <= k {
							continue
						}
						if got, ok := resumed[j]; !ok || string(got) != string(want) {
							t.Errorf("%s: resume from %d: checkpoint at %d not byte-identical to control (present=%v)", tag, k, j, ok)
						}
					}
				}
			}
		}
	}
}

// TestSnapshotResumeTyped pins resume on the single-shard plane: from
// every checkpoint round, clean and under two fault profiles, the
// resumed run reproduces the control's column, rounds, report and
// later checkpoint bytes.
func TestSnapshotResumeTyped(t *testing.T) {
	defer par.Set(par.Set(4))
	for _, prof := range []string{"", "lossy:p=0.2", "crash:f=5,by=2"} {
		for name, h := range snapHosts() {
			n := h.G.N()
			ids := rand.New(rand.NewSource(int64(n))).Perm(4 * n)[:n]
			var sched Schedule
			if prof != "" {
				sched = MustParseProfile(prof).New(h, 99)
			}
			control := map[int][]byte{}
			e1 := NewEngine(h).WithCheckpoints(snapSink(control))
			col1, rounds1, rep1, err := e1.RunStates(ids, snapWordAlgo(), 64, sched)
			if err != nil {
				t.Fatalf("%s/%s: control: %v", name, prof, err)
			}
			final1 := append([]uint64(nil), col1...)
			if len(control) == 0 {
				t.Fatalf("%s/%s: control run took no checkpoints", name, prof)
			}
			for k, payload := range control {
				snap, err := DecodeSnapshot(payload)
				if err != nil {
					t.Fatalf("%s/%s: decode round %d: %v", name, prof, k, err)
				}
				resumed := map[int][]byte{}
				e2 := NewEngine(h).WithCheckpoints(snapSink(resumed)).Resume(snap)
				col2, rounds2, rep2, err := e2.RunStates(ids, snapWordAlgo(), 64, sched)
				if err != nil {
					t.Fatalf("%s/%s: resume from %d: %v", name, prof, k, err)
				}
				if rounds2 != rounds1 || !reflect.DeepEqual(col2, final1) {
					t.Errorf("%s/%s: resume from %d: rounds/column differ", name, prof, k)
				}
				if !reflect.DeepEqual(rep1, rep2) {
					t.Errorf("%s/%s: resume from %d: fault report differs", name, prof, k)
				}
				for j, want := range control {
					if j <= k {
						continue
					}
					if got, ok := resumed[j]; !ok || string(got) != string(want) {
						t.Errorf("%s/%s: resume from %d: checkpoint at %d not byte-identical", name, prof, k, j)
					}
				}
			}
		}
	}
}

// TestSnapshotRequestNowCancel is the watchdog pattern: RequestNow
// then cancel captures a checkpoint at the very barrier the
// cancellation lands on, and resuming it completes with the control
// run's exact result.
func TestSnapshotRequestNowCancel(t *testing.T) {
	h := HostFromGraph(graph.Torus(6, 6))
	n := h.G.N()
	ids := rand.New(rand.NewSource(5)).Perm(4 * n)[:n]

	e1 := NewEngine(h)
	col1, rounds1, _, err := e1.RunStates(ids, snapWordAlgo(), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	final1 := append([]uint64(nil), col1...)

	// Interrupted run: on the round-2 barrier the sink fires (due to
	// RequestNow pre-armed via Every=0 + explicit request below) and
	// the context is cancelled before the next round.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Snapshot
	ck := &Checkpointer{Sink: func(s *Snapshot) error {
		last = s
		cancel()
		return nil
	}}
	e2 := NewEngine(h)
	e2.WithContext(ctx)
	e2.WithCheckpoints(ck)
	ck.RequestNow()
	if _, _, _, err := e2.RunStates(ids, snapWordAlgo(), 64, nil); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if last == nil {
		t.Fatal("no checkpoint captured before cancellation")
	}

	// Round-trip through bytes, resume on a fresh engine.
	snap, err := DecodeSnapshot(last.Encode())
	if err != nil {
		t.Fatal(err)
	}
	e3 := NewEngine(h).Resume(snap)
	col3, rounds3, _, err := e3.RunStates(ids, snapWordAlgo(), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rounds3 != rounds1 || !reflect.DeepEqual(col3, final1) {
		t.Fatalf("resume after cancel: rounds=%d (control %d), column equal=%v", rounds3, rounds1, reflect.DeepEqual(col3, final1))
	}
}

// TestSnapshotDoubleResumeRejected: one in-memory snapshot resumes
// exactly once; the second resume fails without running.
func TestSnapshotDoubleResumeRejected(t *testing.T) {
	h := HostFromGraph(graph.Torus(6, 6))
	n := h.G.N()
	ids := rand.New(rand.NewSource(5)).Perm(4 * n)[:n]
	var snaps []*Snapshot
	ck := &Checkpointer{Every: 2, Sink: func(s *Snapshot) error { snaps = append(snaps, s); return nil }}
	if _, _, _, err := NewEngine(h).WithCheckpoints(ck).RunStates(ids, snapWordAlgo(), 64, nil); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no checkpoints")
	}
	snap := snaps[0]
	if _, _, _, err := NewEngine(h).Resume(snap).RunStates(ids, snapWordAlgo(), 64, nil); err != nil {
		t.Fatalf("first resume: %v", err)
	}
	if _, _, _, err := NewEngine(h).Resume(snap).RunStates(ids, snapWordAlgo(), 64, nil); err == nil {
		t.Fatal("second resume of one snapshot accepted")
	}
}

// TestSnapshotMismatchRejected: a snapshot only resumes the run shape
// it was taken from — the algorithm's use of the state column,
// schedule presence and host geometry are all validated.
func TestSnapshotMismatchRejected(t *testing.T) {
	h := HostFromGraph(graph.Torus(6, 6))
	n := h.G.N()
	ids := rand.New(rand.NewSource(5)).Perm(4 * n)[:n]
	grab := func() *Snapshot {
		var snaps []*Snapshot
		ck := &Checkpointer{Every: 2, Sink: func(s *Snapshot) error { snaps = append(snaps, s); return nil }}
		if _, _, _, err := NewEngine(h).WithCheckpoints(ck).RunStates(ids, snapWordAlgo(), 64, nil); err != nil {
			t.Fatal(err)
		}
		return snaps[0]
	}

	// A gather run keeps its views outside the state column.
	if _, _, _, err := Gather(NewEngine(h).Resume(grab()), 2, 4, nil); err == nil || !strings.Contains(err.Error(), "cannot be checkpointed") {
		t.Errorf("snapshot accepted by a gather run: %v", err)
	}
	// Clean snapshot into a faulty run.
	sched := MustParseProfile("lossy:p=0.2").New(h, 99)
	if _, _, _, err := NewEngine(h).Resume(grab()).RunStates(ids, snapWordAlgo(), 64, sched); err == nil {
		t.Error("clean snapshot accepted by faulty run")
	}
	// Wrong host geometry.
	h2 := HostFromGraph(graph.Torus(8, 8))
	n2 := h2.G.N()
	ids2 := rand.New(rand.NewSource(5)).Perm(4 * n2)[:n2]
	if _, _, _, err := NewEngine(h2).Resume(grab()).RunStates(ids2, snapWordAlgo(), 64, nil); err == nil {
		t.Error("snapshot accepted by mismatched host")
	}
	// A failed resume must not poison the engine for an ordinary run.
	e := NewEngine(h2)
	if _, _, _, err := e.Resume(grab()).RunStates(ids2, snapWordAlgo(), 64, nil); err == nil {
		t.Fatal("mismatched resume accepted")
	}
	if _, _, _, err := e.RunStates(ids2, snapWordAlgo(), 64, nil); err != nil {
		t.Errorf("fresh run after failed resume: %v", err)
	}
}

// TestSnapshotDecodeCorrupt: truncations and bit flips never decode.
func TestSnapshotDecodeCorrupt(t *testing.T) {
	h := HostFromGraph(graph.Torus(6, 6))
	n := h.G.N()
	ids := rand.New(rand.NewSource(5)).Perm(4 * n)[:n]
	var payload []byte
	ck := &Checkpointer{Every: 2, Sink: func(s *Snapshot) error { payload = s.Encode(); return nil }}
	if _, _, _, err := NewEngine(h).WithCheckpoints(ck).RunStates(ids, snapWordAlgo(), 64, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(payload); err != nil {
		t.Fatalf("intact payload rejected: %v", err)
	}
	for _, cut := range []int{0, 1, len(payload) / 2, len(payload) - 1} {
		if _, err := DecodeSnapshot(payload[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded", cut)
		}
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 0xff // version byte
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Error("wrong version decoded")
	}
}

// TestSnapshotCheckpointIdleAllocs: an armed checkpointer whose
// cadence never fires must keep the steady-state round at 0
// allocs/op (the acceptance criterion behind the benchdelta gate).
func TestSnapshotCheckpointIdleAllocs(t *testing.T) {
	defer par.Set(par.Set(1))
	h := HostFromGraph(graph.Cycle(512))
	te := NewEngine(h).WithCheckpoints(&Checkpointer{Every: 1 << 30})
	runFor := func(rounds int) func() {
		return func() {
			if _, _, _, err := te.RunStates(nil, typedPulseAlgo(rounds), rounds+2, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	runFor(8)() // warm-up
	short := testing.AllocsPerRun(3, runFor(8))
	long := testing.AllocsPerRun(3, runFor(264))
	if perRound := (long - short) / 256; perRound > 0.01 {
		t.Errorf("idle-checkpoint round allocates: %.3f allocs/round (short %.0f, long %.0f)", perRound, short, long)
	}
}

// TestSnapshotEncodeDecodeRoundTrip covers the payload codec field by
// field, including the faulty counter block, and rejects the flag
// byte of the retired boxed-payload encoding.
func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	s := &Snapshot{
		Faulty:  true,
		N:       5,
		Slots:   12,
		Round:   9,
		Halted:  []bool{true, false, true, false, true},
		Crashed: []bool{false, true, false, false, false},
		Dropped: 3, Duplicated: 1, Reordered: 4, DownSteps: 1,
		Pending: []int32{0, 3, 11},
		Words:   []uint64{7, 8, 9},
		States:  []byte{1, 2, 3, 4},
	}
	payload := s.Encode()
	got, err := DecodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", s, got)
	}
	boxed := append([]byte(nil), payload...)
	boxed[1] = 0 // the flag byte after the version
	if _, err := DecodeSnapshot(boxed); err == nil || !strings.Contains(err.Error(), "no longer supported") {
		t.Fatalf("boxed-payload snapshot: err=%v", err)
	}
}

// hostileSnapshot is a 13-byte payload claiming 2^26 slots, all of
// them pending: version 1, the flag bytes, n=0, slots=2^26, round 0,
// then the pending count.
func hostileSnapshot() []byte {
	p := []byte{1, 1, 0, 0}
	p = binary.AppendUvarint(p, 1<<26)
	p = append(p, 0)
	return binary.AppendUvarint(p, 1<<26)
}

// TestSnapshotDecodeHostile: counts in the payload are bounded by the
// bytes that back them before anything is allocated, so a tiny hostile
// payload fails fast instead of reserving gigabytes.
func TestSnapshotDecodeHostile(t *testing.T) {
	payload := hostileSnapshot()
	if len(payload) != 13 {
		t.Fatalf("hostile payload is %d bytes, want 13", len(payload))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := DecodeSnapshot(payload); err == nil {
		t.Fatal("hostile snapshot decoded")
	}
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew > 1<<16 {
		t.Fatalf("hostile snapshot allocated %d bytes", grew)
	}
}

// FuzzDecodeSnapshot: DecodeSnapshot never panics, and whatever it
// accepts survives an encode/decode round trip unchanged.
func FuzzDecodeSnapshot(f *testing.F) {
	h := HostFromGraph(graph.Torus(6, 6))
	n := h.G.N()
	ids := rand.New(rand.NewSource(5)).Perm(4 * n)[:n]
	for _, prof := range []string{"", "crash:f=5,by=2"} {
		var sched Schedule
		if prof != "" {
			sched = MustParseProfile(prof).New(h, 99)
		}
		ck := &Checkpointer{Every: 2, Sink: func(s *Snapshot) error { f.Add(s.Encode()); return nil }}
		if _, _, _, err := NewEngine(h).WithCheckpoints(ck).RunStates(ids, snapWordAlgo(), 64, sched); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(hostileSnapshot())
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := DecodeSnapshot(payload)
		if err != nil {
			return
		}
		again, err := DecodeSnapshot(s.Encode())
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("accepted payload %x does not round-trip (err %v)", payload, err)
		}
	})
}

// TestSnapshotTypedBytesPinned pins the typed snapshot encoding: the
// SHA-256 of every checkpoint of a clean and a lossy torus run, in
// round order. Job checkpoints written by earlier builds must keep
// resuming, so these bytes may only change with a version bump.
func TestSnapshotTypedBytesPinned(t *testing.T) {
	h := HostFromGraph(graph.Torus(6, 6))
	n := h.G.N()
	ids := rand.New(rand.NewSource(5)).Perm(4 * n)[:n]
	for _, tc := range []struct{ prof, want string }{
		{"", "6da1ea3a8bd10dc55a1210cee98b11f22e03e38b9982194c885f752b8cdd8489"},
		{"lossy:p=0.2", "675e0835ab4254fa59126547f7a371e61c3297c9b72e849d93565aa7a25903b7"},
	} {
		var sched Schedule
		if tc.prof != "" {
			sched = MustParseProfile(tc.prof).New(h, 99)
		}
		sum := sha256.New()
		ck := &Checkpointer{Every: 1, Sink: func(s *Snapshot) error {
			sum.Write(s.Encode())
			return nil
		}}
		if _, _, _, err := NewEngine(h).WithCheckpoints(ck).RunStates(ids, snapWordAlgo(), 64, sched); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != tc.want {
			t.Errorf("profile %q: snapshot bytes hash %s, want %s", tc.prof, got, tc.want)
		}
	}
}
