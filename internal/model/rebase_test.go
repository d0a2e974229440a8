package model

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/host"
	"repro/internal/par"
	"repro/internal/view"
)

// Stamps are one byte wide, so a run longer than about 250 rounds
// crosses stamp rebases (the first at the barrier entering round 254,
// the next 254 rounds later). These tests run well past two of them.

// rebaseRounds bounds the long runs below; every node halts by round
// 685, after the rebases entering rounds 254 and 508.
const rebaseRounds = 800

// rebaseHost is an implicit source and its materialised form, which
// the single-shard plane and the reference loop run on.
type rebaseHost struct {
	src ShardSource
	h   *Host
}

// rebaseHosts are the long-run hosts.
func rebaseHosts(t *testing.T) map[string]rebaseHost {
	t.Helper()
	out := map[string]rebaseHost{}
	for _, desc := range []string{"cycle:50", "torus:5x5"} {
		src, err := host.ParseShard(desc)
		if err != nil {
			t.Fatal(err)
		}
		h, err := MaterializeSource(src)
		if err != nil {
			t.Fatal(err)
		}
		out[desc] = rebaseHost{src, h}
	}
	return out
}

// rebasePlane builds the P=1 plane from the host and the P>1 plane
// from the implicit source.
func rebasePlane(t *testing.T, src ShardSource, h *Host, p int) *Engine {
	t.Helper()
	if p == 1 {
		return NewEngine(h)
	}
	e, err := NewShardedEngine(src, p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// rebaseHalt is the halt round of a rebaseWordAlgo state's class.
func rebaseHalt(w uint64) int { return 200 + 97*int(w>>48&0xff) }

func rebaseFold(w uint64, round int, sum uint64) uint64 {
	acc := (w&mixMask)*0x100000001b3 + sum + uint64(round)
	return w&^mixMask | acc&mixMask
}

func rebaseHash(w uint64) uint64 {
	w ^= w >> 29
	w *= 0xbf58476d1ce4e5b9
	return w ^ w>>32
}

func rebaseInit(info NodeInfo) uint64 {
	return uint64(len(info.Letters))<<56 | uint64(info.ID%6)<<48 | uint64(info.ID+1)
}

// rebaseWordAlgo is a long flood whose state depends on every message
// of every round. The state word packs the degree (bits 56..63), a
// halt class (48..55) and a 48-bit accumulator; each round the
// accumulator folds in the round and the sum of the inbox's word
// hashes (a sum, so the reference loop's sender-ordered inboxes
// agree), and the node sends its state — a broadcast on even rounds,
// one checked send on slot round%deg on odd rounds — until its halt
// round, staggered by class across both rebases so halted nodes leave
// stale stamps behind.
func rebaseWordAlgo() WordAlgo {
	return WordAlgo{
		Init: func(v int64, info NodeInfo) uint64 { return rebaseInit(info) },
		Step: func(st *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			sum := uint64(0)
			for _, m := range inbox {
				sum += rebaseHash(m.W)
			}
			*st = rebaseFold(*st, round, sum)
			if round >= rebaseHalt(*st) {
				return true
			}
			if round%2 == 0 {
				out.BroadcastWord(*st)
			} else {
				out.SendWord(round%int(*st>>56), *st)
			}
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
}

// rebaseRef is rebaseWordAlgo's reference-loop state: the word and
// the node's letters in the plane's letter order (the reference loop
// hands Init out-arcs first), so slot i names the same arc on both.
type rebaseRef struct {
	w       uint64
	letters []view.Letter
}

// rebaseRoundAlgo is rebaseWordAlgo for the reference loop.
func rebaseRoundAlgo() RoundAlgo {
	type st = rebaseRef
	return RoundAlgo{
		Init: func(info NodeInfo) any {
			ls := slices.Clone(info.Letters)
			slices.SortStableFunc(ls, func(a, b view.Letter) int {
				switch {
				case a.Less(b):
					return -1
				case b.Less(a):
					return 1
				}
				return 0
			})
			return &st{w: rebaseInit(info), letters: ls}
		},
		Step: func(state any, round int, inbox []Msg) (any, []Msg, bool) {
			s := state.(*st)
			sum := uint64(0)
			for _, m := range inbox {
				sum += rebaseHash(m.Data.(uint64))
			}
			s.w = rebaseFold(s.w, round, sum)
			if round >= rebaseHalt(s.w) {
				return s, nil, true
			}
			var out []Msg
			if round%2 == 0 {
				for _, l := range s.letters {
					out = append(out, Msg{L: l, Data: s.w})
				}
			} else {
				out = []Msg{{L: s.letters[round%len(s.letters)], Data: s.w}}
			}
			return s, out, false
		},
		Out: func(any) Output { return Output{} },
	}
}

func rebaseIDs(n int) []int { return rand.New(rand.NewSource(int64(n))).Perm(4 * n)[:n] }

// TestRebaseCleanMatchesReference: clean runs across two rebases equal
// the reference loop state for state at P=1 and P=3, and the plane
// really did rebase twice.
func TestRebaseCleanMatchesReference(t *testing.T) {
	defer par.Set(par.Set(4))
	for desc, hs := range rebaseHosts(t) {
		n := hs.h.G.N()
		ids := rebaseIDs(n)
		ref, refRounds, err := RunRoundsReference(hs.h, ids, rebaseRoundAlgo(), rebaseRounds)
		if err != nil {
			t.Fatalf("%s: reference: %v", desc, err)
		}
		if refRounds < 600 {
			t.Fatalf("%s: reference ran %d rounds, want past two rebases", desc, refRounds)
		}
		for _, p := range []int{1, 3} {
			e := rebasePlane(t, hs.src, hs.h, p)
			col, rounds, _, err := e.RunStates(ids, rebaseWordAlgo(), rebaseRounds, nil)
			if err != nil {
				t.Fatalf("%s P=%d: %v", desc, p, err)
			}
			if e.gen < 2*253 {
				t.Fatalf("%s P=%d: stamp epoch began at round %d, want two rebases", desc, p, e.gen)
			}
			if rounds != refRounds {
				t.Fatalf("%s P=%d: %d rounds, reference %d", desc, p, rounds, refRounds)
			}
			for v, w := range col {
				if rw := ref[v].(*rebaseRef).w; w != rw {
					t.Fatalf("%s P=%d: node %d state %#x, reference %#x", desc, p, v, w, rw)
				}
			}
		}
	}
}

// TestRebaseFaultyAgreesAcrossShards: faulty runs across two rebases
// give the same states, rounds and fault report at P=1 and P=3.
func TestRebaseFaultyAgreesAcrossShards(t *testing.T) {
	defer par.Set(par.Set(4))
	for desc, hs := range rebaseHosts(t) {
		ids := rebaseIDs(hs.h.G.N())
		for _, prof := range []string{"lossy:p=0.3", "crash:f=5,by=400"} {
			sched := MustParseProfile(prof).New(hs.h, 17)
			var want []uint64
			var wantRounds int
			var wantRep *FaultReport
			for _, p := range []int{1, 3} {
				col, rounds, rep, err := rebasePlane(t, hs.src, hs.h, p).RunStates(ids, rebaseWordAlgo(), rebaseRounds, sched)
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", desc, prof, p, err)
				}
				if p == 1 {
					want, wantRounds, wantRep = slices.Clone(col), rounds, rep
					if rounds < 600 {
						t.Fatalf("%s %s: ran %d rounds, want past two rebases", desc, prof, rounds)
					}
					continue
				}
				if rounds != wantRounds || !slices.Equal(col, want) || !reflect.DeepEqual(rep, wantRep) {
					t.Fatalf("%s %s P=%d: rounds %d (P=1 %d), states or report differ", desc, prof, p, rounds, wantRounds)
				}
			}
		}
	}
}

// TestRebaseCheckpointsResume: checkpoints taken on either side of
// both rebases resume, at P=1 and P=3, to the uninterrupted run's
// states, rounds, report and later checkpoint bytes.
func TestRebaseCheckpointsResume(t *testing.T) {
	defer par.Set(par.Set(4))
	at := []int{253, 254, 255, 256, 507, 508, 509}
	hs := rebaseHosts(t)["torus:5x5"]
	ids := rebaseIDs(hs.h.G.N())
	for _, prof := range []string{"", "lossy:p=0.3"} {
		var sched Schedule
		if prof != "" {
			sched = MustParseProfile(prof).New(hs.h, 23)
		}
		sink := func(dst map[int][]byte) *Checkpointer {
			return &Checkpointer{Every: 1, Sink: func(s *Snapshot) error {
				if slices.Contains(at, s.Round) {
					dst[s.Round] = s.Encode()
				}
				return nil
			}}
		}
		control := map[int][]byte{}
		col, rounds, rep, err := rebasePlane(t, hs.src, hs.h, 1).WithCheckpoints(sink(control)).RunStates(ids, rebaseWordAlgo(), rebaseRounds, sched)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(col)
		if len(control) != len(at) {
			t.Fatalf("%q: control took checkpoints at %d of %d rounds", prof, len(control), len(at))
		}
		for _, k := range at {
			for _, p := range []int{1, 3} {
				snap, err := DecodeSnapshot(control[k])
				if err != nil {
					t.Fatal(err)
				}
				resumed := map[int][]byte{}
				col2, rounds2, rep2, err := rebasePlane(t, hs.src, hs.h, p).WithCheckpoints(sink(resumed)).Resume(snap).RunStates(ids, rebaseWordAlgo(), rebaseRounds, sched)
				if err != nil {
					t.Fatalf("%q: resume from %d at P=%d: %v", prof, k, p, err)
				}
				if rounds2 != rounds || !slices.Equal(col2, want) || !reflect.DeepEqual(rep2, rep) {
					t.Fatalf("%q: resume from %d at P=%d: rounds %d (control %d), states or report differ", prof, k, p, rounds2, rounds)
				}
				for _, j := range at {
					if j > k && string(resumed[j]) != string(control[j]) {
						t.Fatalf("%q: resume from %d at P=%d: checkpoint %d differs from the control's", prof, k, p, j)
					}
				}
			}
		}
	}
}

// TestRebaseEngineReuse: one engine running clean, then faulty, then
// clean again, each across two rebases, matches fresh engines.
func TestRebaseEngineReuse(t *testing.T) {
	defer par.Set(par.Set(4))
	for desc, hs := range rebaseHosts(t) {
		ids := rebaseIDs(hs.h.G.N())
		lossy := MustParseProfile("lossy:p=0.2").New(hs.h, 5)
		for _, p := range []int{1, 3} {
			e := rebasePlane(t, hs.src, hs.h, p)
			for i, sched := range []Schedule{nil, lossy, nil} {
				col, rounds, rep, err := e.RunStates(ids, rebaseWordAlgo(), rebaseRounds, sched)
				if err != nil {
					t.Fatal(err)
				}
				got := slices.Clone(col)
				fcol, frounds, frep, err := rebasePlane(t, hs.src, hs.h, p).RunStates(ids, rebaseWordAlgo(), rebaseRounds, sched)
				if err != nil {
					t.Fatal(err)
				}
				if rounds != frounds || !slices.Equal(got, fcol) || !reflect.DeepEqual(rep, frep) {
					t.Fatalf("%s P=%d run %d: reused engine differs from a fresh one", desc, p, i)
				}
			}
		}
	}
}

// TestRebaseDuplicateSend: a second SendWord on one slot is reported
// in the round it happens, also in the rounds on either side of a
// rebase (where the written arena has just been cleared).
func TestRebaseDuplicateSend(t *testing.T) {
	hs := rebaseHosts(t)["cycle:50"]
	for _, dupAt := range []int{1, 253, 254, 255, 507, 508, 509} {
		algo := WordAlgo{
			Init: func(int64, NodeInfo) uint64 { return 0 },
			Step: func(st *uint64, round int, inbox []WordMsg, out *Outbox) bool {
				out.SendWord(0, uint64(round))
				if round == dupAt {
					out.SendWord(0, 1)
				}
				return false
			},
			Out: func(*uint64) Output { return Output{} },
		}
		for _, p := range []int{1, 3} {
			_, _, _, err := rebasePlane(t, hs.src, hs.h, p).RunStates(nil, algo, rebaseRounds, nil)
			if want := fmt.Sprintf("model: round %d: node 0 sent twice on slot 0", dupAt); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("duplicate at round %d, P=%d: error %v, want %q", dupAt, p, err, want)
			}
		}
	}
}

// TestRebaseSnapshotBytesPinned pins the encoded checkpoints of a run
// across two rebases (rounds 300 and 600 of the long flood on the
// torus, clean and lossy): snapshots list live slots, not stamps, so
// their bytes depend neither on the stamp width nor on when the plane
// rebases. Job checkpoints written by earlier builds must keep
// resuming, so these bytes may only change with a version bump.
func TestRebaseSnapshotBytesPinned(t *testing.T) {
	hs := rebaseHosts(t)["torus:5x5"]
	ids := rebaseIDs(hs.h.G.N())
	for _, tc := range []struct{ prof, want string }{
		{"", "139b53d2eecc2dd513cbb81a219a36de5b385d5beca950aee48f8bc224d61251"},
		{"lossy:p=0.2", "e3448d84af11a93def60353d1bda0f94ea39f4926a27eb32c3e32871731da93e"},
	} {
		var sched Schedule
		if tc.prof != "" {
			sched = MustParseProfile(tc.prof).New(hs.h, 99)
		}
		sum := sha256.New()
		ck := &Checkpointer{Every: 300, Sink: func(s *Snapshot) error {
			sum.Write(s.Encode())
			return nil
		}}
		if _, _, _, err := NewEngine(hs.h).WithCheckpoints(ck).RunStates(ids, rebaseWordAlgo(), rebaseRounds, sched); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != tc.want {
			t.Errorf("profile %q: snapshot bytes hash %s, want %s", tc.prof, got, tc.want)
		}
	}
}

// TestRebaseNoGhostsAcrossRuns: a run that stops right after a rebase
// leaves low stamps (1 and 2) in both arenas, the very stamps a new
// run's first rounds read; Run's stamp clear must keep the next run
// from seeing any of them, at P=1 and P=3.
func TestRebaseNoGhostsAcrossRuns(t *testing.T) {
	defer par.Set(par.Set(4))
	pulse := func(haltAt int) WordAlgo {
		return WordAlgo{
			Init: func(int64, NodeInfo) uint64 { return 0 },
			Step: func(st *uint64, round int, inbox []WordMsg, out *Outbox) bool {
				if round >= haltAt {
					return true
				}
				out.BroadcastWord(uint64(round))
				return false
			},
			Out: func(*uint64) Output { return Output{} },
		}
	}
	// listen counts every delivery of its first rounds and sends nothing.
	listen := WordAlgo{
		Init: func(int64, NodeInfo) uint64 { return 0 },
		Step: func(st *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			*st += uint64(len(inbox))
			return round >= 3
		},
		Out: func(*uint64) Output { return Output{} },
	}
	for desc, hs := range rebaseHosts(t) {
		for _, p := range []int{1, 3} {
			e := rebasePlane(t, hs.src, hs.h, p)
			for _, haltAt := range []int{253, 254, 255, 256, 508, 509} {
				if _, _, err := e.Run(nil, pulse(haltAt), rebaseRounds, nil); err != nil {
					t.Fatal(err)
				}
				if _, _, err := e.Run(nil, listen, rebaseRounds, nil); err != nil {
					t.Fatal(err)
				}
				e.VisitStates(func(v int64, st uint64) {
					if st != 0 {
						t.Fatalf("%s P=%d after a run halting at %d: node %d read %d ghost messages", desc, p, haltAt, v, st)
					}
				})
			}
		}
	}
}
