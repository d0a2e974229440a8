package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/digraph"
	"repro/internal/model"
	"repro/internal/problems"
)

// directedPath returns the n-path 0→1→…→n−1: its radius-r views are
// asymmetric (distance-to-end matters), so the type catalogue is
// nontrivial and the enumeration long enough to checkpoint.
func directedPath(t testing.TB, n int) *model.Host {
	t.Helper()
	b := digraph.NewBuilder(n, 1)
	for i := 0; i < n-1; i++ {
		b.MustAddArc(i, i+1, 0)
	}
	d, err := b.Build().WithAlphabet(1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := model.NewHost(d)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// collectCertify runs a checkpointed certification and returns the
// bound plus the encoded checkpoint stream keyed by cursor.
func collectCertify(t testing.TB, h *model.Host, p problems.Problem, r, every int, resume *CertifySnapshot) (*LowerBound, map[int][]byte) {
	t.Helper()
	stream := map[int][]byte{}
	lb, err := CertifyPOLowerBoundOpts(h, p, r, 1<<20, CertifyOpts{
		Every:  every,
		Resume: resume,
		Checkpoint: func(s *CertifySnapshot) error {
			stream[s.Next] = s.Encode()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return lb, stream
}

func TestCertifyOptsMatchesPlain(t *testing.T) {
	h := directedPath(t, 16)
	p := problems.MinVertexCover{}
	plain, err := CertifyPOLowerBound(h, p, 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Algorithms < 32 || plain.Types < 5 {
		t.Fatalf("path instance too small to exercise checkpoints: %+v", plain)
	}
	var calls, lastDone int
	lb, err := CertifyPOLowerBoundOpts(h, p, 2, 1<<20, CertifyOpts{
		Every:    5,
		Progress: func(done, total int) { calls++; lastDone = done },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, lb) {
		t.Fatalf("opts run differs from plain:\n  %+v\n  %+v", plain, lb)
	}
	if calls == 0 || lastDone != plain.Algorithms {
		t.Fatalf("progress calls=%d lastDone=%d (want final done=%d)", calls, lastDone, plain.Algorithms)
	}
}

// TestCertifyResumeEquality: resume from every checkpoint reproduces
// the uninterrupted bound, and the checkpoints a resumed run emits are
// byte-identical to the control run's from the resume point on.
func TestCertifyResumeEquality(t *testing.T) {
	h := directedPath(t, 16)
	p := problems.MinVertexCover{}
	const every = 5
	control, stream := collectCertify(t, h, p, 2, every, nil)
	if len(stream) == 0 {
		t.Fatal("control run produced no checkpoints")
	}
	for next, payload := range stream {
		snap, err := DecodeCertifySnapshot(payload)
		if err != nil {
			t.Fatalf("decode checkpoint at %d: %v", next, err)
		}
		resumed, rstream := collectCertify(t, h, p, 2, every, snap)
		if !reflect.DeepEqual(control, resumed) {
			t.Fatalf("resume from %d differs:\n  control %+v\n  resumed %+v", next, control, resumed)
		}
		for rn, rp := range rstream {
			if rn < next {
				t.Fatalf("resume from %d emitted earlier checkpoint %d", next, rn)
			}
			if !bytes.Equal(rp, stream[rn]) {
				t.Fatalf("resume from %d: checkpoint %d not byte-identical to control", next, rn)
			}
		}
	}
}

func TestCertifySnapshotRoundTrip(t *testing.T) {
	h := directedPath(t, 12)
	p := problems.MinVertexCover{}
	_, stream := collectCertify(t, h, p, 2, 7, nil)
	for next, payload := range stream {
		snap, err := DecodeCertifySnapshot(payload)
		if err != nil {
			t.Fatalf("decode at %d: %v", next, err)
		}
		if !bytes.Equal(snap.Encode(), payload) {
			t.Fatalf("re-encode at %d not byte-identical", next)
		}
		if snap.Next != next || snap.Problem != p.Name() || snap.Radius != 2 || snap.N != 12 {
			t.Fatalf("decoded header wrong: %+v", snap)
		}
	}
}

func TestCertifyCancel(t *testing.T) {
	h := directedPath(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CertifyPOLowerBoundOpts(h, problems.MinVertexCover{}, 2, 1<<20, CertifyOpts{Ctx: ctx}); err != context.Canceled {
		t.Fatalf("cancelled certify returned %v", err)
	}
}

func TestCertifyResumeMismatch(t *testing.T) {
	h := directedPath(t, 16)
	p := problems.MinVertexCover{}
	_, stream := collectCertify(t, h, p, 2, 5, nil)
	var snap *CertifySnapshot
	for _, payload := range stream {
		s, err := DecodeCertifySnapshot(payload)
		if err != nil {
			t.Fatal(err)
		}
		snap = s
		break
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"wrong problem", func() error {
			_, err := CertifyPOLowerBoundOpts(h, problems.MinDominatingSet{}, 2, 1<<20, CertifyOpts{Resume: snap})
			return err
		}},
		{"wrong radius", func() error {
			_, err := CertifyPOLowerBoundOpts(h, p, 1, 1<<20, CertifyOpts{Resume: snap})
			return err
		}},
		{"wrong host size", func() error {
			_, err := CertifyPOLowerBoundOpts(directedPath(t, 10), p, 2, 1<<20, CertifyOpts{Resume: snap})
			return err
		}},
		{"budget re-enforced", func() error {
			_, err := CertifyPOLowerBoundOpts(h, p, 2, 4, CertifyOpts{Resume: snap})
			return err
		}},
	}
	for _, tc := range cases {
		if tc.run() == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestCertifyDecodeCorrupt(t *testing.T) {
	h := directedPath(t, 12)
	_, stream := collectCertify(t, h, problems.MinVertexCover{}, 2, 7, nil)
	var payload []byte
	for _, p := range stream {
		payload = p
		break
	}
	if _, err := DecodeCertifySnapshot(payload[:len(payload)-3]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if _, err := DecodeCertifySnapshot(append(append([]byte{}, payload...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := DecodeCertifySnapshot([]byte{99}); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := DecodeCertifySnapshot(nil); err == nil {
		t.Error("empty snapshot accepted")
	}
	// Cursor past the end of the space must be rejected at resume.
	snap, err := DecodeCertifySnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	snap.Next = 1 << 30
	if _, err := CertifyPOLowerBoundOpts(h, problems.MinVertexCover{}, 2, 1<<20, CertifyOpts{Resume: snap}); err == nil {
		t.Error("out-of-range resume cursor accepted")
	}
}

// hostileCertifySnapshot is a 9-byte payload claiming 2^28 nodes:
// version 1, an empty problem name, radius 0, N, then optimum 0.
func hostileCertifySnapshot() []byte {
	return append(binary.AppendUvarint([]byte{1, 0, 0}, 1<<28), 0)
}

// TestCertifyDecodeHostile: the node count is bounded by the bytes
// that back it before anything is allocated, so a tiny hostile payload
// fails fast instead of reserving a gigabyte.
func TestCertifyDecodeHostile(t *testing.T) {
	payload := hostileCertifySnapshot()
	if len(payload) != 9 {
		t.Fatalf("hostile payload is %d bytes, want 9", len(payload))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := DecodeCertifySnapshot(payload); err == nil {
		t.Fatal("hostile certify snapshot decoded")
	}
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew > 1<<16 {
		t.Fatalf("hostile certify snapshot allocated %d bytes", grew)
	}
}

// FuzzDecodeCertifySnapshot: DecodeCertifySnapshot never panics, and
// whatever it accepts re-encodes to the bytes of its own round trip.
func FuzzDecodeCertifySnapshot(f *testing.F) {
	h := directedPath(f, 12)
	_, stream := collectCertify(f, h, problems.MinVertexCover{}, 2, 7, nil)
	for _, payload := range stream {
		f.Add(payload)
	}
	f.Add(hostileCertifySnapshot())
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := DecodeCertifySnapshot(payload)
		if err != nil {
			return
		}
		enc := s.Encode()
		again, err := DecodeCertifySnapshot(enc)
		if err != nil || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("accepted payload %x does not round-trip (err %v)", payload, err)
		}
	})
}
