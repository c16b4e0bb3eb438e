package wal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/registry"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// provisionFleet provisions n architectures of design d through reg,
// every fourth one wear-leveled, and wears each a little so the captured
// states differ from fresh hardware.
func provisionFleet(t *testing.T, reg *registry.Registry, d dse.Design, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seed := uint64(1000 + i)
		secret := []byte{byte(i), byte(i >> 8), 's', 'n', 'a', 'p'}
		var arch *core.Architecture
		var err error
		if i%4 == 3 {
			arch, err = core.BuildLeveled(d, secret, core.Leveling{Spares: 8, Epoch: 2}, rng.New(seed))
		} else {
			arch, err = core.Build(d, secret, rng.New(seed))
		}
		if err != nil {
			t.Fatal(err)
		}
		e, err := reg.Provision(arch, seed, secret)
		if err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			for j := 0; j < 3; j++ {
				if _, err := e.Access(context.Background(), accessEnv(j+i)); err != nil &&
					!errors.Is(err, core.ErrTransient) {
					t.Fatal(err)
				}
			}
		}
	}
}

// stateBytes is the canonical encoding of every architecture's state,
// keyed by ID, for bit-identical comparisons across recovery.
func stateBytes(t *testing.T, reg *registry.Registry) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	reg.Range(func(e *registry.Entry) bool {
		b, err := json.Marshal(e.Arch.State())
		if err != nil {
			t.Fatal(err)
		}
		out[e.ID] = b
		return true
	})
	return out
}

func assertSameStates(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d architectures, want %d", len(got), len(want))
	}
	for id, w := range want {
		if !bytes.Equal(got[id], w) {
			t.Fatalf("%s: recovered state differs from the live one", id)
		}
	}
}

// TestLargeSnapshotRoundTrips: a registry whose state encodes to more
// than one frame's worth of bytes (256 phone keys, ~21 MB) snapshots into
// frames that each fit under maxRecordLen, and recovers from the snapshot
// alone into bit-identical state.
func TestLargeSnapshotRoundTrips(t *testing.T) {
	design, err := dse.Explore(dse.Spec{
		Dist:        weibull.MustNew(14, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         350,
		KFrac:       0.1,
		ContinuousT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	defer st.Close()
	reg := registry.NewWithStore(4, st)
	if _, err := st.Recover(reg); err != nil {
		t.Fatal(err)
	}
	const fleet = 256
	provisionFleet(t, reg, design, fleet)
	if err := st.Snapshot(reg); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, snapName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= maxRecordLen {
		t.Fatalf("snapshot is only %d bytes; the test needs more than the %d-byte frame cap",
			len(data), maxRecordLen)
	}
	frames, largest := 0, 0
	if _, _, err := scanFrames("snap", data, func(p []byte) error {
		frames++
		largest = max(largest, len(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if frames != fleet+1 || largest > maxRecordLen {
		t.Fatalf("snapshot has %d frames (largest %d bytes), want %d frames each <= %d",
			frames, largest, fleet+1, maxRecordLen)
	}

	reg2, st2, stats := recoverInto(t, dir)
	defer st2.Close()
	if stats.SnapshotArchitectures != fleet || stats.ReplayedRecords() != 0 {
		t.Fatalf("recovered %d archs from the snapshot and replayed %d records, want %d and 0",
			stats.SnapshotArchitectures, stats.ReplayedRecords(), fleet)
	}
	assertSameStates(t, stateBytes(t, reg), stateBytes(t, reg2))
}

// TestFormat1SnapshotStillLoads: a snapshot written in the original
// single-frame framing recovers into the same state as its format-2 twin.
func TestFormat1SnapshotStillLoads(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	defer st.Close()
	reg, e := provisionVia(t, st)
	drive(t, e, 10)
	if err := st.Snapshot(reg); err != nil {
		t.Fatal(err)
	}
	snap, err := st.loadSnapshot(2)
	if err != nil {
		t.Fatal(err)
	}
	snap.Format, snap.ArchCount = 1, 0
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(2)), appendFrame(nil, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	reg2, st2, stats := recoverInto(t, dir)
	defer st2.Close()
	if stats.SnapshotEpoch != 2 || stats.SnapshotArchitectures != 1 {
		t.Fatalf("recovered epoch %d with %d archs, want epoch 2 with 1",
			stats.SnapshotEpoch, stats.SnapshotArchitectures)
	}
	assertSameStates(t, stateBytes(t, reg), stateBytes(t, reg2))
}

// TestSnapshotFrameCountMismatchRefuses: a format-2 snapshot missing an
// architecture frame, or carrying one its header did not declare, is
// damage and fails recovery closed.
func TestSnapshotFrameCountMismatchRefuses(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	defer st.Close()
	reg, _ := provisionVia(t, st)
	if err := st.Snapshot(reg); err != nil {
		t.Fatal(err)
	}
	snap, err := st.loadSnapshot(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{0, 2} {
		hdr := *snap
		hdr.Archs = nil
		hdr.ArchCount = count
		payload, err := json.Marshal(&hdr)
		if err != nil {
			t.Fatal(err)
		}
		arch, err := json.Marshal(&snap.Archs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapName(2)), appendFrame(appendFrame(nil, payload), arch), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = st.loadSnapshot(2)
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("header count %d over 1 frame: loadSnapshot = %v, want a CorruptionError", count, err)
		}
	}
}
