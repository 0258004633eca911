// The durable engine's parity suite lives in the external test package
// so it can import package durable (which imports space); it drives
// the same randomized operation sequences as the in-memory engines'
// suites, through the exported test hook.
package space_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"peats/internal/durable"
	"peats/internal/space"
)

// newDurableSpace opens a DB under dir and builds an n-shard space on
// it, installing whatever the directory holds.
func newDurableSpace(t *testing.T, dir string, n int, opts durable.Options) (*space.Space, *durable.DB) {
	t.Helper()
	opts.Dir = dir
	db, err := durable.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := space.NewShardedFactory(n, func(int) (space.Store, error) { return db.NewStore(), nil })
	if err != nil {
		t.Fatal(err)
	}
	db.StartLoad()
	if err := sp.Install(db.Recovered().Tuples); err != nil {
		t.Fatal(err)
	}
	db.EndLoad()
	return sp, db
}

// TestSpaceParityDurableEngine holds the durable engine — against a
// temp data directory, with segment rotation and auto-compaction live
// mid-run — observationally identical to the single-shard slice-store
// reference at every swept shard count, exactly like the in-memory
// engines. After each run the directory is reopened, the recovered
// state must equal the reference's final snapshot and go on answering
// like it: the write-ahead log is part of the determinism contract, not
// just a best-effort backup.
func TestSpaceParityDurableEngine(t *testing.T) {
	durableParity(t, 400, 404, 800, space.DriveSpacePair)
}

// TestSpaceParityDurableSharedTag is the same over a population of
// 5000 tuples under two tags: the recovered space, its index rebuilt
// from the log in one batch, must keep giving the reference's answers.
func TestSpaceParityDurableSharedTag(t *testing.T) {
	durableParity(t, 600, 601, 600, space.DriveSharedTagPair)
}

// durableParity runs drive over seeds [lo,hi) at every swept shard
// count, reopens the directory and compares the recovered contents,
// then drives the recovered space on against the same reference.
func durableParity(t *testing.T, lo, hi int64, steps int, drive func(*testing.T, int64, int, *space.Space, *space.Space)) {
	for _, n := range []int{1, 4, 16} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			for seed := lo; seed < hi; seed++ {
				ref := space.NewWithStore(space.NewSliceStore())
				dir := filepath.Join(t.TempDir(), fmt.Sprintf("seed%d", seed))
				// Small segments and an aggressive auto-compaction
				// threshold so rotation and compaction fire during the
				// run, under SyncNever to keep the suite fast.
				sp, db := newDurableSpace(t, dir, n, durable.Options{
					Sync:             durable.SyncNever,
					SegmentBytes:     4 << 10,
					AutoCompactBytes: 16 << 10,
				})
				drive(t, seed, steps, ref, sp)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				reopened, db2 := newDurableSpace(t, dir, n, durable.Options{Sync: durable.SyncNever})
				want, got := ref.Snapshot(), reopened.Snapshot()
				if len(want) != len(got) {
					t.Fatalf("seed %d: recovered %d tuples, reference holds %d", seed, len(got), len(want))
				}
				for i := range want {
					if !want[i].Equal(got[i]) {
						t.Fatalf("seed %d: recovered[%d] = %v, want %v", seed, i, got[i], want[i])
					}
				}
				drive(t, seed+1000, steps/4, ref, reopened)
				db2.Close()
			}
		})
	}
}
