package bft

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"peats/internal/durable"
	"peats/internal/metrics"
	"peats/internal/policy"
	"peats/internal/transport"
	"peats/internal/tuple"
)

// stoppedReplica builds a replica that is never started, so a test can
// drive its loop-owned state from its own goroutine.
func stoppedReplica(t *testing.T, compactEvery int) *Replica {
	t.Helper()
	ids := []string{"r0", "r1", "r2", "r3"}
	rep, err := NewReplica(ReplicaConfig{
		ID: "r0", Replicas: ids, F: 1,
		Transport:          transport.NewNetwork(7).Endpoint("r0"),
		Service:            NewSpaceService(policy.AllowAll()),
		CheckpointInterval: 4,
		CompactEvery:       compactEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.initTimers() // stabilize disarms them
	return rep
}

// TestRebaseRule pins the mode decision: a function of the chain head
// (two lengths every holder of the head agrees on), the sequence number
// and the configuration, and of nothing else.
func TestRebaseRule(t *testing.T) {
	const interval, every = 4, 3 // grid points are the multiples of 12
	grow := func(h cpHead, blobs ...int) cpHead {
		for _, n := range blobs {
			h = h.extend(make([]byte, n))
		}
		return h
	}
	rows := []struct {
		name    string
		every   int
		headed  bool
		baseLen uint64
		blobs   []int
		seq     uint64
		stalled bool
		want    cpMode
	}{
		{"chain below base, on the grid", every, true, 1000, []int{300, 300, 300}, 24, false, cpDelta},
		{"chain reaches base, on the grid", every, true, 1000, []int{300, 300, 400}, 24, false, cpFull},
		{"chain past base, off the grid", every, true, 1000, []int{600, 600}, 20, false, cpDelta},
		{"empty base is outgrown at once", every, true, 0, nil, 12, false, cpFull},
		{"tiny deltas count for base/1024 each", every, true, 2048 * 1024, repeat(2, 1023), 12, false, cpDelta},
		{"and force a re-base by the 1024th", every, true, 2048 * 1024, repeat(2, 1024), 12, false, cpFull},
		{"every checkpoint full", 1, true, 1000, nil, 4, false, cpFull},
		{"every checkpoint full, head or not", 1, false, 0, nil, 8, false, cpFull},
		{"no head, off the grid", every, false, 0, nil, 20, false, cpAwait},
		{"no head, on the grid", every, false, 0, nil, 24, false, cpAwait},
		{"stalled, on the grid", every, true, 1000, []int{10}, 1032, true, cpFull},
		{"stalled, on the grid, no head", every, false, 0, nil, 1032, true, cpFull},
		{"stalled, off the grid", every, true, 1000, []int{10}, 1028, true, cpDelta},
	}
	for _, row := range rows {
		// Two replicas given the same inputs decide alike.
		for range 2 {
			r := stoppedReplica(t, row.every)
			r.cpHave = row.headed
			r.cpHead = grow(cpHead{baseLen: row.baseLen}, row.blobs...)
			if !row.stalled {
				r.lowWater = row.seq - interval
			} // else nothing has stabilised since 0, more than window/2 ago
			if _, got := r.tryDeltaCheckpoint(row.seq); got != row.want {
				t.Errorf("%s: mode %d, want %d (head %+v)", row.name, got, row.want, r.cpHead)
			}
		}
	}
	// A chain is weighed in whole deltas of at least base/1024, so it
	// never grows past 1024 of them before a grid point takes it.
	h := cpHead{baseLen: 1 << 30}
	for i := 1; !h.outgrown(); i++ {
		if i > minDeltaShare {
			t.Fatalf("chain of %d deltas still below its base", i)
		}
		h = h.extend([]byte{0, 0})
	}
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestAdoptionNeedsMatchingVotes pins what a replica without a chain
// head accepts: f+1 announcements from others that agree on the digest
// and on both lengths, for the boundary its journal restarted at.
func TestAdoptionNeedsMatchingVotes(t *testing.T) {
	r := stoppedReplica(t, 3)
	r.cpHave, r.executed = false, 9
	if _, mode := r.tryDeltaCheckpoint(8); mode != cpAwait {
		t.Fatalf("headless boundary took mode %d", mode)
	}
	r.cpSeq = 8
	good := cpHead{digest: [32]byte{1}, baseLen: 5000, chainLen: 120}
	vote := func(from string, seq uint64, h cpHead) {
		r.recordCheckpoint(Checkpoint{Seq: seq, Digest: h.digest, BaseLen: h.baseLen, ChainLen: h.chainLen, Replica: from})
	}
	vote("r1", 8, good)
	if r.cpHave {
		t.Fatal("adopted a head from one vote")
	}
	vote("r0", 8, good) // our own identity adds nothing
	vote("r2", 8, cpHead{digest: good.digest, baseLen: good.baseLen, chainLen: good.chainLen + 1})
	vote("r3", 8, cpHead{digest: good.digest, baseLen: good.baseLen - 1, chainLen: good.chainLen})
	if r.cpHave {
		t.Fatal("adopted a head from votes that agree on the digest but not on the lengths")
	}
	if r.groupStable != 0 {
		t.Fatalf("votes with differing lengths formed a quorum at %d", r.groupStable)
	}
	vote("r1", 12, good)
	vote("r2", 12, good)
	if r.cpHave {
		t.Fatal("adopted a head announced for another boundary")
	}
	vote("r2", 8, good)
	if !r.cpHave || r.cpHead != good {
		t.Fatalf("f+1 matching votes not adopted: have=%v head=%+v", r.cpHave, r.cpHead)
	}
	if _, ok := r.chainPackFor(8); ok {
		t.Fatal("a replica that adopted its head served a chain pack without a base")
	}
	if _, mode := r.tryDeltaCheckpoint(16); mode != cpDelta {
		t.Fatalf("boundary after adoption took mode %d", mode)
	}

	// A replica that has a head keeps it against anything less than a
	// quorum of others.
	other := cpHead{digest: [32]byte{2}, baseLen: 7000}
	r.cpSeq = 16
	vote("r1", 16, other)
	vote("r2", 16, other)
	if r.cpHead == other {
		t.Fatal("f+1 votes displaced a head the replica computed itself")
	}
	vote("r3", 16, other)
	if r.cpHead != other {
		t.Fatal("a full quorum of others did not displace the odd head out")
	}
}

// chainCluster is an n=4 durable cluster whose chain stays far below
// its base: the first grid point (seq 8) re-bases on a few large tuples,
// and everything after is small.
func chainCluster(t *testing.T) (*Cluster, []*durable.DB, []string, *RemoteSpace, context.Context) {
	t.Helper()
	cl, dbs, dirs := durableCluster(t, 1, 2, nil,
		WithCheckpointInterval(4), WithCompactEvery(2), WithCheckpointHistory(),
		WithViewChangeTimeout(time.Hour))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	ts := NewRemoteSpace(cl.Client("c"))
	for i := int64(0); i < 8; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("big"), tuple.Int(i), tuple.Bytes(make([]byte, 8<<10)))); err != nil {
			t.Fatal(err)
		}
	}
	return cl, dbs, dirs, ts, ctx
}

// write submits n small operations, one per sequence number.
func write(t *testing.T, ctx context.Context, ts *RemoteSpace, from, n int64) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("s"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// settle waits until every running replica has executed the same
// sequence number.
func settle(t *testing.T, cl *Cluster) uint64 {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		want, same := cl.Replicas[0].Executed(), true
		for _, r := range cl.Replicas {
			same = same && r.Executed() == want
		}
		if same {
			return want
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas never converged on an executed sequence number")
		}
	}
}

// restartFromDisk stops cl's i-th replica, closes its engine and brings
// it back from its data directory, the way a restarted peats-server
// would — on the same network endpoint, with a metrics registry of its
// own.
func restartFromDisk(t *testing.T, cl *Cluster, dbs []*durable.DB, dirs []string, i int) *Replica {
	t.Helper()
	cl.Replicas[i].Stop()
	if err := dbs[i].Close(); err != nil {
		t.Fatal(err)
	}
	db, err := durable.Open(durable.Options{Dir: dirs[i], AutoCompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewDurableSpaceService(policy.AllowAll(), db, 2)
	if err != nil {
		t.Fatal(err)
	}
	id := cl.IDs[i]
	rep, err := NewReplica(ReplicaConfig{
		ID: id, Replicas: cl.IDs, F: cl.F,
		Transport:             cl.Net.Endpoint(id),
		Service:               svc,
		CheckpointInterval:    4,
		CompactEvery:          2,
		KeepCheckpointHistory: true,
		ViewChangeTimeout:     time.Hour,
		Keyring:               cl.keyrings[id],
		Metrics:               metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	dbs[i], cl.services[i], cl.Replicas[i] = db, svc, rep
	rep.Start()
	return rep
}

// TestRecoveredReplicaAdoptsChain: a replica back from its data
// directory has no chain head. It must not snapshot its way back — on a
// large space that is the stall this rule exists to avoid, and it would
// start a chain of its own — but take the head the others announce at
// its first boundary and vote with them from the second.
func TestRecoveredReplicaAdoptsChain(t *testing.T) {
	cl, dbs, dirs, ts, ctx := chainCluster(t)
	write(t, ctx, ts, 0, 14) // seq 22: the chain is three deltas past its base at 8
	recovered := settle(t, cl)

	r3 := restartFromDisk(t, cl, dbs, dirs, 3)
	if r3.Executed() != recovered {
		t.Fatalf("r3 recovered seq %d, the group is at %d", r3.Executed(), recovered)
	}
	write(t, ctx, ts, 14, 90) // through 20 more boundaries, grid points among them
	last := settle(t, cl)
	cl.Stop()

	group, mine := cl.Replicas[0].CheckpointDigests(), r3.CheckpointDigests()
	firstBoundary := (recovered/4 + 1) * 4
	for seq := firstBoundary + 4; seq <= last; seq += 4 {
		if mine[seq] != group[seq] || group[seq] == ([32]byte{}) {
			t.Fatalf("checkpoint %d: r3 published %x, the group %x", seq, mine[seq], group[seq])
		}
	}
	if _, voted := mine[firstBoundary]; voted {
		t.Fatalf("r3 published a digest at %d, the boundary it had no head for", firstBoundary)
	}
	if n := r3.m.checkpointsFull.Value(); n != 0 {
		t.Fatalf("r3 took %d full snapshots on its way back", n)
	}
	for _, r := range cl.Replicas[1:] {
		if r.StateDigest() != cl.Replicas[0].StateDigest() {
			t.Fatalf("%s diverged from r0 after quiescing", r.cfg.ID)
		}
	}
	// The weight rule, not the grid, set the pace: the base taken at the
	// first grid point still stands on a replica that never restarted.
	if base := cl.Replicas[0].cpBaseSeq; base != 8 {
		t.Fatalf("r0's chain is based at %d, want the first grid point", base)
	}
}

// TestCheckpointsStabiliseWithOneDownOneRecovered: with one replica
// down for good, the checkpoint quorum needs the recovered replica's
// vote. If it only dissented, nothing would stabilise and the group
// would wedge at the high-water mark, window sequence numbers on.
func TestCheckpointsStabiliseWithOneDownOneRecovered(t *testing.T) {
	cl, dbs, dirs, ts, ctx := chainCluster(t)
	write(t, ctx, ts, 0, 14)
	settle(t, cl)

	r3 := restartFromDisk(t, cl, dbs, dirs, 3)
	cl.Replicas[2].Stop()
	cl.Replicas = append(cl.Replicas[:2:2], cl.Replicas[3])

	write(t, ctx, ts, 14, window+64)
	last := settle(t, cl)
	for _, r := range cl.Replicas {
		if lw := r.LowWater(); lw+16 < last {
			t.Fatalf("%s: low-water mark %d with %d executed", r.cfg.ID, lw, last)
		}
	}
	cl.Stop()
	// Adoption got it there, not the stalled-group backstop (which would
	// have had everyone snapshot at grid points half a window on).
	if n := r3.m.checkpointsFull.Value(); n != 0 {
		t.Fatalf("r3 took %d full snapshots", n)
	}
}

// TestWholeClusterRestartRebasesAtTheBackstop: when every replica comes
// back from disk nobody has a head to announce, so nobody can adopt
// one. Checkpoints then fail to stabilise, and half a window on the
// grid does what it always did: everyone snapshots at the same grid
// point, and the chain starts over from there.
func TestWholeClusterRestartRebasesAtTheBackstop(t *testing.T) {
	cl, dbs, dirs, ts, ctx := chainCluster(t)
	write(t, ctx, ts, 0, 14)
	recovered := settle(t, cl)
	for i := range cl.Replicas {
		restartFromDisk(t, cl, dbs, dirs, i)
	}
	write(t, ctx, ts, 14, window/2+32)
	last := settle(t, cl)
	cl.Stop()
	for _, r := range cl.Replicas {
		if lw := r.LowWater(); lw+16 < last {
			t.Fatalf("%s: low-water mark %d with %d executed", r.cfg.ID, lw, last)
		}
		if base, want := r.cpBaseSeq, (recovered+window/2+7)/8*8; base != want {
			t.Fatalf("%s: chain based at %d, want the first grid point half a window past %d (%d)", r.cfg.ID, base, recovered, want)
		}
		if n := r.m.checkpointsFull.Value(); n != 1 {
			t.Fatalf("%s took %d full snapshots, want the backstop's one", r.cfg.ID, n)
		}
	}
}

// TestCompactionFollowsTheLogNotTheCheckpointMode: on a replica the log
// is folded when it has outgrown the snapshot, whatever the checkpoints
// around it were, and a crash in between recovers what a replica that
// compacted at every boundary recovers.
func TestCompactionFollowsTheLogNotTheCheckpointMode(t *testing.T) {
	cl, dbs, dirs, ts, ctx := chainCluster(t)
	write(t, ctx, ts, 0, 60)
	last := settle(t, cl)

	snaps := func(dir string) []string {
		m, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	before := snaps(dirs[0])
	if len(before) != 1 {
		t.Fatalf("want one snapshot on disk, have %v", before)
	}
	// 15 boundaries of small writes logged a fraction of the 64 KiB the
	// snapshot holds: none of them compacted, delta or not.
	write(t, ctx, ts, 60, 60)
	last = settle(t, cl)
	if after := snaps(dirs[0]); len(after) != 1 || after[0] != before[0] {
		t.Fatalf("compacted while the log was shorter than the snapshot: %v -> %v", before, after)
	}
	segs, bytes, err := dbs[0].DiskUsage()
	if err != nil || segs != 1 || bytes > 2*(70<<10) {
		t.Fatalf("disk: %d segments, %d bytes (err %v)", segs, bytes, err)
	}

	// SIGKILL r1's disk; what it recovers is the group's state.
	if err := dbs[1].Flush(); err != nil {
		t.Fatal(err)
	}
	dbs[1].Crash()
	cl.Stop()
	rep, _, db := reopenReplica(t, dirs[1], "r1", cl.IDs, 1, 2)
	defer db.Close()
	if rep.Executed() != last {
		t.Fatalf("recovered seq %d, want %d", rep.Executed(), last)
	}
	if rep.StateDigest() != cl.Replicas[0].StateDigest() {
		t.Fatal("state recovered across skipped compactions differs from the group's")
	}
}
