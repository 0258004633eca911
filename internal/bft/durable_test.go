package bft

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"peats/internal/durable"
	"peats/internal/policy"
	"peats/internal/transport"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// durableCluster builds an in-proc cluster whose replicas all persist
// to per-replica temp data directories.
func durableCluster(t *testing.T, f, shards int, dbOpts func(*durable.Options), opts ...ClusterOption) (*Cluster, []*durable.DB, []string) {
	t.Helper()
	n := 3*f + 1
	dirs := make([]string, n)
	dbs := make([]*durable.DB, n)
	services := make([]Service, n)
	for i := 0; i < n; i++ {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("r%d", i))
		o := durable.Options{Dir: dirs[i], AutoCompactBytes: -1}
		if dbOpts != nil {
			dbOpts(&o)
		}
		db, err := durable.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
		svc, err := NewDurableSpaceService(policy.AllowAll(), db, shards)
		if err != nil {
			t.Fatal(err)
		}
		services[i] = svc
	}
	cl, err := NewCluster(f, services, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cl, dbs, dirs
}

// reopenReplica recovers a data directory into a fresh (stopped)
// replica, the way a restarted peats-server would.
func reopenReplica(t *testing.T, dir, id string, ids []string, f, shards int) (*Replica, *SpaceService, *durable.DB) {
	t.Helper()
	db, err := durable.Open(durable.Options{Dir: dir, AutoCompactBytes: -1})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	svc, err := NewDurableSpaceService(policy.AllowAll(), db, shards)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(ReplicaConfig{
		ID: id, Replicas: ids, F: f,
		Transport: transport.NewNetwork(99).Endpoint(id),
		Service:   svc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, svc, db
}

// TestDurableReplicaKilledMidLoadRecoversToStableCheckpointDigest is
// the crash-recovery acceptance property: a replica whose durability
// engine dies mid-load (the in-process stand-in for SIGKILL — group
// commit loses its unsynced window) recovers from its data directory
// alone to a state whose full snapshot digest equals a checkpoint
// digest the healthy replicas published for that sequence number.
func TestDurableReplicaKilledMidLoadRecoversToStableCheckpointDigest(t *testing.T) {
	// Every sequence number is a full checkpoint, so every recovery
	// point has a published digest to compare against.
	cl, dbs, dirs := durableCluster(t, 1, 2, nil,
		WithCheckpointInterval(1), WithCompactEvery(1), WithCheckpointHistory())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	ts := NewRemoteSpace(cl.Client("alice"))
	for i := int64(0); i < 60; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("K"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, _, err := ts.Inp(ctx, tuple.T(tuple.Str("K"), tuple.Int(i-2))); err != nil {
				t.Fatal(err)
			}
		}
		if i == 30 {
			dbs[3].Crash() // SIGKILL r3's disk mid-load; the replica itself keeps running
		}
	}
	cl.Stop()
	digests := cl.Replicas[0].CheckpointDigests()
	if len(digests) == 0 {
		t.Fatal("healthy replica recorded no checkpoints")
	}

	rep, _, db := reopenReplica(t, dirs[3], "r3", cl.IDs, 1, 2)
	defer db.Close()
	k := rep.Executed()
	if k == 0 {
		t.Fatal("r3 recovered nothing despite 30+ committed operations")
	}
	want, ok := digests[k]
	if !ok {
		t.Fatalf("no healthy checkpoint digest at recovered seq %d", k)
	}
	if got := rep.StateDigest(); got != want {
		t.Fatalf("recovered state digest at seq %d diverges from the stable checkpoint", k)
	}
}

// TestDurableClusterRestartServesAndBoundsDisk stops a durable cluster
// cleanly, reopens every data directory, and checks (a) all replicas
// recovered to the same state digest at the same sequence, (b) a fresh
// cluster over the recovered services serves reads of the old data and
// accepts new writes, and (c) compaction kept every data directory's
// segment count and size bounded during the sustained load — by folding
// the log whenever it outgrew the snapshot, at whichever checkpoint
// boundary that was (the grid of CompactEvery 2 only decides where the
// digest chain may re-base).
func TestDurableClusterRestartServesAndBoundsDisk(t *testing.T) {
	cl, dbs, dirs := durableCluster(t, 1, 2,
		func(o *durable.Options) { o.SegmentBytes = 1 << 12 },
		WithCheckpointInterval(4), WithCompactEvery(2))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	ts := NewRemoteSpace(cl.Client("alice"))
	const ops = 200
	for i := int64(0); i < ops; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("D"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if _, _, err := ts.Inp(ctx, tuple.T(tuple.Str("D"), tuple.Int(i-1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Replicas execute asynchronously: let everyone reach the last
	// committed unit before stopping, so the recovered positions are
	// comparable.
	converged := func() bool {
		want := cl.Replicas[0].Executed()
		for _, r := range cl.Replicas {
			if r.Executed() != want {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(20 * time.Second); !converged(); {
		if time.Now().After(deadline) {
			t.Fatal("replicas never converged on executed seq")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Compaction at checkpoint boundaries must have pruned dead
	// segments: 200 mutations at 4KiB segments without pruning would
	// pile up many, while the live set is ~100 small tuples.
	for i, db := range dbs {
		segs, bytes, err := db.DiskUsage()
		if err != nil {
			t.Fatal(err)
		}
		if segs > 3 || bytes > 64<<10 {
			t.Fatalf("replica %d disk unbounded: %d segments, %d bytes", i, segs, bytes)
		}
	}
	cl.Stop()

	// Reopen all four directories: everyone must land on one digest.
	services := make([]Service, 4)
	var wantDigest [32]byte
	var wantSeq uint64
	for i := 0; i < 4; i++ {
		rep, svc, db := reopenReplica(t, dirs[i], fmt.Sprintf("r%d", i), cl.IDs, 1, 2)
		defer db.Close()
		if i == 0 {
			wantDigest, wantSeq = rep.StateDigest(), rep.Executed()
		} else {
			if rep.Executed() != wantSeq {
				t.Fatalf("replica %d recovered seq %d, others %d", i, rep.Executed(), wantSeq)
			}
			if rep.StateDigest() != wantDigest {
				t.Fatalf("replica %d recovered a diverging state digest", i)
			}
		}
		services[i] = svc
	}
	if wantSeq == 0 {
		t.Fatal("clean shutdown recovered nothing")
	}

	cl2, err := NewCluster(1, services)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Stop()
	ts2 := NewRemoteSpace(cl2.Client("bob")) // fresh identity: at-most-once state survived for "alice"
	got, ok, err := ts2.Rdp(ctx, tuple.T(tuple.Str("D"), tuple.Formal("v")))
	if err != nil || !ok {
		t.Fatalf("read of pre-restart data: ok=%v err=%v", ok, err)
	}
	// Odd values survive the Inp churn; the first in insertion order is 1.
	if v, _ := got.Field(1).IntValue(); v != 1 {
		t.Fatalf("recovered first match %v, want value 1", got)
	}
	if err := ts2.Out(ctx, tuple.T(tuple.Str("post"), tuple.Int(1))); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
	if _, ok, err := ts2.Rdp(ctx, tuple.T(tuple.Str("post"), tuple.Any())); err != nil || !ok {
		t.Fatalf("read-back after restart: ok=%v err=%v", ok, err)
	}
}

// TestDeltaCheckpointsEquivalentToFullRestores pins the incremental
// checkpoint's core equivalence: applying the journal deltas one
// checkpoint at a time reproduces, byte for byte, the full snapshot of
// the producing service — across different engines and shard counts,
// since deltas are value-addressed.
func TestDeltaCheckpointsEquivalentToFullRestores(t *testing.T) {
	producer, err := NewSpaceServiceWithConfig(policy.AllowAll(), "indexed", 1)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := NewSpaceServiceWithConfig(policy.AllowAll(), "slice", 4)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSpaceService(policy.AllowAll())

	rng := rand.New(rand.NewSource(7))
	entry := func() tuple.Tuple {
		return tuple.T(tuple.Str(string(rune('A'+rng.Intn(3)))), tuple.Int(int64(rng.Intn(5))))
	}
	for step := 0; step < 400; step++ {
		var op wire.SpaceOp
		switch rng.Intn(3) {
		case 0:
			op = wire.SpaceOp{Op: policy.OpOut, Entry: entry()}
		case 1:
			op = wire.SpaceOp{Op: policy.OpInp, Template: entry()}
		default:
			op = wire.SpaceOp{Op: policy.OpCas, Template: entry(), Entry: entry()}
		}
		producer.Execute("c", wire.EncodeSpaceOp(op))
		if step%20 != 19 {
			continue
		}
		delta, ok := producer.CheckpointDelta()
		if !ok {
			t.Fatalf("step %d: journal unexpectedly broken", step)
		}
		if err := follower.ApplyDelta(delta); err != nil {
			t.Fatalf("step %d: apply delta: %v", step, err)
		}
		full := producer.Snapshot()
		if !bytes.Equal(full, follower.Snapshot()) {
			t.Fatalf("step %d: delta-following state diverged from producer", step)
		}
		if err := restored.Restore(full); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full, restored.Snapshot()) {
			t.Fatalf("step %d: full restore diverged", step)
		}
	}
}

// TestChainStateTransferCatchesUpLaggard pins the base-plus-deltas
// state transfer: a replica partitioned across several delta
// checkpoints (no full checkpoint in between would be available at the
// delta sequences) heals and catches up to the cluster's state from a
// chain pack — the base the group started from plus every delta since.
func TestChainStateTransferCatchesUpLaggard(t *testing.T) {
	cl, _, _ := durableCluster(t, 1, 2, nil,
		WithCheckpointInterval(4), WithCompactEvery(8), // the first grid point is seq 32
		WithViewChangeTimeout(time.Hour))
	stopped := false
	defer func() {
		if !stopped {
			cl.Stop()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	ts := NewRemoteSpace(cl.Client("c"))
	cl.Net.Partition([]string{"r3"})
	for i := int64(0); i < 20; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("N"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	cl.Net.HealPartitions()
	for i := int64(20); i < 40; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("N"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	r3 := cl.Replicas[3]
	for r3.Executed() < 36 {
		if time.Now().After(deadline) {
			t.Fatalf("r3 never caught up through chain state transfer: executed=%d", r3.Executed())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cl.Stop()
	stopped = true
	// What it installed was a chain, which it can now serve in turn: a
	// base older than its head and the deltas between them.
	if r3.cpBase == nil || r3.cpBaseSeq >= r3.cpSeq || len(r3.cpDeltas) == 0 {
		t.Fatalf("r3 holds no chain: base at %d, head at %d, %d deltas", r3.cpBaseSeq, r3.cpSeq, len(r3.cpDeltas))
	}
	if _, ok := r3.chainPackFor(r3.cpSeq); !ok {
		t.Fatal("r3 cannot serve the chain it installed")
	}
}
