package bft

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"peats/internal/consensus"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/tuple"
	"peats/internal/wire"
)

func newPEATSCluster(t *testing.T, f int, pol policy.Policy, opts ...ClusterOption) *Cluster {
	t.Helper()
	n := 3*f + 1
	services := make([]Service, n)
	for i := range services {
		services[i] = NewSpaceService(pol)
	}
	cl, err := NewCluster(f, services, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl
}

func TestClusterBasicOps(t *testing.T) {
	cl := newPEATSCluster(t, 1, policy.AllowAll())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	ts := NewRemoteSpace(cl.Client("alice"))
	if err := ts.Out(ctx, tuple.T(tuple.Str("X"), tuple.Int(1))); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ts.Rdp(ctx, tuple.T(tuple.Str("X"), tuple.Formal("v")))
	if err != nil || !ok {
		t.Fatalf("rdp: %v %v", ok, err)
	}
	if v, _ := got.Field(1).IntValue(); v != 1 {
		t.Errorf("rdp = %v", got)
	}

	// cas through the replicated space.
	ins, _, err := ts.Cas(ctx,
		tuple.T(tuple.Str("D"), tuple.Formal("d")),
		tuple.T(tuple.Str("D"), tuple.Int(7)))
	if err != nil || !ins {
		t.Fatalf("cas: %v %v", ins, err)
	}
	ins, matched, err := ts.Cas(ctx,
		tuple.T(tuple.Str("D"), tuple.Formal("d")),
		tuple.T(tuple.Str("D"), tuple.Int(8)))
	if err != nil || ins {
		t.Fatalf("second cas: %v %v", ins, err)
	}
	if v, _ := matched.Field(1).IntValue(); v != 7 {
		t.Errorf("cas matched %v", matched)
	}

	// inp removes.
	if _, ok, err := ts.Inp(ctx, tuple.T(tuple.Str("X"), tuple.Any())); err != nil || !ok {
		t.Fatalf("inp: %v %v", ok, err)
	}
	if _, ok, _ := ts.Rdp(ctx, tuple.T(tuple.Str("X"), tuple.Any())); ok {
		t.Error("inp did not remove")
	}
}

func TestClusterMultipleClientsLinearizable(t *testing.T) {
	cl := newPEATSCluster(t, 1, policy.AllowAll())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Concurrent cas: exactly one winner, everyone reads the same value.
	const clients = 5
	wins := make(chan int64, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			ts := NewRemoteSpace(cl.Client(fmt.Sprintf("c%d", v)))
			ins, _, err := ts.Cas(ctx,
				tuple.T(tuple.Str("W"), tuple.Formal("x")),
				tuple.T(tuple.Str("W"), tuple.Int(v)))
			if err != nil {
				t.Errorf("c%d: %v", v, err)
				return
			}
			if ins {
				wins <- v
			}
		}(int64(i))
	}
	wg.Wait()
	close(wins)
	var winners []int64
	for v := range wins {
		winners = append(winners, v)
	}
	if len(winners) != 1 {
		t.Fatalf("%d cas winners, want 1", len(winners))
	}
	ts := NewRemoteSpace(cl.Client("reader"))
	got, ok, err := ts.Rdp(ctx, tuple.T(tuple.Str("W"), tuple.Formal("x")))
	if err != nil || !ok {
		t.Fatal(err)
	}
	if v, _ := got.Field(1).IntValue(); v != winners[0] {
		t.Errorf("stored %v, winner %d", got, winners[0])
	}
}

func TestClusterBlockingRd(t *testing.T) {
	cl := newPEATSCluster(t, 1, policy.AllowAll())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	reader := NewRemoteSpace(cl.Client("reader"))
	reader.PollInterval = time.Millisecond
	writer := NewRemoteSpace(cl.Client("writer"))

	done := make(chan error, 1)
	go func() {
		_, err := reader.Rd(ctx, tuple.T(tuple.Str("LATE"), tuple.Any()))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := writer.Out(ctx, tuple.T(tuple.Str("LATE"), tuple.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocking rd: %v", err)
	}
}

func TestClusterPolicyEnforcedAtReplicas(t *testing.T) {
	// The monitor runs inside every replica: a Byzantine *client* is
	// powerless even with full network access.
	procs := []policy.ProcessID{"p0", "p1", "p2", "p3"}
	cl := newPEATSCluster(t, 1, consensus.StrongPolicy(procs, 1, []int64{0, 1}))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	evil := NewRemoteSpace(cl.Client("p3"))
	// Impersonation: the transport identity is p3, so a PROPOSE for p0
	// is rejected by the Rout rule at every correct replica.
	err := evil.Out(ctx, tuple.T(tuple.Str("PROPOSE"), tuple.Str("p0"), tuple.Int(1)))
	if !errors.Is(err, peats.ErrDenied) {
		t.Errorf("impersonated propose err = %v, want denial", err)
	}
	// Unjustified decision.
	_, _, err = evil.Cas(ctx,
		tuple.T(tuple.Str("DECISION"), tuple.Formal("d"), tuple.Any()),
		tuple.T(tuple.Str("DECISION"), tuple.Int(1),
			consensus.PIDSetField([]policy.ProcessID{"p3"})))
	if !errors.Is(err, peats.ErrDenied) {
		t.Errorf("unjustified cas err = %v, want denial", err)
	}
	// Legal operation still works.
	if err := evil.Out(ctx, tuple.T(tuple.Str("PROPOSE"), tuple.Str("p3"), tuple.Int(1))); err != nil {
		t.Errorf("legal propose rejected: %v", err)
	}
}

func TestClusterToleratesSilentReplica(t *testing.T) {
	// f=1, 4 replicas, one never started (crashed from the outset).
	pol := policy.AllowAll()
	services := []Service{
		NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol), nil,
	}
	cl, err := NewCluster(1, services)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	ts := NewRemoteSpace(cl.Client("c"))
	for i := int64(0); i < 5; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("K"), tuple.Int(i))); err != nil {
			t.Fatalf("out %d: %v", i, err)
		}
	}
	if _, ok, err := ts.Rdp(ctx, tuple.T(tuple.Str("K"), tuple.Int(4))); err != nil || !ok {
		t.Fatalf("rdp: %v %v", ok, err)
	}
}

func TestClusterToleratesCorruptReplica(t *testing.T) {
	// One replica lies about every result; client voting (f+1 matching)
	// masks it.
	pol := policy.AllowAll()
	services := []Service{
		NewSpaceService(pol),
		NewCorruptService(NewSpaceService(pol)),
		NewSpaceService(pol),
		NewSpaceService(pol),
	}
	cl, err := NewCluster(1, services)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	ts := NewRemoteSpace(cl.Client("c"))
	for i := int64(0); i < 5; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("K"), tuple.Int(i))); err != nil {
			t.Fatalf("out: %v", err)
		}
	}
	got, ok, err := ts.Rdp(ctx, tuple.T(tuple.Str("K"), tuple.Int(3)))
	if err != nil || !ok {
		t.Fatalf("rdp: %v %v", ok, err)
	}
	if v, _ := got.Field(1).IntValue(); v != 3 {
		t.Errorf("read %v despite voting", got)
	}
}

func TestClusterViewChangeOnSilentPrimary(t *testing.T) {
	// The primary (r0 in view 0) is partitioned away after startup; the
	// remaining replicas must elect a new primary and keep serving.
	cl := newPEATSCluster(t, 1, policy.AllowAll(),
		WithViewChangeTimeout(200*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ts := NewRemoteSpace(cl.Client("c"))
	// Normal operation first.
	if err := ts.Out(ctx, tuple.T(tuple.Str("BEFORE"))); err != nil {
		t.Fatal(err)
	}
	// Cut the primary off (clients included: they reach r1..r3 only).
	cl.Net.Partition([]string{"r0"})

	if err := ts.Out(ctx, tuple.T(tuple.Str("AFTER"))); err != nil {
		t.Fatalf("out after primary failure: %v", err)
	}
	got, ok, err := ts.Rdp(ctx, tuple.T(tuple.Str("AFTER")))
	if err != nil || !ok {
		t.Fatalf("rdp after view change: %v %v %v", got, ok, err)
	}
}

// TestPipelinedWindowSurvivesViewChange flushes three pipelined windows
// (2·maxWindow+8 submissions) and cuts the primary off once it has
// proposed the first: the other two reach the backups only by client
// retransmission and are carried over the view change as pending
// requests. The new primary must re-propose them in request-ID order —
// at-most-once keeps only a client's latest window, so executing the
// third before the second drops the second for good and Flush never
// returns.
func TestPipelinedWindowSurvivesViewChange(t *testing.T) {
	cl := newPEATSCluster(t, 1, policy.AllowAll(),
		WithViewChangeTimeout(200*time.Millisecond),
		WithBatchSize(2*maxWindow), WithBatchDelay(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cli := cl.Client("c")
	cli.RetransmitInterval = 50 * time.Millisecond
	ts := NewRemoteSpace(cli)
	if err := ts.Out(ctx, tuple.T(tuple.Str("WARM"))); err != nil {
		t.Fatal(err)
	}
	// The primary proposes the first window alone (idle pipeline) and
	// holds the other two, which do not fill a batch, until that batch
	// commits. With every hop taking 10ms the commit is three hops away
	// when the proposal leaves, so the cut below lands with both
	// unproposed.
	for _, id := range cl.IDs {
		cl.Net.SetNodeFaults(id, 0, 10*time.Millisecond)
	}

	const depth = 2*maxWindow + 8
	handles := make([]*PendingSubmit, depth)
	for i := range handles {
		handles[i] = ts.SubmitAsync(peats.OutOp(tuple.T(tuple.Str("WIN"), tuple.Int(int64(i)))))
	}
	proposed := cl.Replicas[0].BatchesProposed()
	flushed := make(chan error, 1)
	go func() { flushed <- ts.Flush(ctx) }()
	for cl.Replicas[0].BatchesProposed() == proposed {
		if ctx.Err() != nil {
			t.Fatal("primary never proposed the first window")
		}
		time.Sleep(time.Millisecond)
	}
	cl.Net.Partition([]string{"r0"}) // halt the primary mid-flush
	if got := cl.Replicas[0].BatchesProposed() - proposed; got != 1 {
		t.Fatalf("primary proposed %d batches before the cut, want 1", got)
	}

	if err := <-flushed; err != nil {
		t.Fatalf("flush across the view change: %v", err)
	}
	for i, h := range handles {
		if _, err := h.Results(); err != nil {
			t.Errorf("handle %d: %v", i, err)
		}
	}
	all, err := ts.RdAll(ctx, tuple.T(tuple.Str("WIN"), tuple.Any()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != depth {
		t.Errorf("%d WIN tuples, want %d (lost or double execution)", len(all), depth)
	}
	if v := cl.Replicas[1].View(); v == 0 {
		t.Error("flush completed without a view change")
	}
}

func TestClusterCheckpointStateTransfer(t *testing.T) {
	// A replica partitioned during a burst of operations catches up via
	// state transfer after healing.
	cl := newPEATSCluster(t, 1, policy.AllowAll(),
		WithCheckpointInterval(8),
		WithViewChangeTimeout(time.Hour)) // isolate checkpointing from view changes
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ts := NewRemoteSpace(cl.Client("c"))
	cl.Net.Partition([]string{"r3"}) // r3 misses everything

	for i := int64(0); i < 20; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("N"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	cl.Net.HealPartitions()
	// Trigger more checkpoints so r3 learns a stable quorum and fetches
	// state.
	for i := int64(20); i < 40; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("N"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	r3 := cl.Replicas[3]
	for time.Now().Before(deadline) {
		if r3.Executed() >= 32 { // past several checkpoints
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("r3 never caught up: executed=%d", r3.Executed())
}

func TestClusterDuplicateRequestsExecuteOnce(t *testing.T) {
	// Client retransmissions must not double-execute: out is not
	// idempotent, so the client table is load-bearing.
	cl := newPEATSCluster(t, 1, policy.AllowAll())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	cli := cl.Client("c")
	cli.RetransmitInterval = 5 * time.Millisecond // aggressive resends
	ts := NewRemoteSpace(cli)
	for i := 0; i < 10; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("DUP"))); err != nil {
			t.Fatal(err)
		}
	}
	// Count via a fresh reader: must be exactly 10 DUP tuples.
	reader := NewRemoteSpace(cl.Client("r"))
	count := 0
	for {
		_, ok, err := reader.Inp(ctx, tuple.T(tuple.Str("DUP")))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != 10 {
		t.Errorf("%d DUP tuples, want 10 (duplicate execution)", count)
	}
}

func TestReplicaConfigValidation(t *testing.T) {
	if _, err := NewReplica(ReplicaConfig{ID: "r0", Replicas: []string{"r0", "r1", "r2"}, F: 1}); err == nil {
		t.Error("3 replicas accepted for f=1")
	}
	if _, err := NewReplica(ReplicaConfig{ID: "rX", Replicas: []string{"r0", "r1", "r2", "r3"}, F: 1}); err == nil {
		t.Error("unknown replica id accepted")
	}
	if _, err := NewCluster(1, []Service{nil}); err == nil {
		t.Error("wrong service count accepted")
	}
}

func TestRemoteSpaceDecodesDenialAsErrDenied(t *testing.T) {
	res := wire.SpaceResult{Status: wire.StatusDenied, Detail: "x"}
	if err := resultToError(res); !errors.Is(err, peats.ErrDenied) {
		t.Errorf("err = %v, want ErrDenied", err)
	}
	if err := resultToError(wire.SpaceResult{Status: wire.StatusOK}); err != nil {
		t.Errorf("ok err = %v", err)
	}
	if err := resultToError(wire.SpaceResult{Status: wire.StatusError, Detail: "bad"}); err == nil {
		t.Error("error status should map to error")
	}
}

func TestClusterRdAll(t *testing.T) {
	cl := newPEATSCluster(t, 1, policy.AllowAll())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	ts := NewRemoteSpace(cl.Client("c"))
	for i := int64(0); i < 4; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("BULK"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	all, err := ts.RdAll(ctx, tuple.T(tuple.Str("BULK"), tuple.Any()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("RdAll over cluster = %d tuples, want 4", len(all))
	}
	for i, tu := range all {
		if v, _ := tu.Field(1).IntValue(); v != int64(i) {
			t.Errorf("tuple %d = %v (order broken)", i, tu)
		}
	}
}
