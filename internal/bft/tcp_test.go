package bft

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"peats/internal/auth"
	"peats/internal/consensus"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/transport"
	"peats/internal/tuple"
	"peats/internal/universal"
)

// tcpGroup is a 3f+1 replica group over real TCP loopback with
// HMAC-authenticated frames — the cmd/peats-server deployment,
// in-process.
type tcpGroup struct {
	ids    []string
	addrs  map[string]string
	master []byte
	reps   []*Replica
	trs    []*transport.TCP
}

// startTCPGroup starts the group; tweak, when non-nil, adjusts each
// replica's configuration before it is built.
func startTCPGroup(t *testing.T, f int, pol policy.Policy, clients []string, tweak func(*ReplicaConfig)) *tcpGroup {
	t.Helper()
	n := 3*f + 1
	g := &tcpGroup{ids: make([]string, n), addrs: make(map[string]string), master: []byte("tcp-test-master")}
	for i := range g.ids {
		g.ids[i] = fmt.Sprintf("r%d", i)
	}
	everyone := append(append([]string{}, g.ids...), clients...)

	krs := make(map[string]*auth.Keyring)
	for _, id := range g.ids {
		krs[id] = auth.NewKeyringFromMaster(g.master, id, everyone)
		tr, err := transport.NewTCP(id, "127.0.0.1:0", g.addrs, krs[id])
		if err != nil {
			t.Fatal(err)
		}
		g.trs = append(g.trs, tr)
		g.addrs[id] = tr.Addr()
	}
	for _, tr := range g.trs {
		for id, addr := range g.addrs {
			tr.SetPeerAddr(id, addr)
		}
	}
	for i, id := range g.ids {
		cfg := ReplicaConfig{
			ID: id, Replicas: g.ids, F: f,
			Transport: g.trs[i],
			Service:   NewSpaceService(pol),
			Keyring:   krs[id], // vouch for authenticated requests seen only in a batch
		}
		if tweak != nil {
			tweak(&cfg)
		}
		rep, err := NewReplica(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep.Start()
		g.reps = append(g.reps, rep)
	}
	// A test that stops a replica itself takes it out of g.reps: Stop is
	// not idempotent.
	t.Cleanup(func() {
		for _, r := range g.reps {
			r.Stop()
		}
		for _, tr := range g.trs {
			_ = tr.Close()
		}
	})
	return g
}

func startTCPCluster(t *testing.T, f int, pol policy.Policy, clients []string) ([]string, map[string]string, []byte) {
	t.Helper()
	g := startTCPGroup(t, f, pol, clients, nil)
	return g.ids, g.addrs, g.master
}

func tcpClient(t *testing.T, ids []string, addrs map[string]string, master []byte, id string, f int) *RemoteSpace {
	t.Helper()
	kr := auth.NewKeyringFromMaster(master, id, ids)
	tr, err := transport.NewTCP(id, "127.0.0.1:0", addrs, kr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return NewRemoteSpace(NewClient(tr, ids, f))
}

// TestFreshClientFirstFlush pipelines 32 submissions as the very first
// thing a client does. Holding keys, it sends the flush to the primary
// alone, and a replica can answer a client only over a connection the
// client opened — so every backup's reply is lost, and the client's
// retransmission broadcast has to recover the whole flush from the
// replicas' client tables. They hold the last request's reply, which is
// the whole window.
func TestFreshClientFirstFlush(t *testing.T) {
	ids, addrs, master := startTCPCluster(t, 1, policy.AllowAll(), []string{"fresh"})
	kr := auth.NewKeyringFromMaster(master, "fresh", ids)
	tr, err := transport.NewTCP("fresh", "127.0.0.1:0", addrs, kr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	cli := NewClient(tr, ids, 1)
	cli.Keyring = kr // authenticator vector: first send to the primary alone
	ts := NewRemoteSpace(cli)
	// A few retransmission intervals, with room for a loaded machine.
	ctx, cancel := context.WithTimeout(context.Background(), 50*cli.RetransmitInterval)
	defer cancel()

	const depth = 32
	handles := make([]*PendingSubmit, depth)
	for i := range handles {
		handles[i] = ts.SubmitAsync(peats.OutOp(tuple.T(tuple.Str("FIRST"), tuple.Int(int64(i)))))
	}
	if err := ts.Flush(ctx); err != nil {
		t.Fatalf("first flush of a fresh client: %v", err)
	}
	for i, h := range handles {
		if _, err := h.Results(); err != nil {
			t.Errorf("handle %d: %v", i, err)
		}
	}
	all, err := ts.RdAll(ctx, tuple.T(tuple.Str("FIRST"), tuple.Any()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != depth {
		t.Errorf("%d FIRST tuples, want %d", len(all), depth)
	}
}

func TestReplicatedOverTCP(t *testing.T) {
	procs := []policy.ProcessID{"p0", "p1", "p2", "p3"}
	pol := consensus.StrongPolicy(procs, 1, []int64{0, 1})
	ids, addrs, master := startTCPCluster(t, 1, pol, []string{"p0", "p1", "p2", "p3"})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Policy enforced across TCP: an impersonated proposal is denied by
	// every replica's monitor.
	evil := tcpClient(t, ids, addrs, master, "p3", 1)
	err := evil.Out(ctx, tuple.T(tuple.Str("PROPOSE"), tuple.Str("p0"), tuple.Int(1)))
	if !errors.Is(err, peats.ErrDenied) {
		t.Fatalf("impersonation over TCP err = %v, want denial", err)
	}

	// Strong consensus across TCP clients.
	type result struct {
		v   int64
		err error
	}
	results := make(chan result, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			me := procs[i]
			ts := tcpClient(t, ids, addrs, master, string(me), 1)
			c, err := consensus.NewStrong(ts, consensus.StrongConfig{
				Self: me, Procs: procs, T: 1, Domain: []int64{0, 1},
				PollInterval: 5 * time.Millisecond,
			})
			if err != nil {
				results <- result{err: err}
				return
			}
			v, err := c.Propose(ctx, 1)
			results <- result{v: v, err: err}
		}(i)
	}
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.v != 1 {
			t.Errorf("decided %d, want 1", r.v)
		}
	}
}

func TestUniversalConstructionOverReplicatedSpace(t *testing.T) {
	// The wait-free universal construction (Alg. 4) over the replicated
	// PEATS: a FIFO queue emulated on top of a BFT cluster — the full
	// stack of the paper in one test.
	procs := []policy.ProcessID{"u0", "u1"}
	pol := universal.WaitFreePolicy(procs)
	services := []Service{
		NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol),
	}
	cl, err := NewCluster(1, services)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	mk := func(id policy.ProcessID) *universal.WaitFree {
		ts := NewRemoteSpace(cl.Client(string(id)))
		u, err := universal.NewWaitFree(ts, universal.QueueType{}, id, procs)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	producer, consumer := mk("u0"), mk("u1")
	for i := int64(1); i <= 3; i++ {
		if _, err := producer.Invoke(ctx, universal.Enqueue(i*7)); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	for i := int64(1); i <= 3; i++ {
		r, err := consumer.Invoke(ctx, universal.Dequeue())
		if err != nil {
			t.Fatalf("dequeue: %v", err)
		}
		if v, ok := universal.ReplyValue(r); !ok || v != i*7 {
			t.Errorf("dequeue #%d = %d, want %d", i, v, i*7)
		}
	}
	r, err := consumer.Invoke(ctx, universal.Dequeue())
	if err != nil {
		t.Fatal(err)
	}
	if !universal.ReplyEmpty(r) {
		t.Error("queue should be empty")
	}
}
