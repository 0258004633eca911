package bft

import (
	"context"
	"io"
	"log"
	"os"
	"testing"
	"time"

	"peats/internal/policy"
	"peats/internal/transport"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// testLogger keeps protocol diagnostics quiet by default; set
// PEATS_BFT_LOG=1 to stream them during debugging.
var testLogger = func() *log.Logger {
	if os.Getenv("PEATS_BFT_LOG") != "" {
		return log.New(os.Stderr, "", log.Lmicroseconds)
	}
	return log.New(io.Discard, "", 0)
}()

// fakePrimary drives replica r0's transport endpoint by hand, playing a
// Byzantine primary at the protocol level (equivocation, garbage,
// selective silence) — attacks a corrupt Service cannot express.
type fakePrimary struct {
	tr    transport.Transport
	stop  chan struct{}
	done  chan struct{}
	react func(fp *fakePrimary, m transport.Inbound)
}

func startFakePrimary(net *transport.Network, id string, react func(fp *fakePrimary, m transport.Inbound)) *fakePrimary {
	fp := &fakePrimary{
		tr:    net.Endpoint(id),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		react: react,
	}
	go func() {
		defer close(fp.done)
		for {
			select {
			case <-fp.stop:
				return
			case m := <-fp.tr.Inbox():
				fp.react(fp, m)
			}
		}
	}()
	return fp
}

func (fp *fakePrimary) halt() {
	close(fp.stop)
	<-fp.done
}

func (fp *fakePrimary) send(t *testing.T, to string, msg any) {
	t.Helper()
	payload, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	_ = fp.tr.Send(to, payload)
}

// startBackups launches replicas r1..r3 (r0's slot is the adversary's).
func startBackups(t *testing.T, net *transport.Network, ids []string, vcTimeout time.Duration) []*Replica {
	t.Helper()
	var reps []*Replica
	for _, id := range ids[1:] {
		rep, err := NewReplica(ReplicaConfig{
			ID: id, Replicas: ids, F: 1,
			Transport:         net.Endpoint(id),
			Service:           NewSpaceService(policy.AllowAll()),
			ViewChangeTimeout: vcTimeout,
			Logger:            testLogger,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Start()
		reps = append(reps, rep)
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})
	return reps
}

func TestEquivocatingPrimaryTriggersViewChange(t *testing.T) {
	// The fake primary answers every client request by sending
	// CONFLICTING proposals for the same sequence number: the real
	// request to r1, a forged one to r2 and r3. No prepare quorum can
	// form on either digest... unless the forged branch wins among
	// r2/r3 — but the forged "request" fails the digest check. Either
	// way the request cannot commit in view 0, the backups' timers fire,
	// and the system recovers in view 1.
	ids := []string{"r0", "r1", "r2", "r3"}
	net := transport.NewNetwork(7)
	t.Cleanup(net.Close)
	startBackups(t, net, ids, 150*time.Millisecond)

	fp := startFakePrimary(net, "r0", func(fp *fakePrimary, m transport.Inbound) {
		msg, err := Unmarshal(m.Payload)
		if err != nil {
			return
		}
		req, ok := msg.(Request)
		if !ok {
			return // ignore votes; stay silent in the view change
		}
		honest := Batch{View: 0, Seq: 1, Digest: req.Digest(), Reqs: []Request{req}}
		forged := req
		forged.Op = append([]byte{0xff}, forged.Op...)
		lie := Batch{View: 0, Seq: 1, Digest: forged.Digest(), Reqs: []Request{forged}}
		fp.send(t, "r1", honest)
		fp.send(t, "r2", lie)
		fp.send(t, "r3", lie)
	})
	defer fp.halt()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts := NewRemoteSpace(NewClient(net.Endpoint("c"), ids, 1))
	if err := ts.Out(ctx, tuple.T(tuple.Str("SURVIVED"))); err != nil {
		t.Fatalf("request never committed despite view change: %v", err)
	}
	if _, ok, err := ts.Rdp(ctx, tuple.T(tuple.Str("SURVIVED"))); err != nil || !ok {
		t.Fatalf("state lost: %v %v", ok, err)
	}
}

func TestDirectEquivocationDetected(t *testing.T) {
	// Sending two different proposals for the same (view, seq) to the
	// SAME backup trips the explicit equivocation check: the backup
	// starts a view change on its own, without waiting for a timer.
	ids := []string{"r0", "r1", "r2", "r3"}
	net := transport.NewNetwork(7)
	t.Cleanup(net.Close)
	reps := startBackups(t, net, ids, time.Hour) // timers out of the picture

	fp := startFakePrimary(net, "r0", func(*fakePrimary, transport.Inbound) {})
	defer fp.halt()

	reqA := Request{Client: "c", ReqID: 1, Op: []byte{1}}
	reqB := Request{Client: "c", ReqID: 1, Op: []byte{2}}
	fp.send(t, "r1", Batch{View: 0, Seq: 1, Digest: reqA.Digest(), Reqs: []Request{reqA}})
	fp.send(t, "r1", Batch{View: 0, Seq: 1, Digest: reqB.Digest(), Reqs: []Request{reqB}})

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if reps[0].View() >= 1 { // reps[0] is r1
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("r1 never left view 0 after observing equivocation (view=%d)", reps[0].View())
}

func TestGarbageFloodIgnored(t *testing.T) {
	// A Byzantine replica floods peers with malformed frames and forged
	// votes; the group keeps serving.
	ids := []string{"r0", "r1", "r2", "r3"}
	net := transport.NewNetwork(7)
	t.Cleanup(net.Close)

	// r0..r2 honest; r3 is the flooder this time, so the honest primary
	// keeps working.
	var reps []*Replica
	for _, id := range ids[:3] {
		rep, err := NewReplica(ReplicaConfig{
			ID: id, Replicas: ids, F: 1,
			Transport: net.Endpoint(id),
			Service:   NewSpaceService(policy.AllowAll()),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Start()
		reps = append(reps, rep)
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})

	flooder := net.Endpoint("r3")
	stop := make(chan struct{})
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		forged, _ := Marshal(Prepare{View: 0, Seq: 1, Digest: [32]byte{1}, Replica: "r1"}) // claims r1!
		junk := []byte{0xde, 0xad, 0xbe, 0xef}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = flooder.Send(ids[i%3], junk)
			_ = flooder.Send(ids[i%3], forged)
			if i%100 == 99 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-floodDone })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts := NewRemoteSpace(NewClient(net.Endpoint("c"), ids, 1))
	for i := int64(0); i < 10; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("F"), tuple.Int(i))); err != nil {
			t.Fatalf("out %d under flood: %v", i, err)
		}
	}
}

func TestLossyNetworkStillCommits(t *testing.T) {
	// 15% uniform loss on every link: retransmissions and quorum slack
	// must still drive requests through.
	pol := policy.AllowAll()
	cl, err := NewCluster(1, []Service{
		NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol),
	}, WithSeed(99), WithViewChangeTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	for _, a := range append([]string{"c"}, cl.IDs...) {
		for _, b := range append([]string{"c"}, cl.IDs...) {
			if a != b {
				cl.Net.SetLink(a, b, 0.15, 0)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cli := cl.Client("c")
	cli.RetransmitInterval = 30 * time.Millisecond
	ts := NewRemoteSpace(cli)
	for i := int64(0); i < 8; i++ {
		if err := ts.Out(ctx, tuple.T(tuple.Str("LOSSY"), tuple.Int(i))); err != nil {
			t.Fatalf("out %d: %v", i, err)
		}
	}
	got, ok, err := ts.Rdp(ctx, tuple.T(tuple.Str("LOSSY"), tuple.Int(7)))
	if err != nil || !ok {
		t.Fatalf("rdp: %v %v %v", got, ok, err)
	}
}

// TestByzantinePrimaryEquivocatesOnBatchContents: the fake primary
// proposes the SAME two client requests under the same sequence number
// but in different orders to different backups — the batch digests
// differ, no quorum can form on either, and the group must recover via
// view change with both requests executing exactly once.
func TestByzantinePrimaryEquivocatesOnBatchContents(t *testing.T) {
	ids := []string{"r0", "r1", "r2", "r3"}
	net := transport.NewNetwork(7)
	t.Cleanup(net.Close)
	startBackups(t, net, ids, 200*time.Millisecond)

	// Two well-formed clients (one outstanding request each): the
	// adversarial reordering below must not trip per-client
	// at-most-once suppression.
	c1, c2 := net.Endpoint("c1"), net.Endpoint("c2")
	req1 := Request{Client: "c1", ReqID: 1, Op: wire.EncodeSpaceOp(wire.SpaceOp{
		Op: policy.OpOut, Entry: tuple.T(tuple.Str("EQ"), tuple.Int(1))})}
	req2 := Request{Client: "c2", ReqID: 1, Op: wire.EncodeSpaceOp(wire.SpaceOp{
		Op: policy.OpOut, Entry: tuple.T(tuple.Str("EQ"), tuple.Int(2))})}
	send := func(from *transport.Endpoint, msg any, to ...string) {
		payload, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range to {
			_ = from.Send(id, payload)
		}
	}
	// The clients broadcast their requests (no keyring on this path),
	// so every backup holds first-hand copies and can vouch.
	send(c1, req1, "r1", "r2", "r3")
	send(c2, req2, "r1", "r2", "r3")

	fp := startFakePrimary(net, "r0", func(fp *fakePrimary, m transport.Inbound) {
		msg, err := Unmarshal(m.Payload)
		if err != nil {
			return
		}
		if _, ok := msg.(Request); !ok {
			return // silent in the view change
		}
		ab := []Request{req1, req2}
		ba := []Request{req2, req1}
		fp.send(t, "r1", Batch{View: 0, Seq: 1, Digest: BatchDigest(ab), Reqs: ab})
		fp.send(t, "r2", Batch{View: 0, Seq: 1, Digest: BatchDigest(ba), Reqs: ba})
		fp.send(t, "r3", Batch{View: 0, Seq: 1, Digest: BatchDigest(ba), Reqs: ba})
	})
	defer fp.halt()
	// Trigger the equivocation (requests reach r0 too).
	send(c1, req1, "r0")
	send(c2, req2, "r0")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reader := NewRemoteSpace(NewClient(net.Endpoint("reader"), ids, 1))
	// Both requests must eventually commit (under the new view) …
	for _, want := range []int64{1, 2} {
		if _, err := reader.Rd(ctx, tuple.T(tuple.Str("EQ"), tuple.Int(want))); err != nil {
			t.Fatalf("request %d never executed after batch equivocation: %v", want, err)
		}
	}
	// … and exactly once each.
	all, err := reader.RdAll(ctx, tuple.T(tuple.Str("EQ"), tuple.Any()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("%d EQ tuples, want 2 (lost or double execution): %v", len(all), all)
	}
}

// TestByzantinePrimaryEquivocatesOnTxContents extends the
// batch-content-equivocation adversary to transaction payloads: the
// requests the primary reorders are atomic multi-op SpaceTx units. The
// group must survive via view change with each transaction executing
// atomically, exactly once — neither fork's ordering may leak partial
// transaction effects.
func TestByzantinePrimaryEquivocatesOnTxContents(t *testing.T) {
	ids := []string{"r0", "r1", "r2", "r3"}
	net := transport.NewNetwork(7)
	t.Cleanup(net.Close)
	startBackups(t, net, ids, 200*time.Millisecond)

	txPayload := func(tag string, vals ...int64) []byte {
		ops := make([]wire.SpaceOp, len(vals))
		for i, v := range vals {
			ops[i] = wire.SpaceOp{Op: policy.OpOut,
				Entry: tuple.T(tuple.Str(tag), tuple.Int(v))}
		}
		return wire.EncodeSpaceTx(wire.SpaceTx{Ops: ops})
	}
	c1, c2 := net.Endpoint("t1"), net.Endpoint("t2")
	req1 := Request{Client: "t1", ReqID: 1, Op: txPayload("TX1", 1, 2)}
	req2 := Request{Client: "t2", ReqID: 1, Op: txPayload("TX2", 3, 4)}
	send := func(from *transport.Endpoint, msg any, to ...string) {
		payload, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range to {
			_ = from.Send(id, payload)
		}
	}
	send(c1, req1, "r1", "r2", "r3")
	send(c2, req2, "r1", "r2", "r3")

	fp := startFakePrimary(net, "r0", func(fp *fakePrimary, m transport.Inbound) {
		msg, err := Unmarshal(m.Payload)
		if err != nil {
			return
		}
		if _, ok := msg.(Request); !ok {
			return // silent in the view change
		}
		ab := []Request{req1, req2}
		ba := []Request{req2, req1}
		fp.send(t, "r1", Batch{View: 0, Seq: 1, Digest: BatchDigest(ab), Reqs: ab})
		fp.send(t, "r2", Batch{View: 0, Seq: 1, Digest: BatchDigest(ba), Reqs: ba})
		fp.send(t, "r3", Batch{View: 0, Seq: 1, Digest: BatchDigest(ba), Reqs: ba})
	})
	defer fp.halt()
	send(c1, req1, "r0")
	send(c2, req2, "r0")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reader := NewRemoteSpace(NewClient(net.Endpoint("reader"), ids, 1))
	// Both transactions must commit whole (under the new view) …
	for _, want := range []struct {
		tag string
		v   int64
	}{{"TX1", 1}, {"TX1", 2}, {"TX2", 3}, {"TX2", 4}} {
		if _, err := reader.Rd(ctx, tuple.T(tuple.Str(want.tag), tuple.Int(want.v))); err != nil {
			t.Fatalf("tx tuple <%s,%d> never appeared after equivocation: %v", want.tag, want.v, err)
		}
	}
	// … and each exactly once: 4 tuples total, no partial or double
	// transaction execution.
	for _, tag := range []string{"TX1", "TX2"} {
		all, err := reader.RdAll(ctx, tuple.T(tuple.Str(tag), tuple.Any()))
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 2 {
			t.Errorf("%s: %d tuples, want 2 (partial or double tx execution): %v", tag, len(all), all)
		}
	}
}

// TestViewChangeMidBatchPreservesDigest: a batch prepared in view 0 at
// only part of the group (so it cannot commit) must be re-proposed in
// view 1 under the SAME digest, and every request in it must execute
// exactly once.
func TestViewChangeMidBatchPreservesDigest(t *testing.T) {
	ids := []string{"r0", "r1", "r2", "r3"}
	net := transport.NewNetwork(7)
	t.Cleanup(net.Close)
	startBackups(t, net, ids, 200*time.Millisecond)

	client := net.Endpoint("c")
	req1 := Request{Client: "c", ReqID: 1, Op: wire.EncodeSpaceOp(wire.SpaceOp{
		Op: policy.OpOut, Entry: tuple.T(tuple.Str("VC"), tuple.Int(1))})}
	req2 := Request{Client: "c", ReqID: 2, Op: wire.EncodeSpaceOp(wire.SpaceOp{
		Op: policy.OpOut, Entry: tuple.T(tuple.Str("VC"), tuple.Int(2))})}
	for _, req := range []Request{req1, req2} {
		payload, err := Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids[1:] {
			_ = client.Send(id, payload)
		}
	}

	newViews := make(chan NewView, 4)
	fp := startFakePrimary(net, "r0", func(fp *fakePrimary, m transport.Inbound) {
		msg, err := Unmarshal(m.Payload)
		if err != nil {
			return
		}
		if nv, ok := msg.(NewView); ok {
			newViews <- nv
		}
	})
	defer fp.halt()

	// Propose the batch to r1 and r2 only: both reach a prepare quorum
	// (the pre-prepare carries the primary's implicit vote) but the
	// commit quorum of 3 cannot form — the batch is stuck prepared when
	// the view-change timers fire.
	reqs := []Request{req1, req2}
	batch := Batch{View: 0, Seq: 1, Digest: BatchDigest(reqs), Reqs: reqs}
	fp.send(t, "r1", batch)
	fp.send(t, "r2", batch)

	// The NEW-VIEW from the view-1 primary (r1) must re-propose the
	// prepared batch under its original digest.
	select {
	case nv := <-newViews:
		if nv.View != 1 {
			t.Fatalf("NEW-VIEW for view %d, want 1", nv.View)
		}
		found := false
		for _, b := range nv.Batches {
			if b.Seq == 1 {
				found = true
				if b.Digest != batch.Digest {
					t.Errorf("batch re-proposed under digest %x, want %x", b.Digest[:4], batch.Digest[:4])
				}
				if len(b.Reqs) != 2 {
					t.Errorf("re-proposed batch has %d requests, want 2", len(b.Reqs))
				}
			}
		}
		if !found {
			t.Error("NEW-VIEW does not re-propose the prepared batch")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("no NEW-VIEW observed")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reader := NewRemoteSpace(NewClient(net.Endpoint("reader"), ids, 1))
	for _, want := range []int64{1, 2} {
		if _, err := reader.Rd(ctx, tuple.T(tuple.Str("VC"), tuple.Int(want))); err != nil {
			t.Fatalf("request %d lost across the view change: %v", want, err)
		}
	}
	all, err := reader.RdAll(ctx, tuple.T(tuple.Str("VC"), tuple.Any()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("%d VC tuples, want 2 (lost or double execution): %v", len(all), all)
	}
}

func TestByzantineClientCannotImpersonateViaProtocol(t *testing.T) {
	// A Byzantine CLIENT submits a request claiming another client's
	// identity; replicas verify the transport-authenticated sender and
	// drop it, so the victim's at-most-once state is untouched.
	pol := policy.New(policy.Rule{Name: "Rout", Op: policy.OpOut, When: policy.EntryFieldIsInvoker(0)})
	cl, err := NewCluster(1, []Service{
		NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Forge a request with Client = "victim" sent from "mallory".
	mallory := cl.Net.Endpoint("mallory")
	op := wire.EncodeSpaceOp(wire.SpaceOp{Op: policy.OpOut,
		Entry: tuple.T(tuple.Str("victim"), tuple.Int(666))})
	forged, err := Marshal(Request{Client: "victim", ReqID: 1, Op: op})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range cl.IDs {
		_ = mallory.Send(id, forged)
	}
	time.Sleep(200 * time.Millisecond)

	// The victim's own first request must execute as ReqID 1 — proving
	// the forged one never reached its client record — and the forged
	// tuple must not exist.
	ts := NewRemoteSpace(cl.Client("victim"))
	if err := ts.Out(ctx, tuple.T(tuple.Str("victim"), tuple.Int(1))); err != nil {
		t.Fatalf("victim blocked: %v", err)
	}
	if _, ok, _ := ts.Rdp(ctx, tuple.T(tuple.Str("victim"), tuple.Int(666))); ok {
		t.Error("forged operation executed")
	}
}
