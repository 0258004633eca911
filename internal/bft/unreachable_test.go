package bft

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"peats/internal/auth"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/transport"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// The connection-loss rule (skipUnreachable), on replicas driven by the
// test: no sockets, no clock — the view-change timeout is an hour, so
// every VIEW-CHANGE seen here was started by a Down notice.

var driveIDs = []string{"r0", "r1", "r2", "r3"}

// drivenReplica is one replica of a four-replica group run
// single-threaded, with everything it sends captured.
type drivenReplica struct {
	t      *testing.T
	rep    *Replica
	out    *captureTransport
	events []Event
}

func newDrivenReplica(t *testing.T, id string, svc Service) *drivenReplica {
	t.Helper()
	d := &drivenReplica{t: t, out: &captureTransport{id: id}}
	rep, err := NewReplica(ReplicaConfig{
		ID: id, Replicas: driveIDs, F: 1,
		Transport: d.out, Service: svc,
		ViewChangeTimeout: time.Hour, Logger: testLogger,
		EventSink: func(e Event) { d.events = append(d.events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.StartDriven()
	t.Cleanup(rep.Stop)
	d.rep = rep
	return d
}

func (d *drivenReplica) deliver(from string, msg any) {
	d.t.Helper()
	payload, err := Marshal(msg)
	if err != nil {
		d.t.Fatal(err)
	}
	d.rep.Deliver(transport.Inbound{From: from, Payload: payload})
}

func (d *drivenReplica) down(id string) {
	d.rep.Deliver(transport.Inbound{From: id, Down: true})
}

// request delivers client c's own copy of its request number id.
func (d *drivenReplica) request(id uint64) {
	d.t.Helper()
	d.deliver("c", clientRequest(id))
}

func clientRequest(id uint64) Request {
	op := wire.EncodeSpaceOp(wire.SpaceOp{Op: policy.OpOut, Entry: tuple.T(tuple.Str("U"), tuple.Int(int64(id)))})
	return Request{Client: "c", ReqID: id, Op: op}
}

// viewChanges lists the target views of the view changes the replica
// started, in order, with their causes.
func (d *drivenReplica) viewChanges() []string {
	var out []string
	for _, e := range d.events {
		if e.Type == EventViewChangeStart {
			out = append(out, fmt.Sprintf("%d:%s", e.View, ViewChangeCause(e.N)))
		}
	}
	return out
}

// broadcastViewChanges counts the VIEW-CHANGE messages sent per target
// view: one per peer for every view change started.
func (d *drivenReplica) broadcastViewChanges() map[uint64]int {
	d.t.Helper()
	sent := make(map[uint64]int)
	for _, m := range d.out.sent {
		msg, err := Unmarshal(m.Payload)
		if err != nil {
			d.t.Fatal(err)
		}
		if vc, ok := msg.(ViewChange); ok {
			sent[vc.NewView]++
		}
	}
	return sent
}

func (d *drivenReplica) wantViewChanges(want ...string) {
	d.t.Helper()
	if got := d.viewChanges(); fmt.Sprint(got) != fmt.Sprint(want) {
		d.t.Fatalf("view changes started = %v, want %v", got, want)
	}
	sent := d.broadcastViewChanges()
	if len(sent) != len(want) {
		d.t.Fatalf("VIEW-CHANGE broadcasts = %v, want %d views", sent, len(want))
	}
	for view, n := range sent {
		if n != len(driveIDs)-1 {
			d.t.Fatalf("VIEW-CHANGE for view %d sent %d times, want one per peer", view, n)
		}
	}
}

func TestUnreachablePrimaryNothingPending(t *testing.T) {
	d := newDrivenReplica(t, "r1", NewSpaceService(policy.AllowAll()))
	d.down("r0")
	d.wantViewChanges()
	if v := d.rep.View(); v != 0 {
		t.Fatalf("view = %d, want 0: nobody is waiting on the primary", v)
	}
}

func TestUnreachableBackupIgnored(t *testing.T) {
	d := newDrivenReplica(t, "r1", NewSpaceService(policy.AllowAll()))
	d.down("r2")
	d.request(1)
	d.down("r3")
	d.down("c")  // not a replica
	d.down("r1") // itself
	d.wantViewChanges()
}

func TestUnreachablePrimaryThenRequest(t *testing.T) {
	d := newDrivenReplica(t, "r1", NewSpaceService(policy.AllowAll()))
	d.down("r0")
	d.request(1)
	d.wantViewChanges("1:primary unreachable")
	// Once per view: neither more requests nor a repeated notice start
	// another one while view 1's primary (r1 itself) is awaited.
	d.request(2)
	d.down("r0")
	d.wantViewChanges("1:primary unreachable")
	if got := d.rep.LastViewChange(); got != CauseUnreachable {
		t.Fatalf("LastViewChange = %v, want %v", got, CauseUnreachable)
	}
}

func TestRequestThenUnreachablePrimary(t *testing.T) {
	d := newDrivenReplica(t, "r1", NewSpaceService(policy.AllowAll()))
	d.request(1)
	d.wantViewChanges()
	d.down("r0")
	d.wantViewChanges("1:primary unreachable")
	d.down("r0")
	d.wantViewChanges("1:primary unreachable")
}

func TestMessageFromPrimaryClearsUnreachable(t *testing.T) {
	d := newDrivenReplica(t, "r1", NewSpaceService(policy.AllowAll()))
	d.down("r0")
	// Anything the transport authenticated as r0's shows r0 is there.
	d.deliver("r0", Commit{View: 0, Seq: 1, Replica: "r0"})
	d.request(1)
	d.wantViewChanges()
	// The next loss counts again.
	d.down("r0")
	d.wantViewChanges("1:primary unreachable")
}

// TestUnreachableNextPrimarySkipped: r3 knows r0 and r1 are both gone.
// Waiting for r1's NEW-VIEW would cost the doubled timeout; it moves
// straight on to view 2.
func TestUnreachableNextPrimarySkipped(t *testing.T) {
	d := newDrivenReplica(t, "r3", NewSpaceService(policy.AllowAll()))
	d.down("r1")
	d.down("r0")
	d.wantViewChanges()
	d.request(1)
	d.wantViewChanges("1:primary unreachable", "2:primary unreachable")
	if v := d.rep.View(); v != 2 {
		t.Fatalf("view = %d, want 2", v)
	}
}

// TestUnreachableNewViewPrimaryWhileWaiting: the notice for the next
// primary arrives while its NEW-VIEW is awaited — with nothing pending
// any more than the view change itself.
func TestUnreachableNewViewPrimaryWhileWaiting(t *testing.T) {
	d := newDrivenReplica(t, "r3", NewSpaceService(policy.AllowAll()))
	// f+1 others moved to view 1: r3 joins without a request of its own.
	d.deliver("r1", ViewChange{NewView: 1, Replica: "r1"})
	d.deliver("r2", ViewChange{NewView: 1, Replica: "r2"})
	d.wantViewChanges("1:joined f+1")
	d.down("r1")
	d.wantViewChanges("1:joined f+1", "2:primary unreachable")
}

// TestLoneFalseSuspicion wires four driven replicas together and tells
// only r3 that the primary is gone. r3 leaves view 0 alone; the other
// three never hear f+1 VIEW-CHANGEs, so they keep ordering there.
func TestLoneFalseSuspicion(t *testing.T) {
	group := make(map[string]*drivenReplica)
	for _, id := range driveIDs {
		group[id] = newDrivenReplica(t, id, NewSpaceService(policy.AllowAll()))
	}
	var replies []Reply
	pump := func() {
		for moved := true; moved; {
			moved = false
			for _, id := range driveIDs {
				sent := group[id].out.sent
				group[id].out.sent = nil
				for _, m := range sent {
					moved = true
					if to, ok := group[m.From]; ok { // From holds the addressee
						to.rep.Deliver(transport.Inbound{From: id, Payload: m.Payload})
						continue
					}
					if msg, err := Unmarshal(m.Payload); err == nil {
						if rep, ok := msg.(Reply); ok {
							replies = append(replies, rep)
						}
					}
				}
			}
		}
	}

	group["r3"].down("r0")
	for id := uint64(1); id <= 3; id++ {
		for _, rid := range driveIDs { // the client broadcasts
			group[rid].request(id)
		}
		pump()
	}

	if got := group["r3"].viewChanges(); fmt.Sprint(got) != "[1:primary unreachable]" {
		t.Fatalf("r3 view changes = %v", got)
	}
	for _, id := range []string{"r0", "r1", "r2"} {
		d := group[id]
		if got := d.viewChanges(); len(got) != 0 {
			t.Errorf("%s started view changes %v on r3's word alone", id, got)
		}
		if d.rep.View() != 0 || d.rep.Executed() != 3 {
			t.Errorf("%s: view %d executed %d, want view 0 executed 3", id, d.rep.View(), d.rep.Executed())
		}
	}
	// The client's 2f+1 come from the three that stayed.
	committed := make(map[uint64]map[string]bool)
	for _, rep := range replies {
		if rep.Tentative {
			continue
		}
		if committed[rep.ReqID] == nil {
			committed[rep.ReqID] = make(map[string]bool)
		}
		committed[rep.ReqID][rep.Replica] = true
	}
	for id := uint64(1); id <= 3; id++ {
		if len(committed[id]) != 3 {
			t.Errorf("request %d: committed replies from %v, want r0 r1 r2", id, committed[id])
		}
	}
}

// ---- End to end ----

// causeLog is an event sink recording why view changes started.
type causeLog struct {
	mu     sync.Mutex
	causes []ViewChangeCause
}

func (l *causeLog) sink(e Event) {
	if e.Type == EventViewChangeStart {
		l.mu.Lock()
		l.causes = append(l.causes, ViewChangeCause(e.N))
		l.mu.Unlock()
	}
}

func (l *causeLog) count(c ViewChangeCause) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, got := range l.causes {
		if got == c {
			n++
		}
	}
	return n
}

// TestTCPFailoverOnConnectionLoss stops the primary of a TCP group whose
// view-change timeout is five seconds. Its connections end, every
// survivor and the client are told, and the next Submit completes in a
// small fraction of the timeout.
func TestTCPFailoverOnConnectionLoss(t *testing.T) {
	const timeout = 5 * time.Second
	var causes causeLog
	g := startTCPGroup(t, 1, policy.AllowAll(), []string{"c"}, func(cfg *ReplicaConfig) {
		cfg.ViewChangeTimeout = timeout
		cfg.EventSink = causes.sink
	})
	kr := auth.NewKeyringFromMaster(g.master, "c", g.ids)
	tr, err := transport.NewTCP("c", "127.0.0.1:0", g.addrs, kr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	cli := NewClient(tr, g.ids, 1)
	cli.Keyring = kr // primary-first sends, as peats-client
	ts := NewRemoteSpace(cli)
	ctx, cancel := context.WithTimeout(context.Background(), 4*timeout)
	defer cancel()

	// Load: every replica has seen the client, the primary has ordered.
	for i := 0; i < 20; i++ {
		if _, err := ts.Submit(ctx, peats.OutOp(tuple.T(tuple.Str("BEFORE"), tuple.Int(int64(i))))); err != nil {
			t.Fatal(err)
		}
	}

	g.reps[0].Stop()
	g.reps = g.reps[1:] // the survivors; the cleanup stops these
	_ = g.trs[0].Close()
	start := time.Now()
	if _, err := ts.Submit(ctx, peats.OutOp(tuple.T(tuple.Str("AFTER")))); err != nil {
		t.Fatalf("submit after the primary stopped: %v", err)
	}
	took := time.Since(start)
	t.Logf("failover took %v (view-change timeout %v)", took, timeout)
	if took >= time.Second {
		t.Errorf("connection loss was not acted on")
	}
	for _, r := range g.reps {
		if r.View() == 0 {
			t.Errorf("a survivor is still in view 0")
		}
	}
	if causes.count(CauseUnreachable) == 0 || causes.count(CauseTimer) != 0 {
		t.Errorf("view-change causes = %v, want primary unreachable and no timer", causes.causes)
	}
}

// TestSilentPrimaryFailsOverByTimer is the twin: the primary is cut off
// but no connection ends (the in-process network has none), so nobody
// is told anything and the view-change timeout is what moves the view —
// the path a primary that hangs, or lies, still takes.
func TestSilentPrimaryFailsOverByTimer(t *testing.T) {
	const timeout = 300 * time.Millisecond
	var causes causeLog
	cl := newPEATSCluster(t, 1, policy.AllowAll(),
		WithViewChangeTimeout(timeout), WithEventSink(causes.sink))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts := NewRemoteSpace(cl.Client("c"))
	if err := ts.Out(ctx, tuple.T(tuple.Str("BEFORE"))); err != nil {
		t.Fatal(err)
	}

	cl.Net.Partition([]string{"r0"})
	start := time.Now()
	if err := ts.Out(ctx, tuple.T(tuple.Str("AFTER"))); err != nil {
		t.Fatalf("out after the primary went silent: %v", err)
	}
	if took := time.Since(start); took < timeout {
		t.Errorf("failover took %v, less than the %v view-change timeout: what suspected a silent primary?", took, timeout)
	}
	if causes.count(CauseTimer) == 0 || causes.count(CauseUnreachable) != 0 {
		t.Errorf("view-change causes = %v, want timer and no primary unreachable", causes.causes)
	}
}

// ---- Client ----

// scriptedTransport is a client's transport with the test on the other
// end: sends are recorded, and the inbox is fed by hand.
type scriptedTransport struct {
	mu    sync.Mutex
	sent  map[string]int // addressee → frames
	inbox chan transport.Inbound
}

func newScriptedTransport() *scriptedTransport {
	return &scriptedTransport{sent: make(map[string]int), inbox: make(chan transport.Inbound, 16)}
}

func (s *scriptedTransport) Self() string { return "c" }
func (s *scriptedTransport) Send(to string, p []byte) error {
	return s.SendClass(to, p, transport.ClassProtocol)
}
func (s *scriptedTransport) SendClass(to string, _ []byte, _ transport.Class) error {
	s.mu.Lock()
	s.sent[to]++
	s.mu.Unlock()
	return nil
}
func (s *scriptedTransport) Inbox() <-chan transport.Inbound { return s.inbox }
func (s *scriptedTransport) Close() error                    { return nil }

// waitSends waits until the frames sent to r0..r3 since the last call
// are exactly want, e.g. "1 0 0 0".
func (s *scriptedTransport) waitSends(t *testing.T, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		got := fmt.Sprint(s.sent["r0"], s.sent["r1"], s.sent["r2"], s.sent["r3"])
		if got == want {
			s.sent = make(map[string]int)
		}
		s.mu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("frames sent to r0..r3 = %s, want %s", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// reply feeds replica id's committed reply to request reqID.
func (s *scriptedTransport) reply(t *testing.T, id string, reqID uint64) {
	t.Helper()
	payload, err := Marshal(Reply{Client: "c", ReqID: reqID, Replica: id, Result: []byte("ok")})
	if err != nil {
		t.Fatal(err)
	}
	s.inbox <- transport.Inbound{From: id, Payload: payload}
}

// TestClientRebroadcastsWhenPrimaryUnreachable: the retransmission
// interval is an hour, so every broadcast here answers a Down notice.
func TestClientRebroadcastsWhenPrimaryUnreachable(t *testing.T) {
	tr := newScriptedTransport()
	cli := NewClient(tr, driveIDs, 1)
	cli.Keyring = auth.NewKeyringFromMaster([]byte("m"), "c", driveIDs) // primary-first sends
	cli.RetransmitInterval = time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	invoke := func(script func()) {
		t.Helper()
		done := make(chan error, 1)
		go func() { _, err := cli.Invoke(ctx, []byte("op")); done <- err }()
		script()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// A backup is lost mid-invocation: nothing to do. Then the primary:
	// the outstanding request goes to everyone, now.
	invoke(func() {
		tr.waitSends(t, "1 0 0 0")
		tr.inbox <- transport.Inbound{From: "r2", Down: true}
		tr.reply(t, "r2", 1) // r2 was only unreachable for a moment
		tr.inbox <- transport.Inbound{From: "r0", Down: true}
		tr.waitSends(t, "1 1 1 1")
		for _, id := range []string{"r1", "r2", "r3"} {
			tr.reply(t, id, 1)
		}
	})
	// The presumed primary is still r0 (no reply named a newer view) and
	// still marked: the next request does not wait for a tick either.
	invoke(func() {
		tr.waitSends(t, "1 1 1 1")
		for _, id := range []string{"r0", "r1", "r2"} {
			tr.reply(t, id, 2) // r0 is back, which clears its mark
		}
	})
	invoke(func() {
		tr.waitSends(t, "1 0 0 0")
		for _, id := range []string{"r0", "r1", "r2"} {
			tr.reply(t, id, 3)
		}
	})
}
