package bft

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"peats/internal/durable"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/space"
	"peats/internal/transport"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// TestViewChangeMidTentativeRollsBackAndReexecutes is the acceptance
// pin for tentative execution under view changes: a batch prepared (and
// tentatively executed, with tentative replies observed) at only part
// of the group cannot commit in view 0; the view change must re-propose
// it under the SAME digest, every request must execute exactly once,
// the committed results must match the tentative ones byte for byte,
// and the replicas' published checkpoint digests must agree — proving
// the rolled-back overlays left no trace in checkpointed state.
func TestViewChangeMidTentativeRollsBackAndReexecutes(t *testing.T) {
	ids := []string{"r0", "r1", "r2", "r3"}
	net := transport.NewNetwork(7)
	t.Cleanup(net.Close)

	var reps []*Replica
	for _, id := range ids[1:] {
		rep, err := NewReplica(ReplicaConfig{
			ID: id, Replicas: ids, F: 1,
			Transport:             net.Endpoint(id),
			Service:               NewSpaceService(policy.AllowAll()),
			ViewChangeTimeout:     200 * time.Millisecond,
			CheckpointInterval:    4,
			KeepCheckpointHistory: true,
			Logger:                testLogger,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Start()
		reps = append(reps, rep)
	}
	stopped := false
	stopAll := func() {
		if !stopped {
			stopped = true
			for _, r := range reps {
				r.Stop()
			}
		}
	}
	t.Cleanup(stopAll)

	client := net.Endpoint("c")
	mkReq := func(id uint64, v int64) Request {
		return Request{Client: "c", ReqID: id, Op: wire.EncodeSpaceOp(wire.SpaceOp{
			Op: policy.OpOut, Entry: tuple.T(tuple.Str("TVC"), tuple.Int(v))})}
	}
	req1, req2 := mkReq(1, 1), mkReq(2, 2)
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

	// Propose to r1 and r2 only: with the pre-prepare's implicit primary
	// vote both reach a prepare quorum and execute TENTATIVELY, but the
	// commit quorum of 3 can never form — the batch is stuck prepared
	// (its overlay unpromoted) when the view-change timers fire.
	reqs := []Request{req1, req2}
	batch := Batch{View: 0, Seq: 1, Digest: BatchDigest(reqs), Reqs: reqs}
	fp.send(t, "r1", batch)
	fp.send(t, "r2", batch)

	// Observe the client's inbox directly: tentative replies must arrive
	// before the view change, committed replies after it, and every
	// reply for a request — tentative or committed, either view — must
	// carry identical result bytes.
	tentBeforeNV := 0
	sawNewView := false
	results := make(map[uint64][]byte)
	committed := make(map[string]bool) // "replica/reqID" pairs

	deadline := time.After(30 * time.Second)
	for len(committed) < 2*len(reps) {
		select {
		case <-deadline:
			t.Fatalf("timed out: %d/%d committed replies, %d tentative seen",
				len(committed), 2*len(reps), tentBeforeNV)
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
				}
			}
			if !found {
				t.Error("NEW-VIEW does not re-propose the tentatively executed batch")
			}
			sawNewView = true
		case m, ok := <-client.Inbox():
			if !ok {
				t.Fatal("client transport closed")
			}
			msg, err := Unmarshal(m.Payload)
			if err != nil {
				continue
			}
			rep, ok := msg.(Reply)
			if !ok || rep.Replica != m.From || rep.Client != "c" {
				continue
			}
			if prev, seen := results[rep.ReqID]; seen && !bytes.Equal(prev, rep.Result) {
				t.Fatalf("req %d: reply from %s (tentative=%v) diverges from earlier replies",
					rep.ReqID, rep.Replica, rep.Tentative)
			}
			results[rep.ReqID] = rep.Result
			if rep.Tentative {
				if !sawNewView {
					tentBeforeNV++
				}
				continue
			}
			committed[fmt.Sprintf("%s/%d", rep.Replica, rep.ReqID)] = true
		}
	}
	if tentBeforeNV == 0 {
		t.Fatal("no tentative replies observed before the view change — tentative execution never ran")
	}
	if !sawNewView {
		t.Fatal("batch committed without a view change — the adversary scenario did not hold")
	}

	// Exactly-once: the rolled-back overlays must not have leaked a
	// second execution of either request.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reader := NewRemoteSpace(NewClient(net.Endpoint("reader"), ids, 1))
	all, err := reader.RdAll(ctx, tuple.T(tuple.Str("TVC"), tuple.Any()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("%d TVC tuples, want 2 (lost or double execution): %v", len(all), all)
	}

	// Drive past a checkpoint so every surviving replica publishes a
	// digest over state that includes the re-executed batch.
	for i := int64(0); i < 4; i++ {
		if err := reader.Out(ctx, tuple.T(tuple.Str("PAD"), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	for wait := time.Now().Add(10 * time.Second); ; {
		done := 0
		for _, r := range reps {
			if r.Executed() >= 4 {
				done++
			}
		}
		if done == len(reps) {
			break
		}
		if time.Now().After(wait) {
			t.Fatal("replicas never crossed the checkpoint interval")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopAll()

	digests := make([]map[uint64][32]byte, len(reps))
	for i, r := range reps {
		digests[i] = r.CheckpointDigests()
	}
	compared := 0
	for seq, want := range digests[0] {
		for i := 1; i < len(digests); i++ {
			if got, ok := digests[i][seq]; ok {
				compared++
				if got != want {
					t.Errorf("checkpoint %d: replica %s diverges from r1", seq, ids[1+i])
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no common checkpoint digests to compare")
	}
}

// TestTentativeReplicaKilledBeforePromotionRecoversToCommittedUnit: a
// durable replica killed while holding an unpromoted tentative overlay
// must recover to the last COMMITTED unit — nothing tentative may have
// reached the WAL.
func TestTentativeReplicaKilledBeforePromotionRecoversToCommittedUnit(t *testing.T) {
	ids := []string{"r0", "r1", "r2", "r3"}
	net := transport.NewNetwork(7)
	t.Cleanup(net.Close)

	dir := filepath.Join(t.TempDir(), "r1")
	db, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncAlways, AutoCompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewDurableSpaceService(policy.AllowAll(), db, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(ReplicaConfig{
		ID: "r1", Replicas: ids, F: 1,
		Transport:         net.Endpoint("r1"),
		Service:           svc,
		ViewChangeTimeout: time.Hour,
		Logger:            testLogger,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			rep.Stop()
		}
	}
	t.Cleanup(stop)

	peers := map[string]*transport.Endpoint{}
	for _, id := range []string{"r0", "r2", "r3"} {
		peers[id] = net.Endpoint(id)
	}
	send := func(from string, msg any) {
		payload, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		_ = peers[from].Send("r1", payload)
	}
	client := net.Endpoint("c")
	// Replicas only vouch for batches whose requests they saw first-hand
	// (verifiableReq): deliver the client's own copy before the batch.
	sendReq := func(req Request) {
		payload, err := Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = client.Send("r1", payload)
	}
	awaitReply := func(reqID uint64, tentative bool) {
		t.Helper()
		deadline := time.After(20 * time.Second)
		for {
			select {
			case <-deadline:
				t.Fatalf("no reply for req %d (tentative=%v)", reqID, tentative)
			case m := <-client.Inbox():
				msg, err := Unmarshal(m.Payload)
				if err != nil {
					continue
				}
				if rep, ok := msg.(Reply); ok && rep.ReqID == reqID && rep.Tentative == tentative {
					return
				}
			}
		}
	}
	mkReq := func(id uint64, v int64) Request {
		return Request{Client: "c", ReqID: id, Op: wire.EncodeSpaceOp(wire.SpaceOp{
			Op: policy.OpOut, Entry: tuple.T(tuple.Str("DUR"), tuple.Int(v))})}
	}

	// Unit 1: full three-phase quorum — r1 promotes it into the WAL.
	req1 := mkReq(1, 1)
	sendReq(req1)
	b1 := Batch{View: 0, Seq: 1, Digest: BatchDigest([]Request{req1}), Reqs: []Request{req1}}
	send("r0", b1)
	for _, p := range []string{"r2", "r3"} {
		send(p, Prepare{View: 0, Seq: 1, Digest: b1.Digest, Replica: p})
	}
	for _, p := range []string{"r2", "r3"} {
		send(p, Commit{View: 0, Seq: 1, Digest: b1.Digest, Replica: p})
	}
	awaitReply(1, false)

	// Unit 2: prepares only — r1 executes it tentatively (the tentative
	// reply proves it) but the commit quorum never forms, so the overlay
	// is unpromoted when the crash hits.
	req2 := mkReq(2, 2)
	sendReq(req2)
	b2 := Batch{View: 0, Seq: 2, Digest: BatchDigest([]Request{req2}), Reqs: []Request{req2}}
	send("r0", b2)
	for _, p := range []string{"r2", "r3"} {
		send(p, Prepare{View: 0, Seq: 2, Digest: b2.Digest, Replica: p})
	}
	awaitReply(2, true)

	db.Crash() // SIGKILL stand-in: the disk dies with the overlay unpromoted
	stop()

	db2, err := durable.Open(durable.Options{Dir: dir, AutoCompactBytes: -1})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer db2.Close()
	if got := db2.Recovered().UnitSeq; got != 1 {
		t.Fatalf("recovered to unit %d, want 1 (tentative unit leaked into the WAL)", got)
	}
	svc2, err := NewDurableSpaceService(policy.AllowAll(), db2, 2)
	if err != nil {
		t.Fatal(err)
	}
	raw := svc2.Execute("probe", wire.EncodeSpaceOp(wire.SpaceOp{
		Op: policy.OpRdAll, Template: tuple.T(tuple.Str("DUR"), tuple.Any())}))
	res, err := wire.DecodeSpaceResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("recovered %d DUR tuples, want exactly the committed one: %v", len(res.Tuples), res.Tuples)
	}
	if v, _ := res.Tuples[0].Field(1).IntValue(); v != 1 {
		t.Fatalf("recovered tuple %v, want the committed <DUR,1>", res.Tuples[0])
	}
}

// TestClusterSubmitTentativeParity runs one randomized Submit sequence
// against a tentative-execution cluster and a cluster whose services
// hide the extension (orderedOnlyService: plain Execute at commit, the
// sequential reference), for both in-memory engines at shard counts
// {1, 4, 16}: the clients must observe byte-identical results and the
// clusters must converge on byte-identical space snapshots — staged
// execution is a latency optimization, never an observable semantic
// change.
func TestClusterSubmitTentativeParity(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, e := range space.Engines() {
		for _, shards := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/%d", e, shards), func(t *testing.T) {
				mk := func(tentative bool) (*Cluster, []*SpaceService) {
					services := make([]Service, 4)
					svcs := make([]*SpaceService, 4)
					for i := range services {
						svc, err := NewSpaceServiceWithConfig(policy.AllowAll(), e, shards)
						if err != nil {
							t.Fatal(err)
						}
						svcs[i] = svc
						services[i] = svc
						if !tentative {
							services[i] = orderedOnlyService{svc}
						}
					}
					cl, err := NewCluster(1, services)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(cl.Stop)
					return cl, svcs
				}
				tentCl, tentSvcs := mk(true)
				commCl, commSvcs := mk(false)
				tent := NewRemoteSpace(tentCl.Client("p"))
				comm := NewRemoteSpace(commCl.Client("p"))
				// Force reads through ordering so both clusters see the
				// identical ordered request sequence (the read-only fast
				// path's fallback behaviour is timing-dependent).
				tent.OrderedReads, comm.OrderedReads = true, true

				r := rand.New(rand.NewSource(int64(29 + shards)))
				randOp := func() peats.Op {
					entry := tuple.T(tuple.Str(string(rune('A'+r.Intn(2)))), tuple.Int(int64(r.Intn(3))))
					tmpl := entry
					if r.Intn(2) == 0 {
						tmpl = tuple.T(tuple.Any(), tuple.Int(int64(r.Intn(3))))
					}
					switch r.Intn(5) {
					case 0:
						return peats.OutOp(entry)
					case 1:
						return peats.RdpOp(tmpl)
					case 2:
						return peats.InpOp(tmpl)
					case 3:
						return peats.CasOp(tmpl, entry)
					default:
						return peats.RdAllOp(tmpl)
					}
				}
				for i := 0; i < 20; i++ {
					ops := make([]peats.Op, 1+r.Intn(3))
					for k := range ops {
						ops[k] = randOp()
					}
					resA, errA := tent.Submit(ctx, ops...)
					resB, errB := comm.Submit(ctx, ops...)
					a, b := fmt.Sprint(resA, errA), fmt.Sprint(resB, errB)
					if a != b {
						t.Fatalf("step %d: tentative %q vs committed %q", i, a, b)
					}
				}

				snapshot := func(cl *Cluster, svcs []*SpaceService) []byte {
					t.Helper()
					deadline := time.Now().Add(15 * time.Second)
					for time.Now().Before(deadline) {
						var top uint64
						for _, r := range cl.Replicas {
							if e := r.Executed(); e > top {
								top = e
							}
						}
						var snaps [][]byte
						for i, r := range cl.Replicas {
							if r.Executed() >= top {
								snaps = append(snaps, svcs[i].Snapshot())
							}
						}
						if len(snaps) >= 3 {
							agree := true
							for i := 1; i < len(snaps); i++ {
								agree = agree && bytes.Equal(snaps[0], snaps[i])
							}
							if agree {
								return snaps[0]
							}
						}
						time.Sleep(10 * time.Millisecond)
					}
					t.Fatal("cluster never converged on a snapshot")
					return nil
				}
				if !bytes.Equal(snapshot(tentCl, tentSvcs), snapshot(commCl, commSvcs)) {
					t.Fatal("tentative and committed clusters converged on different spaces")
				}
			})
		}
	}
}

// TestSubmitAsyncFlushSharesAgreementBatch: k independent pipelined
// submissions must cost fewer agreement rounds than k sequential
// Submits (the primary packs the simultaneously-arriving requests into
// shared batches), resolve every handle correctly, and execute each
// submission exactly once.
func TestSubmitAsyncFlushSharesAgreementBatch(t *testing.T) {
	pol := policy.AllowAll()
	cl, err := NewCluster(1, []Service{
		NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol), NewSpaceService(pol),
	}, WithBatchSize(32), WithBatchDelay(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts := NewRemoteSpace(cl.Client("p"))

	const k = 14
	before := cl.Replicas[0].BatchesProposed()
	pends := make([]*PendingSubmit, k)
	for i := range pends {
		pends[i] = ts.SubmitAsync(peats.OutOp(tuple.T(tuple.Str("PIPE"), tuple.Int(int64(i)))))
	}
	// A multi-op unit pipelines like any other submission…
	txp := ts.SubmitAsync(
		peats.OutOp(tuple.T(tuple.Str("PIPE"), tuple.Int(100))),
		peats.OutOp(tuple.T(tuple.Str("PIPE"), tuple.Int(101))),
	)
	// …and a malformed one fails on its own handle without poisoning
	// the flush.
	bad := ts.SubmitAsync()
	if _, err := pends[0].Results(); err == nil {
		t.Error("Results before Flush reported no error")
	}
	if err := ts.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i, p := range pends {
		res, err := p.Results()
		if err != nil || len(res) != 1 {
			t.Fatalf("pipelined submission %d: %v %v", i, res, err)
		}
	}
	if res, err := txp.Results(); err != nil || len(res) != 2 {
		t.Fatalf("pipelined tx: %v %v", res, err)
	}
	if _, err := bad.Results(); err == nil {
		t.Error("empty submission resolved without error")
	}
	rounds := cl.Replicas[0].BatchesProposed() - before
	if rounds >= k {
		t.Errorf("pipelined flush used %d agreement rounds for %d submissions — no batch sharing", rounds, k+1)
	}

	all, err := ts.RdAll(ctx, tuple.T(tuple.Str("PIPE"), tuple.Any()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != k+2 {
		t.Fatalf("%d PIPE tuples, want %d (lost or double execution)", len(all), k+2)
	}

	// An idle flush is a no-op.
	if err := ts.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// captureTransport records what a driven replica sends; nothing is
// delivered anywhere.
type captureTransport struct {
	id   string
	sent []transport.Inbound // From holds the addressee
}

func (c *captureTransport) Self() string { return c.id }
func (c *captureTransport) Send(to string, p []byte) error {
	return c.SendClass(to, p, transport.ClassProtocol)
}
func (c *captureTransport) SendClass(to string, p []byte, _ transport.Class) error {
	c.sent = append(c.sent, transport.Inbound{From: to, Payload: p})
	return nil
}
func (c *captureTransport) Inbox() <-chan transport.Inbound { return nil }
func (c *captureTransport) Close() error                    { return nil }

// drivenBackup is backup r1 of a four-replica group run single-threaded
// (StartDriven): the test plays the primary r0, the peers r2 and r3 and
// every client by delivering their messages itself, so the order in
// which proposal, votes and quorums reach r1 is exact.
type drivenBackup struct{ *drivenReplica }

func newDrivenBackup(t *testing.T, svc Service) *drivenBackup {
	t.Helper()
	return &drivenBackup{newDrivenReplica(t, "r1", svc)}
}

// propose delivers the clients' own copies of the requests (a backup
// vouches only for requests it saw first-hand) and then r0's proposal.
func (d *drivenBackup) propose(seq uint64, reqs ...Request) Batch {
	d.t.Helper()
	for _, req := range reqs {
		d.deliver(req.Client, req)
	}
	b := Batch{View: 0, Seq: seq, Digest: BatchDigest(reqs), Reqs: reqs}
	d.deliver("r0", b)
	return b
}

// prepare completes b's prepare quorum at r1 (r0's proposal and r1's
// own vote count already).
func (d *drivenBackup) prepare(b Batch) {
	d.deliver("r2", Prepare{View: 0, Seq: b.Seq, Digest: b.Digest, Replica: "r2"})
}

// commit delivers a full commit quorum for b from the peers.
func (d *drivenBackup) commit(b Batch) {
	for _, p := range []string{"r0", "r2", "r3"} {
		d.deliver(p, Commit{View: 0, Seq: b.Seq, Digest: b.Digest, Replica: p})
	}
}

// replies drains the replies r1 sent to clients since the last call,
// as "client/reqID/tentative=result" lines in send order.
func (d *drivenBackup) replies() []string {
	d.t.Helper()
	var out []string
	for _, m := range d.out.sent {
		msg, err := Unmarshal(m.Payload)
		if err != nil {
			d.t.Fatal(err)
		}
		if rep, ok := msg.(Reply); ok {
			out = append(out, fmt.Sprintf("%s/%d/%v=%x", rep.Client, rep.ReqID, rep.Tentative, rep.Result))
		}
	}
	d.out.sent = nil
	return out
}

// sequentialReplies is the reference the single execution loop is held
// to: the requests applied one by one — each window operation by
// operation — through plain Execute under the at-most-once rule, with
// its own copy of the window-result framing, rendered like
// drivenBackup.replies renders committed replies.
func sequentialReplies(svc Service, batches ...[]Request) []string {
	type record struct {
		first, last uint64
		reply       []byte
	}
	table := make(map[string]record)
	var out []string
	for _, reqs := range batches {
		for _, req := range reqs {
			ops := append([][]byte{req.Op}, req.Tail...)
			last := req.ReqID + uint64(len(ops)) - 1
			rec, seen := table[req.Client]
			switch {
			case seen && req.ReqID == rec.first && last == rec.last:
				// exact retransmission: the held reply again
			case seen && req.ReqID <= rec.last:
				continue // older than, or overlapping, the latest executed: silence
			default:
				rec = record{first: req.ReqID, last: last}
				if len(ops) == 1 {
					rec.reply = svc.Execute(req.Client, req.Op)
				} else {
					rec.reply = binary.AppendUvarint(nil, uint64(len(ops)))
					for _, op := range ops {
						res := svc.Execute(req.Client, op)
						rec.reply = append(binary.AppendUvarint(rec.reply, uint64(len(res))), res...)
					}
				}
				table[req.Client] = rec
			}
			out = append(out, fmt.Sprintf("%s/%d/false=%x", req.Client, req.ReqID, rec.reply))
		}
	}
	return out
}

func committedOnly(replies []string) []string {
	var out []string
	for _, r := range replies {
		if !strings.Contains(r, "/true=") {
			out = append(out, r)
		}
	}
	return out
}

// TestSingleExecutionLoop drives the corners of the one executor — a
// batch committed before it prepared, a 2PC-filtered batch queued
// behind staged units, a Byzantine primary's batch naming one client
// twice, a batch of multi-operation windows (retransmitted, overlapping,
// partly denied) — through three replicas each: one that prepares every batch
// before it commits (staged at prepared, promoted at commit), one that
// only ever sees commit quorums (executed inside land), and one whose
// service has no extension at all (plain Execute at commit). All three
// must send the committed replies the sequential reference produces,
// and end in the same StateDigest.
func TestSingleExecutionLoop(t *testing.T) {
	out := func(v int64) []byte {
		return wire.EncodeSpaceOp(wire.SpaceOp{Op: policy.OpOut, Entry: tuple.T(tuple.Str("U"), tuple.Int(v))})
	}
	inp := wire.EncodeSpaceOp(wire.SpaceOp{Op: policy.OpInp, Template: tuple.T(tuple.Str("U"), tuple.Any())})
	req := func(client string, id uint64, op []byte, tail ...[]byte) Request {
		return Request{Client: client, ReqID: id, Op: op, Tail: tail}
	}
	// Everything is allowed but writing a DENIED tuple.
	rules := policy.AllowAll().Rules()
	for i := range rules {
		if rules[i].Op == policy.OpOut {
			rules[i].When = policy.Not(policy.EntryField(0, tuple.Str("DENIED")))
		}
	}
	denied := wire.EncodeSpaceOp(wire.SpaceOp{Op: policy.OpOut, Entry: tuple.T(tuple.Str("DENIED"))})
	tp := newTestTopology("g0")
	newSvc := func() *SpaceService {
		svc := NewSpaceService(policy.New(rules...))
		svc.EnablePartition("g0", tp.dir)
		return svc
	}

	cases := []struct {
		name    string
		batches [][]Request
		// wantTentative is how many tentative replies the replica that
		// prepares everything first sends before any commit arrives.
		wantTentative int
	}{
		{
			// ReqID 0 from a client with no record: the two loops this
			// one replaced disagreed on it (one executed, one stayed
			// silent and left an empty record behind).
			name: "commit before prepared",
			batches: [][]Request{
				{req("a", 1, out(1)), req("z", 0, out(2))},
				{req("a", 2, inp)},
			},
			wantTentative: 3,
		},
		{
			// The prepare at seq 3 reserves the tuple seq 1 wrote, so the
			// inp at seq 4 must miss it: seq 3 has to run on committed
			// state after 1 and 2 promote, and 4 only after 3.
			name: "filtered batch behind staged units",
			batches: [][]Request{
				{req("a", 1, out(1))},
				{req("b", 1, out(2)), req("b", 2, inp)},
				{req("p", 1, wire.EncodeTxPrepare(wire.TxPrepare{
					TxID: "p:1:aa", Participants: []string{"g0"},
					Ops: []wire.SpaceOp{{Op: policy.OpInp, Template: tuple.T(tuple.Str("U"), tuple.Any())}},
				}))},
				{req("a", 2, inp)},
			},
			wantTentative: 3,
		},
		{
			// In one batch: a fresh request, its successor, the first again
			// (now stale: silence) and the successor again (replayed).
			name: "batch naming one client twice",
			batches: [][]Request{
				{req("a", 1, out(1)), req("b", 1, out(2)), req("a", 2, inp), req("a", 1, out(1)), req("a", 2, inp)},
			},
			wantTentative: 4,
		},
		{
			// In one batch: a three-operation window, its exact
			// retransmission (all three results replayed), a window
			// overlapping it (stale: silence), and a window whose middle
			// operation the policy denies (the other two still execute).
			name: "windows",
			batches: [][]Request{
				{
					req("a", 1, out(1), out(2), inp),
					req("a", 1, out(1), out(2), inp),
					req("a", 3, out(3), out(4)),
					req("b", 1, out(5), denied, inp),
				},
				{req("a", 4, inp, inp)},
			},
			wantTentative: 4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := sequentialReplies(newSvc(), tc.batches...)

			type variant struct {
				name         string
				svc          Service
				prepareFirst bool
				wantEarly    int // tentative replies sent before any commit quorum
			}
			variants := []variant{
				{"staged at prepared", newSvc(), true, tc.wantTentative},
				{"executed at commit", newSvc(), false, 0},
				{"plain Execute", orderedOnlyService{newSvc()}, true, 0},
			}
			var digests [][32]byte
			for _, v := range variants {
				d := newDrivenBackup(t, v.svc)
				var proposed []Batch
				for i, reqs := range tc.batches {
					b := d.propose(uint64(i+1), reqs...)
					if v.prepareFirst {
						d.prepare(b)
					}
					proposed = append(proposed, b)
				}
				early := d.replies()
				if len(committedOnly(early)) != 0 {
					t.Fatalf("%s: committed replies before any commit quorum: %v", v.name, early)
				}
				if len(early) != v.wantEarly {
					t.Errorf("%s: %d tentative replies before commit, want %d: %v", v.name, len(early), v.wantEarly, early)
				}
				for _, b := range proposed {
					d.commit(b)
				}
				if got := committedOnly(d.replies()); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: committed replies\n got  %v\n want %v", v.name, got, want)
				}
				if got := d.rep.Executed(); got != uint64(len(tc.batches)) {
					t.Errorf("%s: executed %d of %d batches", v.name, got, len(tc.batches))
				}
				digests = append(digests, d.rep.StateDigest())
			}
			for i, v := range variants[1:] {
				if digests[i+1] != digests[0] {
					t.Errorf("StateDigest of %q differs from %q", v.name, variants[0].name)
				}
			}
		})
	}
}
