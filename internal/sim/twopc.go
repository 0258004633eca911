package sim

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"time"

	"log"
	"os"

	"peats/internal/auth"

	"peats/internal/bft"
	"peats/internal/policy"
	"peats/internal/space"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// The "twopc" scenario: two BFT groups on one simulated network, a
// client-coordinator driving cross-group transactions through the
// partition 2PC, a seeded coordinator crash mid-protocol (before any
// decision, or after delivering a decision to only one group), and an
// independent recovery client finishing the job from the groups'
// agreed records. Invariants: both groups decide every transaction the
// same way, a commit is justified by universal YES votes, and tuple
// effects land exactly once or not at all.

// simAttestMaster seeds the deterministic attestation keys of the
// simulated deployment (bft.AttestKeyFor).
var simAttestMaster = []byte("peats-sim-attest-master")

var simDebug = false

// simTx is one scripted cross-group transaction: an optional inp on a
// g0-owned tuple (either a previous transaction's out — present iff
// that one committed — or a ghost tuple that never existed, forcing a
// NO vote), plus one out per group.
type simTx struct {
	id      string
	hasInp  bool
	inp     tuple.Tuple
	inpKey  string
	outs    [2]tuple.Tuple
	outKeys [2]string

	predicted bool // model: must this commit?
	decided   bool
	committed bool
}

// ownedTuple finds a tuple the canonical routing rule assigns to group
// gi, by varying the first field.
func ownedTuple(gi int, tag string, k int) (tuple.Tuple, string) {
	for j := 0; ; j++ {
		key := fmt.Sprintf("%s~%d", tag, j)
		t := tuple.T(tuple.Str(key), tuple.Int(int64(k)))
		if space.RouteEntry(t, 2) == gi {
			return t, key
		}
	}
}

// group is one simulated BFT group of 4 replicas.
type group struct {
	id   string
	ids  []string
	reps []*bft.Replica
	svcs []*bft.SpaceService
}

func (g *group) converged() bool {
	ref := g.reps[0].StateDigest()
	for i, rep := range g.reps {
		if g.svcs[i].TentativeDepth() != 0 {
			return false
		}
		if rep.Executed() != g.reps[0].Executed() || rep.StateDigest() != ref {
			return false
		}
	}
	return true
}

// coordinator is the event-driven 2PC driver: one sim client per
// participant group, advancing a transaction list and injecting the
// scripted crash.
type coordinator struct {
	loop *Loop
	fail func(format string, args ...any)

	gc  [2]*client // coordinator's per-group clients
	rc  [2]*client // recovery client's per-group clients
	txs []*simTx
	k   int

	crashTx   int // transaction at which the coordinator crashes
	crashMode int // 0 = before any decision; 1 = after one group's decision
	crashed   bool

	votes    [2]wire.TxOutcome
	certs    [2]wire.VoteCert
	gotVotes int
	gotDecs  int
	done     bool
}

func (co *coordinator) tx() *simTx { return co.txs[co.k] }

// start launches transaction k's prepares (or finishes the run).
func (co *coordinator) start() {
	if simDebug {
		println("start tx", co.k)
	}
	if co.k >= len(co.txs) {
		co.done = true
		return
	}
	tx := co.tx()
	co.gotVotes = 0
	parts := []string{"g0", "g1"} // already sorted
	for gi := 0; gi < 2; gi++ {
		var ops []wire.SpaceOp
		if gi == 0 && tx.hasInp {
			ops = append(ops, wire.SpaceOp{Op: policy.OpInp, Template: tx.inp})
		}
		ops = append(ops, wire.SpaceOp{Op: policy.OpOut, Entry: tx.outs[gi]})
		payload := wire.EncodeTxPrepare(wire.TxPrepare{TxID: tx.id, Participants: parts, Ops: ops})
		gi := gi
		co.gc[gi].onCert = func(_ uint64, result []byte, cert wire.VoteCert) {
			co.onVote(gi, result, cert)
		}
		co.gc[gi].submitCert(payload)
	}
}

func (co *coordinator) onVote(gi int, result []byte, cert wire.VoteCert) {
	o, ok := decodeOutcome(result)
	if !ok {
		co.fail("tx %s: group g%d returned a malformed prepare outcome", co.tx().id, gi)
		return
	}
	if simDebug {
		println("vote", gi, "state", int(o.State), "tx", co.k)
	}
	co.votes[gi], co.certs[gi] = o, cert
	co.gotVotes++
	if co.gotVotes < 2 {
		return
	}
	allYes := co.votes[0].State == wire.TxVoteYes && co.votes[1].State == wire.TxVoteYes
	dec := wire.TxDecision{TxID: co.tx().id, Commit: allYes}
	for gi := 0; gi < 2; gi++ {
		if allYes || co.votes[gi].State != wire.TxVoteYes {
			dec.Certs = append(dec.Certs, co.certs[gi])
		}
	}
	if co.k == co.crashTx && !co.crashed {
		// The coordinator dies here, leaving the transaction in doubt.
		co.crashed = true
		if co.crashMode == 1 {
			// One group learns the decision before the crash.
			co.deliverTo(co.gc[0], 0, dec, allYes, func(int) {})
		}
		co.loop.After(400*time.Millisecond, co.recover)
		return
	}
	co.decide(co.gc, dec, allYes)
}

// deliverTo sends a decision to one group through the given client and
// verifies the group lands in the decided state.
func (co *coordinator) deliverTo(cl *client, gi int, dec wire.TxDecision, commit bool, then func(gi int)) {
	want := uint8(wire.TxAborted)
	if commit {
		want = wire.TxCommitted
	}
	tx := co.tx()
	cl.onResult = func(_ uint64, result []byte) {
		o, ok := decodeOutcome(result)
		if !ok {
			co.fail("tx %s: group g%d returned a malformed decision outcome", tx.id, gi)
			return
		}
		if o.State != want {
			co.fail("tx %s: group g%d reports state %d after a justified decision, want %d",
				tx.id, gi, o.State, want)
			return
		}
		if simDebug {
			println("decision ok", gi, "tx", co.k)
		}
		then(gi)
	}
	cl.submit(wire.EncodeTxDecision(dec))
}

// decide delivers a decision to both groups through the given clients
// and advances to the next transaction once both confirm.
func (co *coordinator) decide(through [2]*client, dec wire.TxDecision, commit bool) {
	co.gotDecs = 0
	for gi := 0; gi < 2; gi++ {
		co.deliverTo(through[gi], gi, dec, commit, func(int) {
			co.gotDecs++
			if co.gotDecs == 2 {
				tx := co.tx()
				tx.decided, tx.committed = true, commit
				if commit != tx.predicted {
					co.fail("tx %s: outcome %v, but the vote model predicts %v",
						tx.id, commit, tx.predicted)
				}
				co.k++
				co.start()
			}
		})
	}
}

// recover is the independent recovery client (partition.Space.Recover
// semantics): status-probe every participant — pinning the transaction
// aborted where unknown — and deliver the unique justified decision.
func (co *coordinator) recover() {
	if simDebug {
		println("recover tx", co.k)
	}
	tx := co.tx()
	statusOp := wire.EncodeTxStatus(wire.TxStatus{TxID: tx.id})
	got := 0
	var outs [2]wire.TxOutcome
	var certs [2]wire.VoteCert
	for gi := 0; gi < 2; gi++ {
		gi := gi
		co.rc[gi].onCert = func(_ uint64, result []byte, cert wire.VoteCert) {
			o, ok := decodeOutcome(result)
			if !ok {
				co.fail("tx %s: group g%d returned a malformed status outcome", tx.id, gi)
				return
			}
			outs[gi], certs[gi] = o, cert
			got++
			if got < 2 {
				return
			}
			allYes, committed := true, false
			for _, o := range outs {
				switch o.State {
				case wire.TxVoteYes:
				case wire.TxCommitted:
					committed = true
				default:
					allYes = false
				}
			}
			if committed && !allYes {
				// Impossible under the protocol: commit requires universal
				// YES evidence, which forecloses every justified abort.
				co.fail("tx %s: participants disagree on a decided transaction", tx.id)
				return
			}
			dec := wire.TxDecision{TxID: tx.id, Commit: allYes}
			for gj := 0; gj < 2; gj++ {
				if allYes || (outs[gj].State != wire.TxVoteYes && outs[gj].State != wire.TxCommitted) {
					dec.Certs = append(dec.Certs, certs[gj])
				}
			}
			co.decide(co.rc, dec, allYes)
		}
		co.rc[gi].submitCert(statusOp)
	}
}

func runTwoPC(sched Schedule) Result {
	res := Result{Schedule: sched}
	loop := NewLoop()
	rng := rand.New(rand.NewSource(sched.Seed))
	net := NewNet(loop, rng, &sched)
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}

	// Trusted setup: both groups' attestation directory and MAC keyrings.
	dir := make(bft.Directory, 2)
	var groupKrs []map[string]*auth.Keyring
	var groups [2]*group
	for gi := 0; gi < 2; gi++ {
		g := &group{id: fmt.Sprintf("g%d", gi)}
		for i := 0; i < 4; i++ {
			g.ids = append(g.ids, fmt.Sprintf("%sr%d", g.id, i))
		}
		keys := make(map[string]ed25519.PublicKey, 4)
		for _, id := range g.ids {
			keys[id] = bft.AttestKeyFor(simAttestMaster, g.id, id).Public().(ed25519.PublicKey)
		}
		dir[g.id] = bft.GroupKeys{F: 1, Keys: keys}
		groups[gi] = g
	}
	for _, g := range groups {
		krs := makeKeyrings(g.ids)
		groupKrs = append(groupKrs, krs)
		for _, id := range g.ids {
			svc := bft.NewSpaceService(policy.AllowAll())
			svc.EnablePartition(g.id, dir)
			var lg *log.Logger
			if simDebug {
				lg = log.New(os.Stderr, "", 0)
			}
			rep, rerr := bft.NewReplica(bft.ReplicaConfig{
				Logger:                lg,
				ID:                    id,
				Replicas:              g.ids,
				F:                     1,
				Transport:             net.Endpoint(id),
				Service:               svc,
				CheckpointInterval:    4,
				CompactEvery:          compactEvery(sched.Seed),
				KeepCheckpointHistory: true,
				ViewChangeTimeout:     150 * time.Millisecond,
				BatchSize:             4,
				Group:                 g.id,
				AttestKey:             bft.AttestKeyFor(simAttestMaster, g.id, id),
				Keyring:               krs[id],
				Clock:                 loop.Clock(),
			})
			if rerr != nil {
				res.Err = rerr
				return res
			}
			g.svcs = append(g.svcs, svc)
			g.reps = append(g.reps, rep)
			rep.StartDriven()
			net.Register(id, rep.Deliver)
		}
	}

	// Script the transactions against a local effect model, so the
	// outcome of every vote is predictable: an inp on a committed
	// predecessor's tuple votes YES (and consumes it); an inp on a
	// ghost tuple votes NO and aborts the transaction.
	scriptRNG := rand.New(rand.NewSource(sched.Seed ^ 0x2bc0de))
	const numTx = 4
	present := make(map[string]bool)
	txs := make([]*simTx, 0, numTx)
	for k := 0; k < numTx; k++ {
		tx := &simTx{id: fmt.Sprintf("simtx-%d-%d", sched.Seed, k)}
		tx.outs[0], tx.outKeys[0] = ownedTuple(0, fmt.Sprintf("t%d-a", k), k)
		tx.outs[1], tx.outKeys[1] = ownedTuple(1, fmt.Sprintf("t%d-b", k), k)
		if k > 0 && scriptRNG.Intn(2) == 1 {
			tx.hasInp = true
			if scriptRNG.Intn(2) == 0 {
				prev := txs[k-1]
				tx.inp, tx.inpKey = prev.outs[0], prev.outKeys[0]
			} else {
				tx.inp, tx.inpKey = ownedTuple(0, fmt.Sprintf("ghost%d", k), k)
			}
		}
		tx.predicted = !tx.hasInp || present[tx.inpKey]
		if tx.predicted {
			if tx.hasInp {
				present[tx.inpKey] = false
			}
			present[tx.outKeys[0]], present[tx.outKeys[1]] = true, true
		}
		txs = append(txs, tx)
	}

	co := &coordinator{
		loop: loop, fail: fail, txs: txs,
		crashTx:   scriptRNG.Intn(numTx),
		crashMode: scriptRNG.Intn(2),
	}
	for gi := 0; gi < 2; gi++ {
		g := groups[gi]
		co.gc[gi] = newClient("coord-"+g.id, net, loop, g.ids, 1, groupKrs[gi])
		co.gc[gi].group = g.id
		co.gc[gi].attestKeys = dir[g.id].Keys
		co.rc[gi] = newClient("rec-"+g.id, net, loop, g.ids, 1, groupKrs[gi])
		co.rc[gi].group = g.id
		co.rc[gi].attestKeys = dir[g.id].Keys
	}
	loop.After(20*time.Millisecond, co.start)

	loop.RunUntil(epoch.Add(sched.Horizon))
	net.Quiesce()
	net.Heal()

	// Probers keep each group committing fresh operations so lagging
	// replicas see new checkpoints while the run converges.
	var probers [2]*client
	probes := [2]int{}
	for gi := 0; gi < 2; gi++ {
		g := groups[gi]
		probers[gi] = newClient("probe-"+g.id, net, loop, g.ids, 1, groupKrs[gi])
		probers[gi].group = g.id
		probers[gi].onResult = func(uint64, []byte) {}
	}
	deadline := epoch.Add(sched.Horizon + grace)
	for err == nil {
		if co.done && probers[0].idle() && probers[1].idle() &&
			groups[0].converged() && groups[1].converged() {
			break
		}
		if loop.Now().After(deadline) {
			if simDebug {
				for gi, g := range groups {
					for i, rep := range g.reps {
						println("g", gi, "r", i, "view", int(rep.View()), "executed", int(rep.Executed()))
					}
					println("g", gi, "converged", g.converged())
				}
				println("done", co.done, "rc0 idle", co.rc[0].idle(), "rc1 idle", co.rc[1].idle())
			}
			fail("2pc run not done within %v past the horizon (liveness, %d/%d txs decided)",
				grace, co.k, len(txs))
			break
		}
		for gi := 0; gi < 2; gi++ {
			if probers[gi].idle() {
				probes[gi]++
				probers[gi].submit(outOp("probe-"+groups[gi].id, probes[gi]))
			}
		}
		loop.RunUntil(loop.Now().Add(50 * time.Millisecond))
	}

	if err == nil {
		// Effect invariants: replay the decided outcomes; every tuple is
		// present exactly where the replay says it is, in its owning
		// group, exactly once or not at all.
		final := make(map[string]bool)
		for _, tx := range txs {
			if !tx.decided {
				fail("tx %s never decided", tx.id)
			}
			if tx.committed {
				if tx.hasInp {
					final[tx.inpKey] = false
				}
				final[tx.outKeys[0]], final[tx.outKeys[1]] = true, true
			}
		}
		for _, tx := range txs {
			for gi := 0; gi < 2; gi++ {
				want := 0
				if final[tx.outKeys[gi]] {
					want = 1
				}
				if got := groups[gi].svcs[0].Space().CountMatching(tx.outs[gi]); got != want {
					fail("tx %s: tuple %s present %d times in g%d, want %d",
						tx.id, tx.outKeys[gi], got, gi, want)
				}
			}
		}
	}
	if err == nil {
		res.StateDigest = groups[0].reps[0].StateDigest()
		res.Executed = groups[0].reps[0].Executed() + groups[1].reps[0].Executed()
	}
	for _, g := range groups {
		for i, rep := range g.reps {
			rep.Stop()
			g.svcs[i].Close()
		}
	}
	res.Trace = loop.TraceDigest()
	res.Events = loop.Events()
	res.Err = err
	return res
}
