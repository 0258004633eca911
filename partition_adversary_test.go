package peats

import (
	"fmt"
	"testing"

	"peats/internal/bft"
	"peats/internal/policy"
	"peats/internal/wire"
)

// partitionKeys returns one key owning an arity-2 tuple in group 0 and
// one owning an arity-2 tuple in group 1 of a two-group topology (the
// routing rule hashes arity and first field, so the probe must use the
// arity the tests use).
func partitionKeys(t *testing.T, pc *PartitionedCluster) (keyA, keyB string) {
	t.Helper()
	for i := 0; i < 64 && (keyA == "" || keyB == ""); i++ {
		k := fmt.Sprintf("k%d", i)
		switch pc.Topology.RouteEntry(T(Str(k), Int(0))) {
		case 0:
			if keyA == "" {
				keyA = k
			}
		case 1:
			if keyB == "" {
				keyB = k
			}
		}
	}
	if keyA == "" || keyB == "" {
		t.Fatal("could not find keys for both groups")
	}
	return keyA, keyB
}

// prepareAt runs the prepare round of a cross-partition transaction at
// one group by hand and returns the group's BFT-agreed vote with its
// certificate.
func prepareAt(t *testing.T, c *bft.Client, prep wire.TxPrepare) (wire.TxOutcome, wire.VoteCert) {
	t.Helper()
	ctx := partitionCtx(t)
	raw, cert, err := c.InvokeCert(ctx, wire.EncodeTxPrepare(prep))
	if err != nil {
		t.Fatalf("prepare at %s: %v", c.Group, err)
	}
	o, err := wire.DecodeTxOutcome(raw)
	if err != nil {
		t.Fatalf("prepare outcome at %s: %v", c.Group, err)
	}
	return o, cert
}

// deliver sends a decision to one group and returns the group's agreed
// answer — the recorded transaction state after the delivery attempt.
func deliver(t *testing.T, c *bft.Client, dec wire.TxDecision) wire.TxOutcome {
	t.Helper()
	raw, err := c.Invoke(partitionCtx(t), wire.EncodeTxDecision(dec))
	if err != nil {
		t.Fatalf("decision at %s: %v", c.Group, err)
	}
	o, err := wire.DecodeTxOutcome(raw)
	if err != nil {
		t.Fatalf("decision outcome at %s: %v", c.Group, err)
	}
	return o
}

// statusAt queries one group's agreed record of a transaction.
func statusAt(t *testing.T, c *bft.Client, txID string) wire.TxOutcome {
	t.Helper()
	raw, _, err := c.InvokeCert(partitionCtx(t), wire.EncodeTxStatus(wire.TxStatus{TxID: txID}))
	if err != nil {
		t.Fatalf("status at %s: %v", c.Group, err)
	}
	o, err := wire.DecodeTxOutcome(raw)
	if err != nil {
		t.Fatalf("status outcome at %s: %v", c.Group, err)
	}
	return o
}

// TestByzantineCoordinatorCannotDivergeOutcomes drives the
// cross-partition protocol with a Byzantine coordinator that tries to
// commit a transaction at one group and abort the same transaction at
// the other. Both groups voted YES, so every abort attempt lacks the
// required justification — a certificate of some participant's NO vote
// — and must bounce off the group's BFT-agreed validation, whatever
// forgery it carries. Recovery then converges both groups on commit.
// Groups run at f=1, so the certificates are real 3-signature quorums.
func TestByzantineCoordinatorCannotDivergeOutcomes(t *testing.T) {
	pc, err := NewPartitionedCluster([]int{1, 1}, AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Stop()
	keyA, keyB := partitionKeys(t, pc)
	c0 := pc.Groups[0].Client("mallory")
	c1 := pc.Groups[1].Client("mallory")

	const txID = "mallory:1"
	parts := []string{"g0", "g1"}
	o0, cert0 := prepareAt(t, c0, wire.TxPrepare{
		TxID: txID, Participants: parts,
		Ops: []wire.SpaceOp{{Op: policy.OpOut, Entry: T(Str(keyA), Int(1))}},
	})
	o1, cert1 := prepareAt(t, c1, wire.TxPrepare{
		TxID: txID, Participants: parts,
		Ops: []wire.SpaceOp{{Op: policy.OpOut, Entry: T(Str(keyB), Int(2))}},
	})
	if o0.State != wire.TxVoteYes || o1.State != wire.TxVoteYes {
		t.Fatalf("votes %d/%d, want YES/YES", o0.State, o1.State)
	}

	// Equivocation: a justified COMMIT at group 0...
	if o := deliver(t, c0, wire.TxDecision{TxID: txID, Commit: true,
		Certs: []wire.VoteCert{cert0, cert1}}); o.State != wire.TxCommitted {
		t.Fatalf("justified commit rejected at g0: state %d", o.State)
	}

	// ...and every abort forgery the coordinator can assemble at group 1.
	forged := cert1
	forged.Outcome = wire.EncodeTxOutcome(wire.TxOutcome{TxID: txID, State: wire.TxVoteNo})
	abortAttempts := []wire.TxDecision{
		{TxID: txID}, // no evidence at all
		{TxID: txID, Certs: []wire.VoteCert{cert0, cert1}}, // YES votes justify no abort
		{TxID: txID, Certs: []wire.VoteCert{forged}},       // NO outcome under YES signatures
	}
	for i, dec := range abortAttempts {
		if o := deliver(t, c1, dec); o.State != wire.TxVoteYes {
			t.Fatalf("abort forgery %d moved g1 to state %d", i, o.State)
		}
	}
	// A commit with incomplete evidence must bounce too: the missing
	// participant could have voted NO.
	if o := deliver(t, c1, wire.TxDecision{TxID: txID, Commit: true,
		Certs: []wire.VoteCert{cert1}}); o.State != wire.TxVoteYes {
		t.Fatalf("under-justified commit moved g1 to state %d", o.State)
	}

	// Any party can now finish the transaction; the unique justified
	// decision is commit.
	part, err := pc.Space("recoverer")
	if err != nil {
		t.Fatal(err)
	}
	committed, err := part.Recover(partitionCtx(t), txID, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("recovery aborted a transaction already committed at g0")
	}
	if s0, s1 := statusAt(t, c0, txID), statusAt(t, c1, txID); s0.State != wire.TxCommitted ||
		s1.State != wire.TxCommitted {
		t.Fatalf("final states %d/%d diverge from committed", s0.State, s1.State)
	}
	// Both halves of the transaction are visible.
	ctx := partitionCtx(t)
	if _, ok, err := part.Rdp(ctx, T(Str(keyA), Int(1))); err != nil || !ok {
		t.Fatalf("g0 half missing: %v %v", ok, err)
	}
	if _, ok, err := part.Rdp(ctx, T(Str(keyB), Int(2))); err != nil || !ok {
		t.Fatalf("g1 half missing: %v %v", ok, err)
	}
}

// TestByzantineCoordinatorCannotCommitVetoedTx is the dual: one group
// votes NO, so no forgery lets the coordinator commit anywhere, and
// recovery converges both groups on abort with no residue.
func TestByzantineCoordinatorCannotCommitVetoedTx(t *testing.T) {
	pc, err := NewPartitionedCluster([]int{1, 1}, AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Stop()
	keyA, keyB := partitionKeys(t, pc)
	c0 := pc.Groups[0].Client("mallory")
	c1 := pc.Groups[1].Client("mallory")

	const txID = "mallory:2"
	parts := []string{"g0", "g1"}
	o0, cert0 := prepareAt(t, c0, wire.TxPrepare{
		TxID: txID, Participants: parts,
		Ops: []wire.SpaceOp{{Op: policy.OpOut, Entry: T(Str(keyA), Str("doomed"))}},
	})
	// Group 1 votes NO: its slice needs a tuple that does not exist.
	o1, cert1 := prepareAt(t, c1, wire.TxPrepare{
		TxID: txID, Participants: parts,
		Ops: []wire.SpaceOp{{Op: policy.OpInp, Template: T(Str(keyB), Str("absent-tuple"))}},
	})
	if o0.State != wire.TxVoteYes || o1.State != wire.TxVoteNo {
		t.Fatalf("votes %d/%d, want YES/NO", o0.State, o1.State)
	}

	forged := cert1
	forged.Outcome = wire.EncodeTxOutcome(wire.TxOutcome{TxID: txID, State: wire.TxVoteYes})
	commitAttempts := []wire.TxDecision{
		{TxID: txID, Commit: true, Certs: []wire.VoteCert{cert0}},         // g1's vote omitted
		{TxID: txID, Commit: true, Certs: []wire.VoteCert{cert0, cert1}},  // carries the NO vote
		{TxID: txID, Commit: true, Certs: []wire.VoteCert{cert0, forged}}, // forged YES for g1
	}
	for i, dec := range commitAttempts {
		if o := deliver(t, c0, dec); o.State != wire.TxVoteYes {
			t.Fatalf("commit forgery %d moved g0 to state %d", i, o.State)
		}
	}

	part, err := pc.Space("recoverer")
	if err != nil {
		t.Fatal(err)
	}
	committed, err := part.Recover(partitionCtx(t), txID, parts)
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("recovery committed a vetoed transaction")
	}
	if s0, s1 := statusAt(t, c0, txID), statusAt(t, c1, txID); s0.State != wire.TxAborted ||
		s1.State != wire.TxAborted {
		t.Fatalf("final states %d/%d diverge from aborted", s0.State, s1.State)
	}
	// The aborted transaction left no residue: its reservation at g0 is
	// released, so the tuple is absent and the space fully writable.
	part2, err := pc.Space("observer")
	if err != nil {
		t.Fatal(err)
	}
	ctx := partitionCtx(t)
	if _, ok, _ := part2.Rdp(ctx, T(Str(keyA), Str("doomed"))); ok {
		t.Fatal("vetoed transaction's out leaked into g0")
	}
	if err := part2.Out(ctx, T(Str(keyA), Str("doomed"))); err != nil {
		t.Fatalf("space not writable after abort: %v", err)
	}
}

// TestRecoverUnknownTxPinsAbort checks the termination rule: a
// transaction no participant has heard of (a coordinator that crashed
// before any prepare landed) recovers to abort, and the pin holds
// against a late prepare replay.
func TestRecoverUnknownTxPinsAbort(t *testing.T) {
	pc, err := NewPartitionedCluster([]int{0, 0}, AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Stop()
	keyA, _ := partitionKeys(t, pc)
	part, err := pc.Space("recoverer")
	if err != nil {
		t.Fatal(err)
	}
	const txID = "ghost:1"
	committed, err := part.Recover(partitionCtx(t), txID, []string{"g0", "g1"})
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("recovered an unknown transaction to commit")
	}
	// A prepare arriving after the pin must observe the abort, not vote.
	c0 := pc.Groups[0].Client("tardy")
	o, _ := prepareAt(t, c0, wire.TxPrepare{
		TxID: txID, Participants: []string{"g0", "g1"},
		Ops: []wire.SpaceOp{{Op: policy.OpOut, Entry: T(Str(keyA), Int(9))}},
	})
	if o.State != wire.TxAborted {
		t.Fatalf("late prepare got state %d, want the abort pin", o.State)
	}
	if _, ok, _ := part.Rdp(partitionCtx(t), T(Str(keyA), Int(9))); ok {
		t.Fatal("late prepare's out leaked")
	}
}

// TestPartitionDuplicatePrepareStable checks prepare idempotence: a
// retransmitted prepare returns the recorded vote byte-for-byte, so
// certificates assembled from different transmissions are compatible.
func TestPartitionDuplicatePrepareStable(t *testing.T) {
	pc, err := NewPartitionedCluster([]int{0, 0}, AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Stop()
	keyA, _ := partitionKeys(t, pc)
	c0 := pc.Groups[0].Client("dup")
	prep := wire.TxPrepare{
		TxID: "dup:1", Participants: []string{"g0", "g1"},
		Ops: []wire.SpaceOp{{Op: policy.OpOut, Entry: T(Str(keyA), Int(3))}},
	}
	o1, _ := prepareAt(t, c0, prep)
	o2, _ := prepareAt(t, c0, prep)
	if o1.State != o2.State || len(o1.Results) != len(o2.Results) {
		t.Fatalf("duplicate prepare diverged: %+v vs %+v", o1, o2)
	}
	// The reservation stays parked: the tuple is invisible to reads
	// until a decision lands.
	part, err := pc.Space("reader")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := part.Rdp(partitionCtx(t), T(Str(keyA), Int(3))); ok {
		t.Fatal("undecided reservation visible to reads")
	}
}
