package bft

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"peats/internal/metrics"
	"peats/internal/space"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// Partitioned deployments run M independent replica groups, each owning
// the slice of the tuple key space the canonical FNV-1a(arity,
// first-field) rule routes to it. Cross-partition submissions reach a
// group as partition 2PC operations (wire.TxPrepare / TxDecision /
// TxStatus) carried through ordinary agreement, so every prepare vote
// and every decision application is itself BFT-agreed — the box the
// coordinator (an untrusted client) cannot subvert.
//
// The prepare of a transaction executes the group's op slice against a
// staged view but commits nothing: a YES vote parks the net effects as
// a *reservation* (removed tuples + pending inserts) in the service's
// pending table. Reserved tuples are frozen — invisible to every other
// operation, exactly as if already consumed — so the commit's removal
// targets cannot be stolen during the in-doubt window; pending inserts
// stay invisible until commit. A decision applies or drops the
// reservation; either way the original stores were never touched by an
// aborted transaction, which is what keeps a partitioned space
// observationally identical to a single-group one.
//
// A decision is honoured only with a valid justification: COMMIT needs
// vote certificates (2f+1 replica attestations over the agreed vote
// bytes) proving a YES from every participant the group's own agreed
// prepare named; ABORT needs a certificate proving some such
// participant voted NO or is pinned aborted. All-YES makes abort
// evidence unobtainable and any-NO makes commit evidence unobtainable,
// so conflicting decisions from a Byzantine coordinator cannot diverge
// outcomes across groups.

// GroupKeys is one group's verification material in the deployment
// topology: its fault bound and its replicas' attestation public keys.
type GroupKeys struct {
	F    int
	Keys map[string]ed25519.PublicKey
}

// AttestKeyFor derives a replica's attestation signing key from the
// deployment's attestation master secret. Deterministic derivation
// means topology descriptions need no public keys: any party holding
// the master (the trusted setup) reconstructs the whole directory.
// Fields are length-framed so no two (master, group, replica) triples
// collide.
func AttestKeyFor(master []byte, group, replica string) ed25519.PrivateKey {
	h := sha256.New()
	h.Write([]byte("peats-attest-key\x00"))
	var buf [8]byte
	for _, f := range []string{string(master), group, replica} {
		binary.BigEndian.PutUint64(buf[:], uint64(len(f)))
		h.Write(buf[:])
		h.Write([]byte(f))
	}
	return ed25519.NewKeyFromSeed(h.Sum(nil))
}

// Directory maps group identities to their verification material. It
// is part of the trusted setup (like the pairwise key master) and must
// be identical on every replica: certificate verification is a pure
// function of the directory and the certificate bytes, so verdicts are
// deterministic across a group.
type Directory map[string]GroupKeys

// pendingRes is one prepared-but-undecided transaction's reservation.
type pendingRes struct {
	parts   []string // sorted participant groups, fixed by the agreed prepare
	removed []space.SeqTuple
	inserts []tuple.Tuple
	outcome []byte // encoded YES TxOutcome, returned verbatim to duplicates and status queries
}

// decidedTx records a transaction's final state (and, for commits, its
// participant set, so a Committed status answer remains usable as YES
// evidence). The stamp orders entries by decision time for the aborted
// GC; it is part of the replicated state (snapshots carry it), so every
// replica evicts the same entries at the same execution point.
type decidedTx struct {
	state uint8 // wire.TxCommitted or wire.TxAborted
	parts []string
	stamp uint64
}

// partitionState is the 2PC half of a SpaceService. The pending and
// decided tables are touched only by ordered execution and
// Snapshot/Restore — all on the replica event loop, so they need no
// lock. The read-only worker pool observes reservations through the
// frozen cache, an atomically swapped slice: refreshFrozen publishes a
// new slice after every pending-table change, inside the scoped commit
// section when the stores change too, so readers always see freezes
// and store contents move together.
type partitionState struct {
	group string
	dir   Directory

	pending map[string]*pendingRes
	decided map[string]decidedTx
	frozen  atomic.Value // []space.SeqTuple

	stamp   uint64 // next decision stamp; deterministic across replicas
	aborted int    // count of decided entries in state TxAborted

	// Atomic size mirrors of the loop-owned tables, refreshed on every
	// mutation, so scrape-time gauges never read the maps themselves.
	pendingN atomic.Int64
	decidedN atomic.Int64

	// 2PC counters, nil until enableMetrics; nil handles no-op.
	mPrepares *metrics.Counter
	mCommits  *metrics.Counter
	mAborts   *metrics.Counter
	mStatus   *metrics.Counter
}

// EnablePartition gives the service a group identity and the
// deployment directory, turning on execution of partition 2PC
// operations. Call before the replica starts executing.
func (s *SpaceService) EnablePartition(group string, dir Directory) {
	s.ptx = &partitionState{
		group:   group,
		dir:     dir,
		pending: make(map[string]*pendingRes),
		decided: make(map[string]decidedTx),
	}
	s.ptx.frozen.Store([]space.SeqTuple(nil))
	s.ptx.enableMetrics(s.metricsReg, s.metricsLabels...)
}

// SkipTentative implements TentativeFilter: partition 2PC operations
// mutate the pending-transaction table, which no overlay can roll
// back, so batches carrying them must wait for the commit quorum.
func (s *SpaceService) SkipTentative(op []byte) bool {
	return wire.IsPartitionOp(op)
}

// refreshFrozen republishes the reserved tuples of every pending
// transaction for the read-only worker pool. Event loop only.
// syncSizes refreshes the atomic table-size mirrors. Event loop only.
func (p *partitionState) syncSizes() {
	p.pendingN.Store(int64(len(p.pending)))
	p.decidedN.Store(int64(len(p.decided)))
}

// enableMetrics registers the 2PC counters and table-size gauges.
func (p *partitionState) enableMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	if reg == nil {
		return
	}
	p.mPrepares = reg.Counter("peats_2pc_prepares_total",
		"TX-PREPARE operations executed (votes cast, YES or NO).", labels...)
	p.mCommits = reg.Counter("peats_2pc_commits_total",
		"Transactions committed by a valid certificate.", labels...)
	p.mAborts = reg.Counter("peats_2pc_aborts_total",
		"Transactions decided aborted (certificate or presumed-abort pin).", labels...)
	p.mStatus = reg.Counter("peats_2pc_status_queries_total",
		"TX-STATUS recovery queries answered.", labels...)
	reg.GaugeFunc("peats_2pc_pending",
		"Prepared transactions awaiting a decision (reservation table size).",
		func() float64 { return float64(p.pendingN.Load()) }, labels...)
	reg.GaugeFunc("peats_2pc_decided",
		"Decided transactions retained for recovery answers.",
		func() float64 { return float64(p.decidedN.Load()) }, labels...)
}

func (p *partitionState) refreshFrozen() {
	var frozen []space.SeqTuple
	for _, res := range p.pending {
		frozen = append(frozen, res.removed...)
	}
	// Stable order: the pending table is a map, and the cache feeds
	// Freeze whose scan order must not vary between replay runs.
	sort.Slice(frozen, func(i, j int) bool { return frozen[i].Seq < frozen[j].Seq })
	p.syncSizes()
	p.frozen.Store(frozen)
}

// freezeReservations hides every pending reservation from a staged
// view. Lock-free; safe from the read-only worker pool.
func (s *SpaceService) freezeReservations(st *space.Staged) {
	if s.ptx == nil {
		return
	}
	if frozen, _ := s.ptx.frozen.Load().([]space.SeqTuple); len(frozen) > 0 {
		st.Freeze(frozen)
	}
}

// partitionErr renders a deterministic error for a malformed or
// inapplicable partition operation.
func partitionErr(detail string) []byte {
	return wire.EncodeSpaceResult(wire.SpaceResult{Status: wire.StatusError, Detail: detail})
}

func encodeOutcome(txID string, state uint8, parts []string, results []wire.SpaceResult) []byte {
	return wire.EncodeTxOutcome(wire.TxOutcome{
		TxID: txID, State: state, Participants: parts, Results: results,
	})
}

// maxAbortedDecided bounds how many aborted decision records the
// decided table retains. Aborted entries are the unbounded class — any
// client can mint them by probing unknown txIDs — and presumed abort
// makes them safely evictable: re-probing an evicted ID pins it
// aborted again with the identical answer. Committed entries are kept
// forever; evicting one could let a replayed prepare resurrect a
// transaction whose commit evidence still circulates. The one cost of
// eviction is that an aborted txID's at-most-once window expires: a
// party reusing the ID after eviction runs a fresh transaction under
// it. Honest coordinators never reuse IDs (they carry a random nonce),
// and a dishonest party gains nothing it could not get with a new ID.
const maxAbortedDecided = 1 << 14

// pin records a transaction's final state, stamping it into the
// decision order and garbage-collecting old aborted entries. Callers
// guarantee txID is not already decided (every execution path answers
// from the decided table first). Event loop only.
func (p *partitionState) pin(txID string, state uint8, parts []string) {
	p.decided[txID] = decidedTx{state: state, parts: parts, stamp: p.stamp}
	p.stamp++
	if state == wire.TxAborted {
		p.aborted++
		p.gcAborted()
	}
	p.syncSizes()
}

// gcAborted evicts the oldest aborted decision records once the table
// holds more than maxAbortedDecided of them, keeping the newest half —
// amortized batch eviction, so the sort runs once per ~cap/2 pins.
// Stamps are replicated state, so every replica evicts the same
// entries on the same pin.
func (p *partitionState) gcAborted() {
	if p.aborted <= maxAbortedDecided {
		return
	}
	type aged struct {
		id    string
		stamp uint64
	}
	olds := make([]aged, 0, p.aborted)
	for id, dec := range p.decided {
		if dec.state == wire.TxAborted {
			olds = append(olds, aged{id, dec.stamp})
		}
	}
	sort.Slice(olds, func(i, j int) bool { return olds[i].stamp < olds[j].stamp })
	for _, a := range olds[:len(olds)-maxAbortedDecided/2] {
		delete(p.decided, a.id)
		p.aborted--
	}
}

// reserveDeltaOp renders a parked reservation as its checkpoint-delta
// event: removals by value (sequence numbers are replica-local), plus
// everything a replaying replica needs to reconstruct the pendingRes.
func reserveDeltaOp(txID string, res *pendingRes) wire.DeltaOp {
	removed := make([]tuple.Tuple, len(res.removed))
	for i, r := range res.removed {
		removed[i] = r.T
	}
	return wire.DeltaOp{
		Kind: wire.DeltaReserve, TxID: txID, Parts: res.parts,
		Removed: removed, Inserts: res.inserts, Outcome: res.outcome,
	}
}

// applyPartitionDelta replays one partition 2PC event from an
// incremental checkpoint, inside the caller's full critical section.
// Events replay through the same table transitions ordered execution
// performs — pin stamps included — so the replaying replica's tables,
// freezes, and stores advance exactly as the source's did.
func (s *SpaceService) applyPartitionDelta(tx *space.Tx, op wire.DeltaOp) error {
	if s.ptx == nil {
		return fmt.Errorf("partition event on a non-partitioned service")
	}
	switch op.Kind {
	case wire.DeltaReserve:
		if _, ok := s.ptx.pending[op.TxID]; ok {
			return fmt.Errorf("reserve for already-pending tx %s", op.TxID)
		}
		// Bind the reserved values to concrete stored tuples with the
		// current reservations frozen — the same selection the source's
		// prepare performed, so per-value reserved counts match.
		st := tx.Stage()
		s.freezeReservations(st)
		for _, v := range op.Removed {
			if _, ok := st.Inp(v); !ok {
				return fmt.Errorf("reservation of tx %s lost its target", op.TxID)
			}
		}
		bound, _ := st.Effects()
		s.ptx.pending[op.TxID] = &pendingRes{
			parts:   op.Parts,
			removed: append([]space.SeqTuple(nil), bound...),
			inserts: op.Inserts,
			outcome: op.Outcome,
		}
		// The staged view is dropped: binding consumed nothing.
		s.ptx.refreshFrozen()
	case wire.DeltaDecide:
		if op.Commit {
			res, ok := s.ptx.pending[op.TxID]
			if !ok {
				return fmt.Errorf("commit event for unprepared tx %s", op.TxID)
			}
			s.commitReservation(tx, op.TxID, res)
			return nil
		}
		delete(s.ptx.pending, op.TxID)
		s.ptx.pin(op.TxID, wire.TxAborted, nil)
		s.ptx.refreshFrozen()
	case wire.DeltaPin:
		s.ptx.pin(op.TxID, wire.TxAborted, nil)
	default:
		return fmt.Errorf("unknown partition event kind %d", op.Kind)
	}
	return nil
}

// executePartition dispatches one agreed partition 2PC operation. It
// runs on the replica event loop, like every ordered execution, and
// outside any space critical section.
func (s *SpaceService) executePartition(client string, op []byte) []byte {
	if s.ptx == nil {
		return partitionErr("partitioning not enabled on this group")
	}
	switch {
	case wire.IsTxPrepare(op):
		return s.executePrepare(client, op)
	case wire.IsTxDecision(op):
		return s.executeDecision(op)
	case wire.IsTxStatus(op):
		return s.executeStatus(op)
	}
	return partitionErr("unknown partition operation")
}

// executePrepare votes on this group's slice of a cross-partition
// transaction: the ops run against a staged view (predecessor
// reservations frozen), and a clean run parks the staged effects as a
// reservation without committing — the YES vote. Any abort condition
// votes NO and pins the transaction aborted, so no later certificate
// set can commit it here.
func (s *SpaceService) executePrepare(client string, op []byte) []byte {
	p, err := wire.DecodeTxPrepare(op)
	if err != nil {
		return partitionErr("bad prepare: " + err.Error())
	}
	s.ptx.mPrepares.Inc()
	parts := append([]string(nil), p.Participants...)
	sort.Strings(parts)
	parts = dedupSorted(parts)

	if dec, ok := s.ptx.decided[p.TxID]; ok {
		return encodeOutcome(p.TxID, dec.state, dec.parts, nil)
	}
	if res, ok := s.ptx.pending[p.TxID]; ok {
		return res.outcome
	}

	selfIn := false
	for _, g := range parts {
		if g == s.ptx.group {
			selfIn = true
		}
	}
	if !selfIn {
		// A prepare that does not name this group as a participant is
		// misrouted; vote NO so the transaction can only abort.
		s.ptx.pin(p.TxID, wire.TxAborted, nil)
		s.journalOp(wire.DeltaOp{Kind: wire.DeltaPin, TxID: p.TxID})
		return encodeOutcome(p.TxID, wire.TxVoteNo, parts, nil)
	}

	var outcome []byte
	s.inner.DoRead(func(tx *space.Tx) {
		st := tx.Stage()
		results, ok := s.runOps(st, client, p.Ops)
		if !ok {
			outcome = encodeOutcome(p.TxID, wire.TxVoteNo, parts, results)
			s.ptx.pin(p.TxID, wire.TxAborted, nil)
			return
		}
		removed, inserts := st.Effects()
		outcome = encodeOutcome(p.TxID, wire.TxVoteYes, parts, results)
		s.ptx.pending[p.TxID] = &pendingRes{
			parts: parts, removed: removed, inserts: inserts, outcome: outcome,
		}
		// The staged view is dropped without Commit: nothing touches the
		// stores until the decision.
	})
	s.ptx.refreshFrozen()
	if res, ok := s.ptx.pending[p.TxID]; ok {
		s.journalOp(reserveDeltaOp(p.TxID, res))
	} else {
		s.journalOp(wire.DeltaOp{Kind: wire.DeltaPin, TxID: p.TxID})
	}
	return outcome
}

// executeDecision validates and applies a coordinator's decision. An
// unjustified decision leaves the reservation untouched and reports the
// current state — the coordinator gains nothing by lying, and a correct
// recovery client can still deliver the unique valid decision later.
func (s *SpaceService) executeDecision(op []byte) []byte {
	d, err := wire.DecodeTxDecision(op)
	if err != nil {
		return partitionErr("bad decision: " + err.Error())
	}
	if dec, ok := s.ptx.decided[d.TxID]; ok {
		return encodeOutcome(d.TxID, dec.state, dec.parts, nil)
	}
	res, prepared := s.ptx.pending[d.TxID]
	if d.Commit {
		if !prepared {
			// No agreed YES vote exists here, so no valid commit
			// certificate can name this group; refuse deterministically.
			return partitionErr("commit for a transaction this group never prepared")
		}
		if !s.validCommit(d, res.parts) {
			return res.outcome // unjustified: still prepared
		}
		s.applyReservation(d.TxID, res)
		s.journalOp(wire.DeltaOp{Kind: wire.DeltaDecide, TxID: d.TxID, Commit: true})
		s.ptx.mCommits.Inc()
		return encodeOutcome(d.TxID, wire.TxCommitted, res.parts, nil)
	}
	if prepared && !s.validAbort(d, res.parts) {
		return res.outcome // unjustified: still prepared
	}
	delete(s.ptx.pending, d.TxID)
	s.ptx.pin(d.TxID, wire.TxAborted, nil)
	s.ptx.refreshFrozen()
	s.journalOp(wire.DeltaOp{Kind: wire.DeltaDecide, TxID: d.TxID})
	s.ptx.mAborts.Inc()
	return encodeOutcome(d.TxID, wire.TxAborted, nil, nil)
}

// executeStatus answers a group's agreed record of a transaction,
// pinning unknown transactions aborted (presumed abort — the pin gives
// coordinator recovery a terminating protocol). The answer for a
// still-prepared transaction is the stored YES vote, byte-identical to
// the prepare reply — so attested status replies reassemble into the
// same certificates a crashed coordinator lost.
//
// Pinning is open to any authenticated client by design (recovery must
// terminate without the coordinator's cooperation), which would be a
// denial-of-service lever if txIDs were guessable — a rival could pin
// a victim's next transaction aborted before it prepares. The defense
// is unpredictability, not authorization: coordinators embed a random
// nonce in every txID (see partition.Space), so there is no "next ID"
// to aim at, and the aborted-pin GC (maxAbortedDecided) keeps the spam
// an attacker can mint from inflating replica memory.
func (s *SpaceService) executeStatus(op []byte) []byte {
	q, err := wire.DecodeTxStatus(op)
	if err != nil {
		return partitionErr("bad status: " + err.Error())
	}
	s.ptx.mStatus.Inc()
	if dec, ok := s.ptx.decided[q.TxID]; ok {
		return encodeOutcome(q.TxID, dec.state, dec.parts, nil)
	}
	if res, ok := s.ptx.pending[q.TxID]; ok {
		return res.outcome
	}
	s.ptx.pin(q.TxID, wire.TxAborted, nil)
	s.journalOp(wire.DeltaOp{Kind: wire.DeltaPin, TxID: q.TxID})
	return encodeOutcome(q.TxID, wire.TxAborted, nil, nil)
}

// applyReservation commits a reservation: value-addressed removals and
// fresh-sequence inserts through the usual staged Commit path (and
// therefore through the durable store journal when one backs the
// space). The pending-table update and the frozen-cache swap happen
// inside the scoped section — the write locks keep the read-only pool
// out of the touched shards, so no reader can observe the stores and
// the freeze list disagreeing.
func (s *SpaceService) applyReservation(txID string, res *pendingRes) {
	var ws space.ShardSet
	for _, r := range res.removed {
		ws.Add(s.inner.EntryShard(r.T))
	}
	for _, t := range res.inserts {
		ws.Add(s.inner.EntryShard(t))
	}
	s.inner.DoScoped(ws, func(tx *space.Tx) {
		s.commitReservation(tx, txID, res)
	})
}

// commitReservation applies a reservation's effects inside an open
// critical section covering every touched shard.
//
// Commit consumes the earliest stored tuple equal to each reserved
// value. When another pending transaction reserved an equal value, the
// consumed copy may be the one *that* reservation's frozen sequence
// names — value-interchangeable for the store multiset, but it would
// leave the other reservation freezing a dead sequence while its
// surviving copy sits exposed: a concurrent inp could steal the copy,
// and the other transaction's later justified commit would find its
// target gone. rebindEqual repairs this immediately, re-binding every
// pending reservation of a just-committed value onto the surviving
// copies before the frozen cache is republished.
func (s *SpaceService) commitReservation(tx *space.Tx, txID string, res *pendingRes) {
	st := tx.Stage()
	st.Seed(res.removed, res.inserts)
	st.Commit()
	delete(s.ptx.pending, txID)
	s.ptx.pin(txID, wire.TxCommitted, res.parts)
	s.rebindEqual(tx, res.removed)
	s.ptx.refreshFrozen()
}

// rebindEqual re-binds, onto currently stored copies, every pending
// reservation holding a value equal to one just committed. All copies
// of an affected value held by any pending reservation are rebound in
// one pass (canonical txID order, earliest stored copy first), so no
// freezing is needed: the pass itself assigns distinct copies.
//
// The binding always succeeds: each prepare matched with every earlier
// reservation frozen and ordinary execution never consumes frozen
// tuples, so per value the reserved count never exceeds the stored
// count — an invariant the commit preserved by consuming exactly its
// own reserved copies, count-wise. Equal values route to one shard, so
// every lookup stays inside the commit's write scope.
func (s *SpaceService) rebindEqual(tx *space.Tx, committed []space.SeqTuple) {
	affected := make(map[string][]int) // txID → indices of removals to re-bind
	var ids []string
	for id, res := range s.ptx.pending {
		for i, r := range res.removed {
			for _, c := range committed {
				if r.T.Equal(c.T) {
					if len(affected[id]) == 0 {
						ids = append(ids, id)
					}
					affected[id] = append(affected[id], i)
					break
				}
			}
		}
	}
	if len(ids) == 0 {
		return
	}
	sort.Strings(ids)
	st := tx.Stage()
	for _, id := range ids {
		res := s.ptx.pending[id]
		for _, i := range affected[id] {
			if _, ok := st.Inp(res.removed[i].T); !ok {
				panic("bft: pending reservation lost every equal copy")
			}
		}
	}
	bound, _ := st.Effects()
	k := 0
	for _, id := range ids {
		res := s.ptx.pending[id]
		for _, i := range affected[id] {
			res.removed[i] = bound[k]
			k++
		}
	}
	// The staged view is dropped: re-binding consumed nothing.
}

// validCommit reports whether d carries, for every participant of this
// group's agreed prepare, a verified certificate of a YES vote (or an
// already-committed state) naming exactly the same participant set.
// Requiring the identical set defeats a coordinator that tells
// different groups different participant lists: the vote bytes pin the
// set each group agreed to, so mismatched views can never both reach a
// justified commit.
func (s *SpaceService) validCommit(d wire.TxDecision, parts []string) bool {
	for _, g := range parts {
		ok := false
		for _, c := range d.Certs {
			if c.Group != g {
				continue
			}
			o, err := wire.DecodeTxOutcome(c.Outcome)
			if err != nil || o.TxID != d.TxID {
				continue
			}
			if o.State != wire.TxVoteYes && o.State != wire.TxCommitted {
				continue
			}
			if !equalStrings(o.Participants, parts) {
				continue
			}
			if s.certSigned(c) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// validAbort reports whether d carries a verified certificate showing
// some participant of this group's agreed prepare voted NO or is
// pinned aborted. Certificates from groups outside the participant set
// are ignored: any stranger group can be pinned aborted by a status
// probe, and accepting its word would let a Byzantine coordinator
// abort a fully-prepared transaction at some groups while committing
// it at others.
func (s *SpaceService) validAbort(d wire.TxDecision, parts []string) bool {
	for _, c := range d.Certs {
		in := false
		for _, g := range parts {
			if c.Group == g {
				in = true
				break
			}
		}
		if !in {
			continue
		}
		o, err := wire.DecodeTxOutcome(c.Outcome)
		if err != nil || o.TxID != d.TxID {
			continue
		}
		if o.State != wire.TxVoteNo && o.State != wire.TxAborted {
			continue
		}
		if s.certSigned(c) {
			return true
		}
	}
	return false
}

// certSigned verifies a certificate's attestations against the
// directory: 2f+1 distinct replicas of the named group must have
// signed the outcome bytes. With at most f Byzantine replicas per
// group, a verified certificate proves the group's agreement produced
// these bytes.
func (s *SpaceService) certSigned(c wire.VoteCert) bool {
	gk, ok := s.ptx.dir[c.Group]
	if !ok {
		return false
	}
	payload := wire.AttestPayload(c.Group, c.Outcome)
	seen := make(map[string]struct{}, len(c.Atts))
	valid := 0
	for _, a := range c.Atts {
		if _, dup := seen[a.Replica]; dup {
			continue
		}
		pub, ok := gk.Keys[a.Replica]
		if !ok || len(a.Sig) != ed25519.SignatureSize {
			continue
		}
		if !ed25519.Verify(pub, payload, a.Sig) {
			continue
		}
		seen[a.Replica] = struct{}{}
		valid++
	}
	return valid >= 2*gk.F+1
}

// ---- Snapshot integration ----
//
// Reservations and decision records are replicated state: they decide
// what every operation after them observes, so they are part of the
// checkpoint digest and of state transfers. Reserved removals are
// encoded by value (like delta removals) and re-bound to concrete
// stored tuples on restore — sequence numbers are replica-local.

// appendPartitionSnapshot appends the pending and decided tables in
// canonical (txID-sorted) order. Event loop only.
func (s *SpaceService) appendPartitionSnapshot(w *wire.Writer) {
	if s.ptx == nil {
		return
	}
	ids := make([]string, 0, len(s.ptx.pending))
	for id := range s.ptx.pending {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		res := s.ptx.pending[id]
		w.String(id)
		w.Uvarint(uint64(len(res.parts)))
		for _, g := range res.parts {
			w.String(g)
		}
		w.Uvarint(uint64(len(res.removed)))
		for _, r := range res.removed {
			w.Tuple(r.T)
		}
		w.Uvarint(uint64(len(res.inserts)))
		for _, t := range res.inserts {
			w.Tuple(t)
		}
		w.Bytes(res.outcome)
	}
	ids = ids[:0]
	for id := range s.ptx.decided {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		dec := s.ptx.decided[id]
		w.String(id)
		w.Byte(dec.state)
		w.Uvarint(dec.stamp)
		w.Uvarint(uint64(len(dec.parts)))
		for _, g := range dec.parts {
			w.String(g)
		}
	}
}

// restorePartitionSnapshot reads the tables back and re-binds each
// reservation's removed values to the earliest stored tuples equal to
// them — the same value-addressed selection Staged.Commit performs, so
// a state-transferred replica freezes exactly the tuples its peers do.
// A snapshot without the partition section (single-group peer) clears
// the tables. Event loop only; the space must already hold the
// snapshot's tuples.
func (s *SpaceService) restorePartitionSnapshot(r *wire.Reader) error {
	s.ptx.pending = make(map[string]*pendingRes)
	s.ptx.decided = make(map[string]decidedTx)
	s.ptx.stamp = 0
	s.ptx.aborted = 0
	if r.Remaining() == 0 {
		s.ptx.refreshFrozen()
		return nil
	}
	np := r.Uvarint()
	if np > maxBatch {
		return fmt.Errorf("bft: snapshot with %d pending transactions", np)
	}
	type rawPending struct {
		id      string
		parts   []string
		removed []tuple.Tuple
		inserts []tuple.Tuple
		outcome []byte
	}
	raws := make([]rawPending, 0, np)
	for i := uint64(0); i < np && r.Err() == nil; i++ {
		var rp rawPending
		rp.id = r.String()
		ng := r.Uvarint()
		if ng > wire.MaxTxParticipants {
			return fmt.Errorf("bft: pending tx with %d participants", ng)
		}
		for j := uint64(0); j < ng && r.Err() == nil; j++ {
			rp.parts = append(rp.parts, r.String())
		}
		nr := r.Uvarint()
		if nr > wire.MaxTxOps {
			return fmt.Errorf("bft: pending tx with %d removals", nr)
		}
		for j := uint64(0); j < nr && r.Err() == nil; j++ {
			rp.removed = append(rp.removed, r.Tuple())
		}
		ni := r.Uvarint()
		if ni > wire.MaxTxOps {
			return fmt.Errorf("bft: pending tx with %d inserts", ni)
		}
		for j := uint64(0); j < ni && r.Err() == nil; j++ {
			rp.inserts = append(rp.inserts, r.Tuple())
		}
		rp.outcome = r.Bytes()
		raws = append(raws, rp)
	}
	nd := r.Uvarint()
	if nd > maxBatch {
		return fmt.Errorf("bft: snapshot with %d decided transactions", nd)
	}
	for i := uint64(0); i < nd && r.Err() == nil; i++ {
		id := r.String()
		state := r.Byte()
		stamp := r.Uvarint()
		ng := r.Uvarint()
		if ng > wire.MaxTxParticipants {
			return fmt.Errorf("bft: decided tx with %d participants", ng)
		}
		var parts []string
		for j := uint64(0); j < ng && r.Err() == nil; j++ {
			parts = append(parts, r.String())
		}
		s.ptx.decided[id] = decidedTx{state: state, parts: parts, stamp: stamp}
		// Recompute the stamp counter and the aborted census. The GC
		// never evicts the newest entry (eviction drops oldest aborted
		// entries, keeping the most recent half), so max(stamp)+1 is
		// exactly the counter the source replica holds.
		if stamp >= s.ptx.stamp {
			s.ptx.stamp = stamp + 1
		}
		if state == wire.TxAborted {
			s.ptx.aborted++
		}
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return fmt.Errorf("bft: restore partition state: %w", err)
	}
	// Re-bind reservations against the freshly restored stores. One
	// staged view across all transactions (txID order): identical values
	// reserved by different transactions bind to successive copies,
	// never the same one.
	var bindErr error
	s.inner.DoRead(func(tx *space.Tx) {
		st := tx.Stage()
		counts := make([]int, len(raws))
		for i, rp := range raws {
			for _, v := range rp.removed {
				if _, ok := st.Inp(v); !ok {
					bindErr = fmt.Errorf("bft: reservation of tx %s lost its target", rp.id)
					return
				}
			}
			counts[i] = len(rp.removed)
		}
		bound, _ := st.Effects()
		off := 0
		for i, rp := range raws {
			removed := append([]space.SeqTuple(nil), bound[off:off+counts[i]]...)
			off += counts[i]
			s.ptx.pending[rp.id] = &pendingRes{
				parts:   rp.parts,
				removed: removed,
				inserts: rp.inserts,
				outcome: rp.outcome,
			}
		}
		// The staged view is dropped: binding consumed nothing.
	})
	s.ptx.refreshFrozen()
	return bindErr
}

func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
