package bft

import (
	"errors"
	"fmt"

	"peats/internal/durable"
	"peats/internal/metrics"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/space"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// Service is the deterministic state machine a replica executes. The
// replication layer guarantees every correct replica applies the same
// (client, op) sequence; the service must therefore be a pure function
// of that sequence (paper §4: "both the augmented tuple space and the
// reference monitor are deterministic objects").
type Service interface {
	// Execute applies one operation invoked by the authenticated client
	// and returns the canonical result bytes.
	Execute(client string, op []byte) []byte
	// Snapshot returns the canonical encoding of the current state.
	Snapshot() []byte
	// Restore replaces the state with a snapshot.
	Restore(snapshot []byte) error
}

// TentativeService is an optional Service extension backing tentative
// execution (Castro–Liskov): the replica executes a batch into an
// overlay as soon as it is *prepared* (BeginTentativeUnit /
// TentativeExecute / EndTentativeUnit), applies the overlay to real
// state once the commit quorum lands (PromoteTentative, always in
// sequence order), and discards every unpromoted overlay when a view
// change may have dropped prepared batches (RollbackTentative). A
// replica whose service has the extension executes every batch this
// way — one that commits before it is prepared is staged and promoted
// in the same step — so Execute is the sequential reference the staged
// path is held to: TentativeExecute must return exactly the bytes
// Execute would return once every earlier unit commits, and
// PromoteTentative must leave state and checkpoint journal
// byte-identical to direct execution. All methods run on the replica
// event loop.
type TentativeService interface {
	BeginTentativeUnit(seq uint64)
	TentativeExecute(client string, op []byte) []byte
	EndTentativeUnit()
	PromoteTentative()
	RollbackTentative()
}

// TentativeFilter is an optional Service extension restricting
// tentative execution: the replica must not execute a batch containing
// an operation for which SkipTentative reports true before its commit
// quorum lands — and must not execute any later batch tentatively
// either, because overlay units stack in sequence order. SpaceService
// filters the partition 2PC operations, whose pending-transaction
// table mutations no overlay can roll back.
type TentativeFilter interface {
	SkipTentative(op []byte) bool
}

// ReadOnlyExecutor is an optional Service extension backing the
// read-only fast path: executing a non-mutating operation against the
// current state, outside the ordered sequence. Implementations must
// return ok=false for any operation that would mutate state — the
// replica then stays silent and the client falls back to ordering.
//
// ExecuteReadOnly is called from the replica's read worker pool,
// concurrently with itself and with ordered execution on the event
// loop, so implementations must synchronise internally (SpaceService
// uses the space's shard read locks).
type ReadOnlyExecutor interface {
	ExecuteReadOnly(client string, op []byte) (result []byte, ok bool)
}

// SpaceService is the PEATS state machine: an augmented tuple space
// guarded by the reference monitor, executing wire.SpaceOp operations
// and wire.SpaceTx atomic multi-operation transactions. This is the box
// marked "interceptor + tuple space" in Fig. 2.
//
// Every request — single op or transaction — runs through one staged
// executor: operations execute against a deferred-update view inside
// one scoped critical section, the monitor vetting each against the
// state its predecessors produced, and the staged effects commit only
// if no operation was denied or malformed and every inp found a match
// (otherwise the transaction aborts and the space is untouched). A
// single-operation request is simply a one-op transaction that travels
// in the legacy wire form.
//
// The space's store engine and shard count are pluggable
// (NewSpaceServiceWithConfig). Replicas running different engines or
// shard counts stay consistent: the Store determinism contract and the
// space's merge-by-sequence iteration guarantee identical match order
// for identical operation sequences, and Snapshot/Restore exchange
// engine-neutral tuple lists, so checkpoints and state transfers
// install cleanly on any configuration.
//
// Ordered execution write-locks only the shards a request's operations
// route to (read-locking the rest for the monitor), and the read-only
// fast path takes shared locks everywhere — so fast-path reads run
// concurrently with each other and with ordered execution on other
// shards.
type SpaceService struct {
	inner *space.Space
	pol   policy.Policy

	// Mutation journal backing incremental checkpoints: every committed
	// unit appends its net effects (value-addressed, see wire.Delta).
	// Only ordered execution appends — the event-loop goroutine — so no
	// lock is needed; read-only execution never stages mutations.
	// journalBroken marks a journal that cannot stand in for the state
	// (a Restore replaced the state wholesale, or the journal
	// overflowed): the next checkpoint must be a full snapshot.
	journal       []wire.DeltaOp
	journalBroken bool

	// snapLen and deltaLen remember how long the last Snapshot and
	// CheckpointDelta came out, so the next one is encoded into a buffer
	// that already fits it.
	snapLen  int
	deltaLen int

	// db, when set, is the durability engine behind the space's stores
	// (NewDurableSpaceService).
	db *durable.DB

	// ptx, when set (EnablePartition), holds the cross-partition 2PC
	// state: this group's identity, the deployment directory, and the
	// pending/decided transaction tables.
	ptx *partitionState

	// metricsReg and metricsLabels remember the EnableMetrics
	// arguments so EnablePartition can register the 2PC metrics in
	// either call order.
	metricsReg    *metrics.Registry
	metricsLabels []metrics.Label

	// tentative is the overlay stack of units executed at *prepared*
	// but not yet committed (Castro–Liskov tentative execution). Only
	// the replica event loop touches it. Lazily allocated; nil and
	// empty are equivalent. Nothing tentative reaches the stores — or,
	// on a durable service, the WAL — until PromoteTentative, so
	// recovery can never resurface un-agreed state.
	tentative *space.Overlay
}

var (
	_ Service          = (*SpaceService)(nil)
	_ ReadOnlyExecutor = (*SpaceService)(nil)
	_ DeltaSnapshotter = (*SpaceService)(nil)
	_ DurableService   = (*SpaceService)(nil)
	_ TentativeService = (*SpaceService)(nil)
	_ TentativeFilter  = (*SpaceService)(nil)
)

// NewSpaceService returns a PEATS service protected by the given
// policy, backed by the default store engine.
func NewSpaceService(pol policy.Policy) *SpaceService {
	return &SpaceService{inner: space.New(), pol: pol}
}

// NewSpaceServiceWithEngine returns a PEATS service whose space uses
// the named store engine, with a single shard.
func NewSpaceServiceWithEngine(pol policy.Policy, e space.Engine) (*SpaceService, error) {
	return NewSpaceServiceWithConfig(pol, e, 1)
}

// NewSpaceServiceWithConfig returns a PEATS service whose space uses
// the named store engine partitioned into the given number of shards
// (shards ≤ 0 selects 1).
func NewSpaceServiceWithConfig(pol policy.Policy, e space.Engine, shards int) (*SpaceService, error) {
	if shards <= 0 {
		shards = 1
	}
	inner, err := space.NewSharded(e, shards)
	if err != nil {
		return nil, err
	}
	return &SpaceService{inner: inner, pol: pol}, nil
}

// NewDurableSpaceService returns a PEATS service whose space is backed
// by the durability engine: every shard's store journals into db's
// write-ahead log, and the state db recovered from disk is installed
// into the space (under its original sequence numbers) before the
// service is handed out. The replica layer detects the durable service
// and frames agreement batches as atomic WAL units, offers the log for
// compaction at checkpoint boundaries, and folds the recovered client
// table forward.
func NewDurableSpaceService(pol policy.Policy, db *durable.DB, shards int) (*SpaceService, error) {
	if shards <= 0 {
		shards = 1
	}
	inner, err := space.NewShardedFactory(shards, func(int) (space.Store, error) {
		return db.NewStore(), nil
	})
	if err != nil {
		return nil, err
	}
	db.StartLoad()
	err = inner.Install(db.Recovered().Tuples)
	db.EndLoad()
	if err != nil {
		return nil, err
	}
	return &SpaceService{inner: inner, pol: pol, db: db}, nil
}

// Space exposes the underlying space for inspection in tests.
func (s *SpaceService) Space() *space.Space { return s.inner }

// Close releases the durability engine, flushing the write-ahead log
// (no-op for in-memory services).
func (s *SpaceService) Close() error {
	if s.db == nil {
		return nil
	}
	return s.db.Close()
}

// decodedReq is one decoded request payload: a single op or a
// transaction, with a deterministic decode error when malformed.
type decodedReq struct {
	ops  []wire.SpaceOp
	isTx bool
	err  error
}

// decodeReq parses a request payload as a SpaceTx or a single SpaceOp.
func decodeReq(op []byte) decodedReq {
	if wire.IsSpaceTx(op) {
		tx, err := wire.DecodeSpaceTx(op)
		return decodedReq{ops: tx.Ops, isTx: true, err: err}
	}
	decoded, err := wire.DecodeSpaceOp(op)
	return decodedReq{ops: []wire.SpaceOp{decoded}, err: err}
}

// encode renders a result vector in the wire form the client expects
// for this request shape: a bare SpaceResult for a single op, a result
// vector for a transaction.
func (d decodedReq) encode(results []wire.SpaceResult) []byte {
	if d.isTx {
		return wire.EncodeSpaceResults(results)
	}
	return wire.EncodeSpaceResult(results[0])
}

// encodeErr renders d's decode error deterministically in the matching
// wire form.
func (d decodedReq) encodeErr() []byte {
	res := wire.SpaceResult{Status: wire.StatusError, Detail: d.err.Error()}
	if d.isTx {
		return wire.EncodeSpaceResults([]wire.SpaceResult{res})
	}
	return wire.EncodeSpaceResult(res)
}

// addWrites adds the shards the request's operations may mutate to ws.
func (s *SpaceService) addWrites(ws *space.ShardSet, d decodedReq) {
	if d.err != nil {
		return
	}
	for _, op := range d.ops {
		// Unsupported codes never survive decoding, so the error return
		// is vacuous here.
		_, _ = peats.SubmitWrites(s.inner, ws, op.Op, op.Template, op.Entry)
	}
}

// Execute implements Service. Malformed operations yield StatusError;
// operations rejected by the monitor yield StatusDenied. Both are
// deterministic results, so replicas never diverge on bad input.
func (s *SpaceService) Execute(client string, op []byte) []byte {
	if wire.IsPartitionOp(op) {
		return s.executePartition(client, op)
	}
	d := decodeReq(op)
	if d.err != nil {
		return d.encodeErr()
	}
	var ws space.ShardSet
	s.addWrites(&ws, d)
	var res []byte
	s.inner.DoScoped(ws, func(tx *space.Tx) {
		res = d.encode(s.executeTxIn(tx, client, d.ops))
	})
	return res
}

// ExecuteBatch is Execute in a loop; nothing in this module calls it —
// it stays only because benchmark/trace.go wraps it by name.
func (s *SpaceService) ExecuteBatch(clients []string, ops [][]byte) [][]byte {
	results := make([][]byte, len(ops))
	for i, op := range ops {
		results[i] = s.Execute(clients[i], op)
	}
	return results
}

// ExecuteReadOnly implements ReadOnlyExecutor: rdp and rdAll (the
// non-mutating operations) — alone or as an all-read-only transaction —
// execute against current state without ordering, still passing through
// the reference monitor. Every other request — and any malformed one,
// whose deterministic error result per-replica voting would mask
// anyway — reports ok=false so the client falls back to the ordered
// path.
//
// The section holds only shard read locks (DoRead), so fast-path reads
// run concurrently with each other and with ordered execution on
// shards the current batch does not write.
func (s *SpaceService) ExecuteReadOnly(client string, op []byte) ([]byte, bool) {
	d := decodeReq(op)
	if d.err != nil {
		return nil, false
	}
	for _, decoded := range d.ops {
		switch decoded.Op {
		case policy.OpRdp, policy.OpRdAll:
		default:
			return nil, false
		}
	}
	var res []byte
	s.inner.DoRead(func(tx *space.Tx) {
		res = d.encode(s.executeTxIn(tx, client, d.ops))
	})
	return res, true
}

// executeTxIn applies one request's operations as an atomic unit inside
// an open critical section: each op is vetted and executed against a
// staged view reflecting its predecessors, and the staged effects
// commit only if no op aborts (denial, malformed argument, or an inp
// that found no match). Aborted units leave the space untouched, with
// the unexecuted tail marked StatusSkipped.
func (s *SpaceService) executeTxIn(tx *space.Tx, client string, ops []wire.SpaceOp) []wire.SpaceResult {
	st := tx.Stage()
	results, ok := s.runOps(st, client, ops)
	if ok {
		s.journalEffects(st)
		st.Commit()
	}
	return results
}

// runOps executes one request's operations against the staged view, in
// order, and reports whether the unit may commit. The first aborting
// op stops it, with the unexecuted tail marked StatusSkipped.
func (s *SpaceService) runOps(st *space.Staged, client string, ops []wire.SpaceOp) ([]wire.SpaceResult, bool) {
	s.freezeReservations(st)
	results := make([]wire.SpaceResult, len(ops))
	for i, op := range ops {
		res, abort := s.applyStaged(st, client, op, i, len(ops))
		results[i] = res
		if abort {
			for j := i + 1; j < len(ops); j++ {
				results[j] = wire.SpaceResult{Status: wire.StatusSkipped}
			}
			return results, false
		}
	}
	return results, true
}

// ---- Tentative execution ----
//
// The replica calls BeginTentativeUnit / TentativeExecute /
// EndTentativeUnit when a batch reaches prepared, PromoteTentative when
// its commit quorum lands (always in sequence order), and
// RollbackTentative when a view change may have dropped prepared
// batches. All five run on the replica event loop.

// BeginTentativeUnit opens an overlay segment for the prepared batch at
// agreement sequence seq.
func (s *SpaceService) BeginTentativeUnit(seq uint64) {
	if s.tentative == nil {
		s.tentative = s.inner.NewOverlay()
	}
	s.tentative.BeginUnit(seq)
}

// TentativeExecute applies one request of the open tentative unit
// against the overlay view — committed state plus every tentative unit
// below — and returns the canonical result bytes, byte-identical to
// what Execute would return after the preceding units commit. The
// stores are not touched: effects fold into the overlay, under shard
// read locks only.
func (s *SpaceService) TentativeExecute(client string, op []byte) []byte {
	d := decodeReq(op)
	if d.err != nil {
		return d.encodeErr()
	}
	var res []byte
	s.inner.DoRead(func(tx *space.Tx) {
		st := tx.StageOn(s.tentative)
		results, ok := s.runOps(st, client, d.ops)
		if ok {
			st.CommitTentative()
		} else {
			st.AbortTentative()
		}
		res = d.encode(results)
	})
	return res
}

// EndTentativeUnit closes the open overlay segment.
func (s *SpaceService) EndTentativeUnit() { s.tentative.EndUnit() }

// PromoteTentative applies the oldest tentative unit to the stores —
// its commit quorum landed — and journals its effects for the
// incremental checkpoint exactly as direct execution would have
// (journalEffects ordering: per request, removals by value then
// inserts). On a durable service the caller brackets this with
// BeginUnit/CommitUnit, so the whole unit lands in one WAL frame.
func (s *SpaceService) PromoteTentative() {
	for _, eff := range s.tentative.PromoteBottom() {
		for _, t := range eff.Removed {
			s.journalOp(wire.DeltaOp{Kind: wire.DeltaRemove, T: t})
		}
		for _, t := range eff.Inserted {
			s.journalOp(wire.DeltaOp{Kind: wire.DeltaInsert, T: t})
		}
	}
}

// RollbackTentative discards every unpromoted tentative unit: a view
// change may drop prepared batches, and whatever survives re-executes
// after the new view re-proposes it.
func (s *SpaceService) RollbackTentative() {
	if s.tentative != nil {
		s.tentative.Rollback(0)
	}
}

// TentativeDepth reports how many tentative units are stacked (test
// hook).
func (s *SpaceService) TentativeDepth() int {
	if s.tentative == nil {
		return 0
	}
	return s.tentative.Depth()
}

// maxJournalOps caps the mutation journal. Checkpoints drain it every
// CheckpointInterval executions, so the cap only triggers when nothing
// checkpoints (a service driven outside a replica); overflowing marks
// the journal broken, deterministically — every replica executes the
// same sequence, so all of them overflow on the same unit, lose their
// chain heads together and re-base together at the next grid point the
// stalled checkpoints open (Replica.tryDeltaCheckpoint).
const maxJournalOps = 1 << 17

// journalOp appends one op to the mutation journal, marking the
// journal broken on overflow. No-op while the journal is broken. Event
// loop only.
func (s *SpaceService) journalOp(op wire.DeltaOp) {
	if s.journalBroken {
		return
	}
	s.journal = append(s.journal, op)
	if len(s.journal) > maxJournalOps {
		s.journal = nil
		s.journalBroken = true
	}
}

// journalEffects records a unit's net effects for the incremental
// checkpoint, in the exact order Commit applies them (removals, then
// inserts). Removals are journaled by value: applying "remove the
// first stored tuple equal to v" consumes exactly the tuple the staged
// executor consumed (see Staged.Commit), on any replica, regardless of
// its internal sequence numbering.
func (s *SpaceService) journalEffects(st *space.Staged) {
	removed, inserted := st.Effects()
	for _, r := range removed {
		s.journalOp(wire.DeltaOp{Kind: wire.DeltaRemove, T: r.T})
	}
	for _, t := range inserted {
		s.journalOp(wire.DeltaOp{Kind: wire.DeltaInsert, T: t})
	}
}

// CheckpointDelta implements DeltaSnapshotter. The journal's backing
// array is kept for the next interval, which fills about as far.
func (s *SpaceService) CheckpointDelta() ([]byte, bool) {
	if s.journalBroken {
		s.ResetJournal()
		return nil, false
	}
	w := wire.NewWriterSize(s.deltaLen + s.deltaLen/8 + 64)
	wire.AppendDelta(w, wire.Delta{Ops: s.journal})
	s.deltaLen = len(w.Data())
	s.ResetJournal()
	return w.Data(), true
}

// ApplyDelta implements DeltaSnapshotter: the delta's mutations apply
// to the current state in order, inside one critical section. A
// removal that finds no equal tuple means the delta does not follow
// from this state — the install aborts with an error (the caller
// verified the chain digest, so this is corruption, not divergence).
//
// Tuple mutations run through a staged view with the current
// reservations frozen, exactly like the source execution: a delta
// removal must consume the same copy the source consumed, and with
// equal-valued tuples split between free and reserved copies only a
// freeze-aware selection lands on the free one. Partition 2PC events
// flush the staged run before them (the event's table transition must
// observe the stores the source's did) and replay through the same
// transitions ordered execution performs, so the pending/decided
// tables, the reservation freezes, and the stores all advance in
// lockstep with the source replica.
func (s *SpaceService) ApplyDelta(delta []byte) error {
	d, err := wire.DecodeDelta(delta)
	if err != nil {
		return err
	}
	s.journal, s.journalBroken = nil, true
	var applyErr error
	s.inner.Do(func(tx *space.Tx) {
		var st *space.Staged
		view := func() *space.Staged {
			if st == nil {
				st = tx.Stage()
				s.freezeReservations(st)
			}
			return st
		}
		flush := func() {
			if st != nil {
				st.Commit()
				st = nil
			}
		}
		for i, op := range d.Ops {
			switch op.Kind {
			case wire.DeltaRemove:
				if _, ok := view().Inp(op.T); !ok {
					applyErr = fmt.Errorf("bft: delta op %d removes an absent tuple", i)
					return
				}
			case wire.DeltaInsert:
				if err := view().Out(op.T); err != nil {
					applyErr = fmt.Errorf("bft: delta op %d: %w", i, err)
					return
				}
			default:
				flush()
				if err := s.applyPartitionDelta(tx, op); err != nil {
					applyErr = fmt.Errorf("bft: delta op %d: %w", i, err)
					return
				}
			}
		}
		flush()
	})
	return applyErr
}

// ResetJournal implements DeltaSnapshotter.
func (s *SpaceService) ResetJournal() {
	clear(s.journal) // drop the tuples, keep the room
	s.journal, s.journalBroken = s.journal[:0], false
}

// Durable implements DurableService.
func (s *SpaceService) Durable() bool { return s.db != nil }

// BeginUnit implements DurableService.
func (s *SpaceService) BeginUnit(seq uint64) {
	if s.db != nil {
		s.db.BeginUnit(seq)
	}
}

// CommitUnit implements DurableService.
func (s *SpaceService) CommitUnit(extra []byte) {
	if s.db != nil {
		s.db.CommitUnit(extra)
	}
}

// CompactTo implements DurableService: the engine decides whether the
// log is worth folding, and reads the space itself when it is.
func (s *SpaceService) CompactTo(seq uint64, extra []byte) error {
	if s.db == nil {
		return nil
	}
	return s.db.Compact(seq, extra, s.inner.ForEachSeq, false)
}

// BeginStateLoad implements DurableService.
func (s *SpaceService) BeginStateLoad() {
	if s.db != nil {
		s.db.StartLoad()
	}
}

// EndStateLoad implements DurableService.
func (s *SpaceService) EndStateLoad(seq uint64, extra []byte) error {
	if s.db == nil {
		return nil
	}
	s.db.EndLoad()
	return s.db.Compact(seq, extra, s.inner.ForEachSeq, true)
}

// AbortStateLoad implements DurableService.
func (s *SpaceService) AbortStateLoad() {
	if s.db != nil {
		s.db.EndLoad()
	}
}

// RecoveredState implements DurableService.
func (s *SpaceService) RecoveredState() (uint64, []byte, []durable.UnitExtra) {
	if s.db == nil {
		return 0, nil, nil
	}
	rec := s.db.Recovered()
	return rec.UnitSeq, rec.BaseExtra, rec.Units
}

// applyStaged vets and executes one operation against the staged view,
// reporting whether it aborts the unit. An inp miss aborts: for a
// one-op unit that is indistinguishable from the legacy not-found
// result (nothing was staged), and for a longer one it is what makes
// consume-then-act patterns atomic.
func (s *SpaceService) applyStaged(st *space.Staged, client string, op wire.SpaceOp, idx, txLen int) (wire.SpaceResult, bool) {
	inv := policy.Invocation{
		Invoker:  policy.ProcessID(client),
		Op:       op.Op,
		Template: op.Template,
		Entry:    op.Entry,
		TxIndex:  idx,
		TxLen:    txLen,
	}
	if d := s.pol.Evaluate(inv, st); !d.Allowed {
		return wire.SpaceResult{Status: wire.StatusDenied, Detail: inv.String()}, true
	}
	switch op.Op {
	case policy.OpOut:
		if err := st.Out(op.Entry); err != nil {
			return wire.SpaceResult{Status: wire.StatusError, Detail: err.Error()}, true
		}
		return wire.SpaceResult{Status: wire.StatusOK}, false
	case policy.OpRdp:
		t, ok := st.Rdp(op.Template)
		return wire.SpaceResult{Status: wire.StatusOK, Found: ok, Tuple: t}, false
	case policy.OpInp:
		t, ok := st.Inp(op.Template)
		return wire.SpaceResult{Status: wire.StatusOK, Found: ok, Tuple: t}, !ok
	case policy.OpRdAll:
		all := st.RdAll(op.Template)
		return wire.SpaceResult{Status: wire.StatusOK, Found: len(all) > 0, Tuples: all}, false
	case policy.OpCas:
		ins, matched, err := st.Cas(op.Template, op.Entry)
		if err != nil {
			return wire.SpaceResult{Status: wire.StatusError, Detail: err.Error()}, true
		}
		return wire.SpaceResult{Status: wire.StatusOK, Inserted: ins, Tuple: matched}, false
	default:
		return wire.SpaceResult{Status: wire.StatusError,
			Detail: fmt.Sprintf("unsupported op %v", op.Op)}, true
	}
}

// Snapshot implements Service: the canonical encoding of the tuple
// list, followed — on a partitioned service — by the pending and
// decided cross-partition transaction tables (they shape what every
// later operation observes, so they are checkpoint state).
//
// The tuples stream from the stores into a writer sized from the
// previous snapshot: one pass, no intermediate list. Called on the
// replica event loop (and by tests), never concurrently with itself.
func (s *SpaceService) Snapshot() []byte {
	w := wire.NewWriterSize(s.snapLen + s.snapLen/8 + 128)
	s.inner.DoRead(func(tx *space.Tx) {
		w.Uvarint(uint64(tx.Len()))
		tx.ForEach(func(t tuple.Tuple) bool {
			w.Tuple(t)
			return true
		})
	})
	s.appendPartitionSnapshot(w)
	s.snapLen = len(w.Data())
	return w.Data()
}

// Restore implements Service. The mutation journal cannot describe a
// wholesale state replacement, so Restore breaks it: the next
// checkpoint falls back to a full snapshot (unless a state-transfer
// install completes the picture and calls ResetJournal).
func (s *SpaceService) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	count := r.Uvarint()
	if count > maxBatch {
		return fmt.Errorf("bft: snapshot with %d tuples", count)
	}
	tuples := make([]tuple.Tuple, 0, count)
	for i := uint64(0); i < count; i++ {
		tuples = append(tuples, r.Tuple())
	}
	if s.ptx == nil {
		r.ExpectEOF()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("bft: restore space: %w", err)
	}
	s.journal, s.journalBroken = nil, true
	s.inner.Restore(tuples)
	if s.ptx != nil {
		return s.restorePartitionSnapshot(r)
	}
	return nil
}

// resultToError converts a decoded SpaceResult status into the error
// the local PEATS would return, so the two realisations are
// interchangeable behind peats.TupleSpace.
func resultToError(res wire.SpaceResult) error {
	switch res.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusDenied:
		return &peats.DeniedError{Detail: res.Detail}
	default:
		return errors.New("peats service: " + res.Detail)
	}
}
