package space

import (
	"peats/internal/tuple"
)

// Staged is a deferred-update view of the space inside an open critical
// section: operations observe the real contents plus an overlay of the
// mutations staged so far, and nothing touches the stores until Commit.
// Dropping a Staged without committing discards every staged effect —
// which is how atomic multi-operation submissions abort without an undo
// log.
//
// Observational contract: a Staged fed a sequence of operations and
// then committed is indistinguishable from applying the same operations
// directly to the Tx one by one. In particular, matches are selected in
// insertion order with staged inserts ordered after every stored tuple
// (they would receive larger sequence numbers), and a staged removal
// hides exactly the tuple a direct execution would have consumed.
//
// Like the Tx it wraps, a Staged is single-threaded and only valid
// during the critical-section callback. Commit requires the shards the
// staged mutations touch to be in the transaction's write set; a
// Staged that only ever read commits nothing and is safe under DoRead.
type Staged struct {
	tx *Tx
	// inserts holds the entries staged for insertion, in operation
	// order — the order they will be stamped with fresh sequence
	// numbers on commit.
	inserts []tuple.Tuple
	// removed holds the stored tuples consumed by staged destructive
	// reads, in consumption order; removedSeqs indexes their sequence
	// numbers so reads skip them.
	removed     []SeqTuple
	removedSeqs map[uint64]struct{}

	// frozen hides stored tuples reserved by in-doubt cross-partition
	// transactions (Freeze): they are invisible to matching, counting
	// and iteration exactly like staged removals, but are not effects —
	// Commit neither consumes nor journals them. frozenSeqs indexes
	// their sequence numbers.
	frozen     []SeqTuple
	frozenSeqs map[uint64]struct{}

	// base, when non-nil, stacks this view on a tentative-execution
	// overlay (Tx.StageOn): matches are selected stored tuples first,
	// then the overlay's unconsumed inserts, then this view's own
	// staged inserts — exactly the order a direct execution of the
	// overlay's units followed by this transaction would produce.
	base *Overlay
	// takes records every consumption — stored or overlay insert — in
	// order, for folding into the overlay; baseTaken lists the overlay
	// inserts consumed (marked eagerly), for un-marking on abort.
	takes     []overlayRemoval
	baseTaken []*OverlayInsert

	// survivor is the Scan callback of peekStored's hidden-seq path and
	// peek the result it leaves. A func handed through the Store
	// interface escapes, so the view builds it once and keeps its state
	// here instead of putting a closure and its captures on the heap at
	// every lookup.
	survivor func(SeqTuple) bool
	peek     struct {
		best  SeqTuple
		found bool
	}
}

// Stage opens a deferred-update view over the transaction.
func (tx *Tx) Stage() *Staged {
	return &Staged{tx: tx}
}

// StageOn opens a deferred-update view stacked on a tentative overlay:
// the view observes committed state as modified by the overlay's
// units, and its effects are destined for the overlay (CommitTentative)
// rather than the stores. The overlay must belong to the transaction's
// space, and the caller needs no write locks — tentative execution
// never touches the stores.
func (tx *Tx) StageOn(ov *Overlay) *Staged {
	if ov.s != tx.s {
		panic("space: StageOn with an overlay of another space")
	}
	return &Staged{tx: tx, base: ov}
}

// Freeze hides the given stored tuples from this view for its whole
// lifetime. The partitioned deployment uses it to mask the
// reservations of prepared-but-undecided cross-partition transactions:
// a reserved tuple behaves as already consumed until the transaction's
// decision arrives, so no concurrent operation can steal a commit's
// removal target. Frozen tuples are not staged effects — Commit leaves
// them in place.
func (st *Staged) Freeze(rs []SeqTuple) {
	if len(rs) == 0 {
		return
	}
	if st.frozenSeqs == nil {
		st.frozenSeqs = make(map[uint64]struct{}, len(rs))
	}
	for _, r := range rs {
		if _, ok := st.frozenSeqs[r.Seq]; ok {
			continue
		}
		st.frozenSeqs[r.Seq] = struct{}{}
		st.frozen = append(st.frozen, r)
	}
}

// Seed loads previously captured effects into an empty staged unit, so
// a reservation parked outside any critical section can be applied
// later with the usual Commit path (value-addressed removals, fresh
// insert sequence numbers). The staged view takes ownership of the
// slices.
func (st *Staged) Seed(removed []SeqTuple, inserts []tuple.Tuple) {
	if len(st.removed) != 0 || len(st.inserts) != 0 {
		panic("space: Seed on a non-empty staged unit")
	}
	st.removed = removed
	st.removedSeqs = make(map[uint64]struct{}, len(removed))
	for _, r := range removed {
		st.removedSeqs[r.Seq] = struct{}{}
	}
	st.inserts = inserts
}

// overlayClean reports whether no mutation has been staged and no base
// overlay shadows the stores, enabling the direct store fast paths.
func (st *Staged) overlayClean() bool {
	return len(st.inserts) == 0 && len(st.removed) == 0 && len(st.frozen) == 0 &&
		(st.base == nil || st.base.Empty())
}

// hiddenStored reports whether either this view or its base overlay
// hides the stored tuple with the given sequence number.
func (st *Staged) hiddenStored() bool {
	return len(st.removedSeqs) > 0 || len(st.frozenSeqs) > 0 ||
		(st.base != nil && len(st.base.hidden) > 0)
}

func (st *Staged) isRemoved(seq uint64) bool {
	if _, ok := st.removedSeqs[seq]; ok {
		return true
	}
	if _, ok := st.frozenSeqs[seq]; ok {
		return true
	}
	return st.base != nil && st.base.hiddenSeq(seq)
}

// peekStored returns the earliest stored (non-staged-removed) match for
// tmpl across the shards it routes to.
func (st *Staged) peekStored(tmpl tuple.Tuple) (SeqTuple, bool) {
	s := st.tx.s
	if !st.hiddenStored() {
		// No staged removals: the store's own first match is the answer.
		if idx, keyed := s.TemplateShard(tmpl); keyed || len(s.shards) == 1 {
			t, seq, ok := s.shards[idx].store.Find(tmpl, false)
			return SeqTuple{Seq: seq, T: t}, ok
		}
		var (
			best  SeqTuple
			found bool
		)
		for _, sh := range s.shards {
			if t, seq, ok := sh.store.Find(tmpl, false); ok && (!found || seq < best.Seq) {
				best, found = SeqTuple{Seq: seq, T: t}, true
			}
		}
		return best, found
	}
	// Staged removals hide tuples: scan each routed shard's matches in
	// order for the first survivor, then take the earliest across shards.
	shards := s.shards
	if idx, keyed := s.TemplateShard(tmpl); keyed {
		shards = s.shards[idx : idx+1]
	}
	if st.survivor == nil {
		st.survivor = func(cand SeqTuple) bool {
			if st.isRemoved(cand.Seq) {
				return true
			}
			if !st.peek.found || cand.Seq < st.peek.best.Seq {
				st.peek.best, st.peek.found = cand, true
			}
			return false // per-shard scans are seq-sorted: first survivor is the shard's best
		}
	}
	st.peek.best, st.peek.found = SeqTuple{}, false
	for _, sh := range shards {
		sh.store.Scan(tmpl, st.survivor)
	}
	return st.peek.best, st.peek.found
}

// find returns the first match for tmpl in the staged view — stored
// tuples first (they precede every staged insert in insertion order),
// then the base overlay's unconsumed inserts, then staged inserts in
// staging order — consuming it when remove is true.
func (st *Staged) find(tmpl tuple.Tuple, remove bool) (tuple.Tuple, bool) {
	if cand, ok := st.peekStored(tmpl); ok {
		if remove {
			if st.removedSeqs == nil {
				st.removedSeqs = make(map[uint64]struct{}, 1)
			}
			st.removedSeqs[cand.Seq] = struct{}{}
			st.removed = append(st.removed, cand)
			if st.base != nil {
				st.takes = append(st.takes, overlayRemoval{stored: cand})
			}
		}
		return cand.T, true
	}
	if st.base != nil {
		var hit *OverlayInsert
		st.base.eachVisibleInsert(func(ins *OverlayInsert) bool {
			if tuple.Matches(ins.T, tmpl) {
				hit = ins
				return false
			}
			return true
		})
		if hit != nil {
			if remove {
				// Mark eagerly so later finds in this transaction skip
				// it; AbortTentative un-marks via baseTaken.
				hit.consumed = true
				st.baseTaken = append(st.baseTaken, hit)
				st.takes = append(st.takes, overlayRemoval{base: hit})
			}
			return hit.T, true
		}
	}
	for i, p := range st.inserts {
		if tuple.Matches(p, tmpl) {
			if remove {
				st.inserts = append(st.inserts[:i], st.inserts[i+1:]...)
			}
			return p, true
		}
	}
	return tuple.Tuple{}, false
}

// Out stages the insertion of entry t.
func (st *Staged) Out(t tuple.Tuple) error {
	if !t.IsEntry() {
		return ErrNotEntry
	}
	st.inserts = append(st.inserts, t)
	return nil
}

// Rdp returns the first tuple matching tmpl in the staged view.
func (st *Staged) Rdp(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	return st.find(tmpl, false)
}

// Inp removes and returns the first tuple matching tmpl in the staged
// view. Removal of a stored tuple is staged; removal of a staged insert
// simply un-stages it.
func (st *Staged) Inp(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	return st.find(tmpl, true)
}

// Cas performs the conditional atomic swap against the staged view.
func (st *Staged) Cas(tmpl, t tuple.Tuple) (bool, tuple.Tuple, error) {
	if !t.IsEntry() {
		return false, tuple.Tuple{}, ErrNotEntry
	}
	if m, ok := st.find(tmpl, false); ok {
		return false, m, nil
	}
	st.inserts = append(st.inserts, t)
	return true, tuple.Tuple{}, nil
}

// RdAll returns every tuple matching tmpl in the staged view, in
// insertion order (staged inserts last, in staging order).
func (st *Staged) RdAll(tmpl tuple.Tuple) []tuple.Tuple {
	s := st.tx.s
	var out []tuple.Tuple
	visible := func(cand SeqTuple) bool {
		if !st.isRemoved(cand.Seq) {
			out = append(out, cand.T)
		}
		return true
	}
	if idx, keyed := s.TemplateShard(tmpl); keyed || len(s.shards) == 1 {
		s.shards[idx].store.Scan(tmpl, visible)
	} else {
		for _, cand := range s.findAllLocked(tmpl) {
			visible(cand)
		}
	}
	if st.base != nil {
		st.base.eachVisibleInsert(func(ins *OverlayInsert) bool {
			if tuple.Matches(ins.T, tmpl) {
				out = append(out, ins.T)
			}
			return true
		})
	}
	for _, p := range st.inserts {
		if tuple.Matches(p, tmpl) {
			out = append(out, p)
		}
	}
	return out
}

// Len returns the number of tuples in the staged view.
func (st *Staged) Len() int {
	n := st.tx.Len() - len(st.removed) - len(st.frozen) + len(st.inserts)
	if st.base != nil {
		n -= len(st.base.hidden)
		st.base.eachVisibleInsert(func(*OverlayInsert) bool { n++; return true })
	}
	return n
}

// CountMatching returns how many tuples match tmpl in the staged view.
// It implements policy.StateView, so the reference monitor vets each
// operation of a transaction against the state its predecessors
// produced.
func (st *Staged) CountMatching(tmpl tuple.Tuple) int {
	n := st.tx.CountMatching(tmpl)
	if st.base != nil {
		for _, t := range st.base.hidden {
			if tuple.Matches(t, tmpl) {
				n--
			}
		}
		st.base.eachVisibleInsert(func(ins *OverlayInsert) bool {
			if tuple.Matches(ins.T, tmpl) {
				n++
			}
			return true
		})
	}
	for _, r := range st.removed {
		if tuple.Matches(r.T, tmpl) {
			n--
		}
	}
	for _, r := range st.frozen {
		if tuple.Matches(r.T, tmpl) {
			n--
		}
	}
	for _, p := range st.inserts {
		if tuple.Matches(p, tmpl) {
			n++
		}
	}
	return n
}

// ForEach visits the tuples of the staged view in insertion order until
// fn returns false (policy.StateView).
func (st *Staged) ForEach(fn func(tuple.Tuple) bool) {
	if st.overlayClean() {
		st.tx.s.forEachLocked(fn)
		return
	}
	stopped := false
	st.tx.s.forEachSeqLocked(func(cand SeqTuple) bool {
		if st.isRemoved(cand.Seq) {
			return true
		}
		if !fn(cand.T) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	if st.base != nil {
		st.base.eachVisibleInsert(func(ins *OverlayInsert) bool {
			if !fn(ins.T) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
	for _, p := range st.inserts {
		if !fn(p) {
			return
		}
	}
}

// Effects returns the net mutations the overlay holds: the stored
// tuples staged for removal (in consumption order) and the entries
// staged for insertion (in staging order) — exactly what Commit is
// about to apply, in the order it applies them. The replication
// substrate journals these per executed unit to build incremental
// checkpoints; removals are value-addressed downstream (see
// wire.Delta), which the Commit determinism argument below justifies.
// The returned slices alias the overlay and are only valid until
// Commit.
func (st *Staged) Effects() (removed []SeqTuple, inserted []tuple.Tuple) {
	return st.removed, st.inserts
}

// Commit applies the staged mutations to the space: consumed stored
// tuples are removed and staged inserts are stamped with fresh sequence
// numbers (waking matching waiters), in staging order. Every touched
// shard must be in the transaction's write set. A Staged is spent after
// Commit.
func (st *Staged) Commit() {
	if st.base != nil {
		panic("space: Commit on an overlay-stacked Staged (use CommitTentative)")
	}
	s := st.tx.s
	for _, r := range st.removed {
		// An entry used as a template matches exactly its own value, and
		// identical tuples are consumed in ascending sequence order both
		// here and in the staged view, so Find removes precisely the
		// tuple the overlay consumed.
		sh := st.tx.writableShard(s.EntryShard(r.T))
		if _, _, ok := sh.store.Find(r.T, true); !ok {
			panic("space: staged removal lost its target")
		}
	}
	for _, t := range st.inserts {
		s.insertLocked(st.tx.writableShard(s.EntryShard(t)), t)
	}
	st.removed, st.removedSeqs, st.inserts = nil, nil, nil
}

// CommitTentative folds the staged effects into the base overlay's
// open unit instead of the stores: this transaction's consumptions and
// insertions become part of the tentative state later transactions of
// the same or following units observe, and nothing touches the stores
// until the unit promotes. The Staged is spent afterwards.
func (st *Staged) CommitTentative() {
	if st.base == nil {
		panic("space: CommitTentative without an overlay base")
	}
	st.base.fold(st.takes, st.inserts)
	st.takes, st.baseTaken, st.inserts = nil, nil, nil
	st.removed, st.removedSeqs = nil, nil
}

// AbortTentative discards the staged effects, un-marking the overlay
// inserts this transaction had eagerly consumed so they stay visible.
// The Staged is spent afterwards.
func (st *Staged) AbortTentative() {
	for _, ins := range st.baseTaken {
		ins.consumed = false
	}
	st.takes, st.baseTaken, st.inserts = nil, nil, nil
	st.removed, st.removedSeqs = nil, nil
}
