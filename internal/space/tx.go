package space

import (
	"fmt"

	"peats/internal/tuple"
)

// ShardSet is a set of shard indices, used to scope a transaction's
// write locks. The zero value is empty (a pure-read transaction).
type ShardSet struct {
	mask uint64
}

// Add includes shard i in the set.
func (ss *ShardSet) Add(i int) { ss.mask |= 1 << uint(i) }

// AddAll includes every shard.
func (ss *ShardSet) AddAll() { ss.mask = ^uint64(0) }

// Has reports whether shard i is in the set.
func (ss ShardSet) Has(i int) bool { return ss.mask&(1<<uint(i)) != 0 }

// Empty reports whether no shard is in the set.
func (ss ShardSet) Empty() bool { return ss.mask == 0 }

// Tx is a view of the space inside an atomic section opened with Do,
// DoScoped or DoRead. It exposes the non-blocking operations without
// re-acquiring locks, so a caller can evaluate a policy predicate and
// execute the guarded operation as one indivisible step — exactly what
// the replicated realisation gets for free from sequential execution.
//
// A Tx is only valid during the callback; retaining it is a bug.
type Tx struct {
	s        *Space
	writable ShardSet
}

// Do runs fn while holding every shard's write lock — the
// whole-space critical section. fn must not call methods on the Space
// itself (only on the Tx) and must not block.
func (s *Space) Do(fn func(tx *Tx)) {
	s.mDo.Inc()
	s.lockAll()
	defer s.unlockAll()
	var all ShardSet
	all.AddAll()
	fn(&Tx{s: s, writable: all})
}

// DoRead runs fn while holding every shard's read lock: fn sees an
// atomic snapshot of the whole space and runs concurrently with other
// DoRead sections and with single-shard operations elsewhere. The Tx's
// mutating methods panic — this is the read-only fast path of the
// replication substrate.
func (s *Space) DoRead(fn func(tx *Tx)) {
	s.mDoRead.Inc()
	s.rlockAll()
	defer s.runlockAll()
	fn(&Tx{s: s})
}

// DoScoped runs fn holding write locks on the shards in writes and
// read locks on every other shard (acquired in ascending order, so
// scoped sections never deadlock). fn observes an atomic snapshot of
// the whole space but may only mutate the shards in writes; it runs
// concurrently with scoped sections writing disjoint shards and with
// DoRead sections not touching its write shards.
//
// Callers compute writes from the operations they are about to
// execute (EntryShard/TemplateShard); a mutation outside the declared
// set is a caller bug and panics.
func (s *Space) DoScoped(writes ShardSet, fn func(tx *Tx)) {
	s.mDoScoped.Inc()
	for i, sh := range s.shards {
		if writes.Has(i) {
			sh.mu.Lock()
		} else {
			sh.mu.RLock()
		}
	}
	defer func() {
		for i, sh := range s.shards {
			if writes.Has(i) {
				sh.mu.Unlock()
			} else {
				sh.mu.RUnlock()
			}
		}
	}()
	fn(&Tx{s: s, writable: writes})
}

// writableShard returns the shard at index i, panicking if the
// transaction did not write-lock it.
func (tx *Tx) writableShard(i int) *shard {
	if !tx.writable.Has(i) {
		panic(fmt.Sprintf("space: write to shard %d outside transaction write set", i))
	}
	return tx.s.shards[i]
}

// Out inserts entry t (see Space.Out). The entry's shard must be in
// the transaction's write set.
func (tx *Tx) Out(t tuple.Tuple) error {
	if !t.IsEntry() {
		return ErrNotEntry
	}
	tx.s.insertLocked(tx.writableShard(tx.s.EntryShard(t)), t)
	return nil
}

// Rdp returns the first tuple matching tmpl (see Space.Rdp).
func (tx *Tx) Rdp(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	return tx.s.peekLocked(tmpl)
}

// Inp removes and returns the first tuple matching tmpl (see
// Space.Inp). The shards tmpl routes to must be in the write set.
func (tx *Tx) Inp(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	if idx, keyed := tx.s.TemplateShard(tmpl); keyed {
		t, _, ok := tx.writableShard(idx).store.Find(tmpl, true)
		return t, ok
	}
	if t, ok := tx.s.peekLocked(tmpl); !ok {
		return t, false
	}
	// A wildcard-first destructive read may remove from any shard, so
	// the whole set must have been declared writable.
	for i := range tx.s.shards {
		tx.writableShard(i)
	}
	return tx.s.takeLocked(tmpl)
}

// Cas performs the conditional atomic swap (see Space.Cas). The
// entry's shard must be in the write set; the template peek reads any
// shard.
func (tx *Tx) Cas(tmpl, t tuple.Tuple) (bool, tuple.Tuple, error) {
	if !t.IsEntry() {
		return false, tuple.Tuple{}, ErrNotEntry
	}
	if m, ok := tx.s.peekLocked(tmpl); ok {
		return false, m, nil
	}
	tx.s.insertLocked(tx.writableShard(tx.s.EntryShard(t)), t)
	return true, tuple.Tuple{}, nil
}

// RdAll returns every stored tuple matching tmpl (see Space.RdAll).
func (tx *Tx) RdAll(tmpl tuple.Tuple) []tuple.Tuple {
	return stripSeqs(tx.s.findAllLocked(tmpl))
}

// Len returns the number of stored tuples.
func (tx *Tx) Len() int { return tx.s.lenLocked() }

// CountMatching returns how many stored tuples match tmpl.
func (tx *Tx) CountMatching(tmpl tuple.Tuple) int {
	return tx.s.countLocked(tmpl)
}

// ForEach visits stored tuples in insertion order until fn returns false.
func (tx *Tx) ForEach(fn func(tuple.Tuple) bool) {
	tx.s.forEachLocked(fn)
}
