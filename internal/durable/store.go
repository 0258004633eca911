package durable

import (
	"peats/internal/space"
	"peats/internal/tuple"
)

// Store is the persistent storage engine: the in-memory indexed engine
// for matching, with every mutation journaled into the owning DB's
// write-ahead log. All stores of one space share one DB (one log, one
// group-commit window, one snapshot lineage); the DB's mutex serialises
// journal appends across shards, while matching itself stays under the
// per-shard locks exactly like the indexed engine.
//
// Reads delegate untouched, so the Store concurrency contract (pure
// reads under shared locks) holds exactly as for the inner engine.
type Store struct {
	db    *DB
	inner space.Store
}

var _ space.Store = (*Store)(nil)

// Engine implements space.Store.
func (s *Store) Engine() space.Engine { return space.EngineDurable }

// Insert implements space.Store.
func (s *Store) Insert(t tuple.Tuple, seq uint64) {
	s.inner.Insert(t, seq)
	s.db.recordInsert(t, seq)
}

// InsertBatch implements space.Store. The whole batch is journaled as
// one atomic unit.
func (s *Store) InsertBatch(ts []space.SeqTuple) {
	s.inner.InsertBatch(ts)
	s.db.recordInsertBatch(ts)
}

// Find implements space.Store; a removal is journaled by sequence
// number.
func (s *Store) Find(tmpl tuple.Tuple, remove bool) (tuple.Tuple, uint64, bool) {
	t, seq, ok := s.inner.Find(tmpl, remove)
	if ok && remove {
		s.db.recordRemove(seq)
	}
	return t, seq, ok
}

// Scan implements space.Store.
func (s *Store) Scan(tmpl tuple.Tuple, fn func(space.SeqTuple) bool) { s.inner.Scan(tmpl, fn) }

// Len implements space.Store.
func (s *Store) Len() int { return s.inner.Len() }

// ForEach implements space.Store.
func (s *Store) ForEach(fn func(t tuple.Tuple, seq uint64) bool) { s.inner.ForEach(fn) }

// Iter implements space.Store.
func (s *Store) Iter() func() (space.SeqTuple, bool) { return s.inner.Iter() }

// Snapshot implements space.Store.
func (s *Store) Snapshot() []space.SeqTuple { return s.inner.Snapshot() }

// Reset implements space.Store: the discard of this shard's contents is
// journaled as one atomic unit of removals.
func (s *Store) Reset() {
	var seqs []uint64
	s.inner.ForEach(func(_ tuple.Tuple, seq uint64) bool {
		seqs = append(seqs, seq)
		return true
	})
	s.inner.Reset()
	s.db.recordReset(seqs)
}
