package space

import "peats/internal/tuple"

// SliceStore is the reference storage engine: insertion order is the
// physical order of a flat slice, and every lookup is a linear scan.
// It is deliberately the simplest possible realisation of the Store
// determinism contract; the indexed engine is tested for observational
// equivalence against it.
type SliceStore struct {
	recs []SeqTuple
}

var _ Store = (*SliceStore)(nil)

// NewSliceStore returns an empty slice store.
func NewSliceStore() *SliceStore {
	return &SliceStore{}
}

// Engine implements Store.
func (s *SliceStore) Engine() Engine { return EngineSlice }

// Insert implements Store.
func (s *SliceStore) Insert(t tuple.Tuple, seq uint64) {
	s.recs = append(s.recs, SeqTuple{Seq: seq, T: t})
}

// InsertBatch implements Store.
func (s *SliceStore) InsertBatch(ts []SeqTuple) {
	s.recs = append(s.recs, ts...)
}

// Find implements Store.
func (s *SliceStore) Find(tmpl tuple.Tuple, remove bool) (tuple.Tuple, uint64, bool) {
	for i, r := range s.recs {
		if tuple.Matches(r.T, tmpl) {
			if remove {
				s.recs = append(s.recs[:i], s.recs[i+1:]...)
			}
			return r.T, r.Seq, true
		}
	}
	return tuple.Tuple{}, 0, false
}

// Scan implements Store.
func (s *SliceStore) Scan(tmpl tuple.Tuple, fn func(SeqTuple) bool) {
	for _, r := range s.recs {
		if tuple.Matches(r.T, tmpl) && !fn(r) {
			return
		}
	}
}

// Len implements Store.
func (s *SliceStore) Len() int { return len(s.recs) }

// ForEach implements Store.
func (s *SliceStore) ForEach(fn func(t tuple.Tuple, seq uint64) bool) {
	for _, r := range s.recs {
		if !fn(r.T, r.Seq) {
			return
		}
	}
}

// Iter implements Store.
func (s *SliceStore) Iter() func() (SeqTuple, bool) {
	i := 0
	return func() (SeqTuple, bool) {
		if i >= len(s.recs) {
			return SeqTuple{}, false
		}
		r := s.recs[i]
		i++
		return r, true
	}
}

// Snapshot implements Store.
func (s *SliceStore) Snapshot() []SeqTuple {
	cp := make([]SeqTuple, len(s.recs))
	copy(cp, s.recs)
	return cp
}

// Reset implements Store.
func (s *SliceStore) Reset() { s.recs = s.recs[:0] }
