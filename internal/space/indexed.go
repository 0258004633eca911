package space

import "peats/internal/tuple"

// IndexedStore is the production storage engine. It indexes on two
// levels. Tuples are bucketed by arity and, within an arity, hashed on
// the canonical key of their first field. Every object in this
// repository addresses its tuples as <TAG, key, ?x> — <LOCK, name,
// ?holder>, <SEQ, pos, ?inv>, <PROPOSE, pid, ?v> — so one first-field
// list can hold an object's whole state; once such a list outgrows
// subIndexMin its records are additionally posted under the key of each
// later field, and a lookup walks the shortest list among those its
// template's defined fields select. Shared-tag templates then match in
// O(matches) instead of O(tag), while unique-first-field tuples (lists
// of length one) never build or consult a second level.
//
// Insertion order is preserved through the space-assigned sequence
// numbers: each record carries the seq it was inserted with, and every
// index list — first-field or posting — is append-only and therefore
// seq-sorted. A lookup scans exactly one candidate list in seq order,
// and every list a template's defined fields select holds all of its
// matches, so the first full match it encounters is the first match in
// insertion order — the same tuple the reference SliceStore returns.
// Key collisions only add skipped candidates, never reordered ones, so
// the determinism contract of Store holds and the space remains a
// deterministic state machine for the BFT substrate.
//
// Removal marks records dead in place (O(1)) and the store compacts
// all index structures once at least half the records are dead, keeping
// amortised cost per operation constant. Removal scans additionally
// trim dead records from the head of the list they walked, so
// queue-like workloads (out/in on one key) do not accumulate tombstones
// in their hot list. Pure reads (Find with remove=false, Scan, ForEach,
// Iter, Snapshot) never mutate anything — the Store concurrency
// contract — so the sharded space can run them under shared locks; the
// second level is built by writers only (Insert, InsertBatch,
// compaction).
type IndexedStore struct {
	live    int
	order   []*irec // global insertion (seq) order; may contain dead records
	buckets map[int]*arityBucket
}

// irec is one stored tuple plus its bookkeeping. The same record is
// shared by the global order list and the per-arity index lists, so
// marking it dead is visible everywhere at once.
type irec struct {
	seq  uint64
	t    tuple.Tuple
	dead bool
}

// arityBucket indexes the records of one arity.
type arityBucket struct {
	live  int
	all   []*irec            // seq order; for templates with an undefined first field
	byKey map[string]keyList // first-field key → its records
}

// keyList holds the records sharing one first-field key.
type keyList struct {
	recs []*irec // seq order
	// sub is the second index level, nil while recs has never outgrown
	// subIndexMin: the posting list, in seq order, of every later field
	// value a record of recs carries.
	sub map[posting][]*irec
}

// posting names one posting list of a keyList: the records whose field
// pos (1 ≤ pos < arity) has the canonical key.
type posting struct {
	pos int
	key string
}

var _ Store = (*IndexedStore)(nil)

const (
	// compactMin is the order-list length below which compaction is not
	// worth the rebuild.
	compactMin = 32
	// subIndexMin is the first-field list length up to which a linear
	// walk beats hashing more fields: longer lists get the second index
	// level, and a lookup that has found a list this short stops looking
	// for a shorter one.
	subIndexMin = 8
)

// NewIndexedStore returns an empty indexed store.
func NewIndexedStore() *IndexedStore {
	return &IndexedStore{buckets: make(map[int]*arityBucket)}
}

// Engine implements Store.
func (s *IndexedStore) Engine() Engine { return EngineIndexed }

// Insert implements Store.
func (s *IndexedStore) Insert(t tuple.Tuple, seq uint64) {
	r := &irec{seq: seq, t: t}
	s.order = append(s.order, r)
	s.index(r)
	s.live++
}

// InsertBatch implements Store. Records for the whole batch share one
// backing allocation and the order list grows once, so index building
// on large snapshots (Restore, checkpoint install) is amortized across
// the batch instead of paying per-tuple allocation and growth.
func (s *IndexedStore) InsertBatch(ts []SeqTuple) {
	if len(ts) == 0 {
		return
	}
	recs := make([]irec, len(ts))
	if need := len(s.order) + len(ts); cap(s.order) < need {
		grown := make([]*irec, len(s.order), need)
		copy(grown, s.order)
		s.order = grown
	}
	for i, st := range ts {
		r := &recs[i]
		r.seq = st.Seq
		r.t = st.T
		s.order = append(s.order, r)
		s.index(r)
	}
	s.live += len(ts)
}

// index files r into its arity bucket. Tuples whose first field is
// undefined (non-entries installed by Restore) get no key entry; they
// can never match a template, so keyed lookups may skip them.
func (s *IndexedStore) index(r *irec) {
	arity := r.t.Arity()
	b := s.buckets[arity]
	if b == nil {
		b = &arityBucket{byKey: make(map[string]keyList)}
		s.buckets[arity] = b
	}
	b.all = append(b.all, r)
	b.live++
	key, ok := r.t.Field(0).MatchKey()
	if !ok {
		return
	}
	kl := b.byKey[key]
	kl.recs = append(kl.recs, r)
	switch {
	case kl.sub != nil:
		kl.post(r)
	case len(kl.recs) > subIndexMin && arity > 1:
		kl.sub = make(map[posting][]*irec)
		for _, old := range kl.recs {
			if !old.dead {
				kl.post(old)
			}
		}
	}
	b.byKey[key] = kl
}

// post appends r to the posting list of each of its later fields. An
// undefined field (a non-entry) has no key and is not posted: no
// template matches the record anyway.
func (kl *keyList) post(r *irec) {
	for pos := 1; pos < r.t.Arity(); pos++ {
		if key, ok := r.t.Field(pos).MatchKey(); ok {
			at := posting{pos, key}
			kl.sub[at] = append(kl.sub[at], r)
		}
	}
}

// candidates returns a list that holds every possible match for tmpl,
// in seq order, and where it is filed so a removal can store the
// trimmed list back: the whole arity bucket (key "") when the
// template's first field is undefined, else the first-field list of key
// (at.pos 0) or, where that list is sub-indexed, the shortest posting
// list among the template's other defined fields. A nil bucket means
// nothing can match.
func (s *IndexedStore) candidates(tmpl tuple.Tuple) (list []*irec, b *arityBucket, key string, at posting) {
	b = s.buckets[tmpl.Arity()]
	if b == nil || b.live == 0 {
		return nil, nil, "", at
	}
	key, ok := tmpl.Field(0).MatchKey()
	if !ok {
		return b.all, b, "", at
	}
	kl := b.byKey[key]
	list = kl.recs
	if kl.sub == nil {
		return list, b, key, at
	}
	for pos := 1; pos < tmpl.Arity() && len(list) > subIndexMin; pos++ {
		if pkey, ok := tmpl.Field(pos).MatchKey(); ok {
			if l := kl.sub[posting{pos, pkey}]; len(l) < len(list) {
				list, at = l, posting{pos, pkey}
			}
		}
	}
	return list, b, key, at
}

// putBack files the head-trimmed list back where candidates found it,
// dropping the map entry of a list trimmed to nothing.
func (b *arityBucket) putBack(key string, at posting, kept []*irec) {
	switch {
	case key == "":
		b.all = kept
	case at.pos == 0 && len(kept) == 0:
		delete(b.byKey, key)
	case at.pos == 0:
		kl := b.byKey[key]
		kl.recs = kept
		b.byKey[key] = kl
	case len(kept) == 0:
		delete(b.byKey[key].sub, at)
	default:
		b.byKey[key].sub[at] = kept
	}
}

// Find implements Store. The remove=false path is a pure scan — no
// trimming, no compaction — per the Store concurrency contract.
func (s *IndexedStore) Find(tmpl tuple.Tuple, remove bool) (tuple.Tuple, uint64, bool) {
	list, b, key, at := s.candidates(tmpl)
	if !remove {
		for _, r := range list {
			if !r.dead && tuple.Matches(r.t, tmpl) {
				return r.t, r.seq, true
			}
		}
		return tuple.Tuple{}, 0, false
	}
	kept, t, seq, ok := s.remove(list, tmpl)
	if len(kept) != len(list) { // trimmed, so the list exists and so does b
		b.putBack(key, at, kept)
	}
	if ok {
		s.maybeCompact()
	}
	return t, seq, ok
}

// remove walks list in seq order for the first record matching tmpl and
// marks it dead. It returns the list with any contiguous dead head
// trimmed off.
func (s *IndexedStore) remove(list []*irec, tmpl tuple.Tuple) (kept []*irec, t tuple.Tuple, seq uint64, ok bool) {
	head := 0
	for i, r := range list {
		if r.dead {
			if i == head {
				head++
			}
			continue
		}
		if !tuple.Matches(r.t, tmpl) {
			continue
		}
		t, seq = r.t, r.seq
		r.dead = true
		// Release the tuple immediately: records can share a
		// batch-allocated backing array (InsertBatch), so a dead
		// record must not pin its payload until the whole batch
		// compacts away.
		r.t = tuple.Tuple{}
		s.live--
		s.buckets[t.Arity()].live--
		if i == head {
			head++
		}
		return list[head:], t, seq, true
	}
	return list[head:], tuple.Tuple{}, 0, false
}

// Scan implements Store.
func (s *IndexedStore) Scan(tmpl tuple.Tuple, fn func(SeqTuple) bool) {
	list, _, _, _ := s.candidates(tmpl)
	for _, r := range list {
		if !r.dead && tuple.Matches(r.t, tmpl) && !fn(SeqTuple{Seq: r.seq, T: r.t}) {
			return
		}
	}
}

// Len implements Store.
func (s *IndexedStore) Len() int { return s.live }

// ForEach implements Store.
func (s *IndexedStore) ForEach(fn func(t tuple.Tuple, seq uint64) bool) {
	for _, r := range s.order {
		if r.dead {
			continue
		}
		if !fn(r.t, r.seq) {
			return
		}
	}
}

// Iter implements Store.
func (s *IndexedStore) Iter() func() (SeqTuple, bool) {
	i := 0
	return func() (SeqTuple, bool) {
		for i < len(s.order) {
			r := s.order[i]
			i++
			if !r.dead {
				return SeqTuple{Seq: r.seq, T: r.t}, true
			}
		}
		return SeqTuple{}, false
	}
}

// Snapshot implements Store.
func (s *IndexedStore) Snapshot() []SeqTuple {
	cp := make([]SeqTuple, 0, s.live)
	for _, r := range s.order {
		if !r.dead {
			cp = append(cp, SeqTuple{Seq: r.seq, T: r.t})
		}
	}
	return cp
}

// Reset implements Store.
func (s *IndexedStore) Reset() {
	s.live = 0
	s.order = nil
	s.buckets = make(map[int]*arityBucket)
}

// maybeCompact rebuilds every index structure without the dead records
// once they outnumber the live ones. Relative seq order is preserved,
// so observable behaviour is unchanged.
func (s *IndexedStore) maybeCompact() {
	if len(s.order) < compactMin || s.live*2 >= len(s.order) {
		return
	}
	order := make([]*irec, 0, s.live)
	for _, r := range s.order {
		if !r.dead {
			order = append(order, r)
		}
	}
	s.order = order
	s.buckets = make(map[int]*arityBucket)
	for _, r := range order {
		s.index(r)
	}
}
