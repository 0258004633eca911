// Package space implements a linearizable augmented tuple space.
//
// The space provides the three LINDA operations out (write), rd
// (non-destructive read) and in (destructive read), their non-blocking
// variants rdp and inp, and the conditional atomic swap cas(t̄, t) of
// Segall and Bakken-Schlichting: atomically, "if reading template t̄
// fails, insert entry t". cas gives the space consensus number n, which
// makes it a universal object.
//
// # Sharded concurrency architecture
//
// The space is partitioned into N shards (1 ≤ N ≤ MaxShards), each
// owning its own Store instance, its own sync.RWMutex, and its own
// waiter registrations. A tuple routes to a shard by a hash of its
// arity and the canonical key of its first field; a template whose
// first field is defined routes the same way (any entry it can match
// shares that arity and key, hence that shard), while a template whose
// first field is undefined consults every shard and merges.
//
// Every operation still takes effect atomically — its critical section
// holds the locks of every shard it can observe or mutate, acquired in
// ascending shard order (deadlock-free by lock hierarchy) — which
// directly yields linearizability exactly as the old single-mutex
// design did. What changes is the granularity: operations on different
// shards, and read-only operations on any shard, proceed in parallel.
//
// Determinism is preserved through a space-wide monotonic sequence
// number stamped on every insert. Per-shard stores keep their records
// seq-sorted, and cross-shard results (Find on wildcard-first
// templates, FindAll, ForEach, Snapshot) merge by sequence number, so
// a sharded space fed the same call sequence is observationally
// identical to the single-shard — and ultimately the flat-slice
// reference — space. That equivalence is correctness, not style: the
// space is the deterministic state machine of the BFT
// state-machine-replication substrate (paper §4), and it is pinned by
// the randomized parity suite in parity_test.go at several shard
// counts.
//
// # Storage engines
//
// Tuple storage is pluggable behind the Store interface. Two engines
// are provided: the slice store (EngineSlice), a linear-scan reference
// model, and the indexed store (EngineIndexed, the default), which
// buckets tuples by arity and hashes on the first defined field. New
// selects the default engine with one shard; NewWithEngine,
// NewWithStore and NewSharded select explicitly.
//
// Blocked rd/in callers are parked on waiters indexed by template
// arity on the shard(s) their template routes to, so an insert only
// consults waiters that could possibly match. A wildcard-first
// template registers on every shard; the first delivery wins the
// waiter's claim and the remaining registrations are dropped.
package space

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"peats/internal/metrics"
	"peats/internal/tuple"
)

// ErrNotEntry is returned when out or cas is given a tuple with
// undefined fields where an entry is required.
var ErrNotEntry = errors.New("space: tuple is not an entry")

// MaxShards bounds the shard count so shard sets fit a 64-bit mask.
const MaxShards = 64

// Space is a linearizable augmented tuple space partitioned into
// shards, each backed by its own pluggable Store engine instance.
type Space struct {
	seq    atomic.Uint64 // space-wide insertion sequence number
	reg    atomic.Uint64 // waiter registration order, for Restore wakes
	engine Engine
	shards []*shard

	// blockedWaiters counts parked blocking rd/in calls; maintained
	// unconditionally (one atomic add per park and unpark) so the
	// gauge needs no lock at scrape time.
	blockedWaiters atomic.Int64
	// Lock-class counters, nil until EnableMetrics; nil handles no-op.
	mDo       *metrics.Counter
	mDoRead   *metrics.Counter
	mDoScoped *metrics.Counter
}

// shard is one partition: a store plus the waiters whose templates
// route here. Both are guarded by mu; pure reads take it shared.
type shard struct {
	mu      sync.RWMutex
	store   Store
	waiters map[int][]*waiter // template arity → registration order
}

// waiter is a parked blocking rd/in call. A waiter registered on
// several shards (wildcard-first template) is served at most once:
// deliverers race on the claimed flag, and the loser leaves the tuple
// alone. The owner claims it itself to cancel.
type waiter struct {
	tmpl    tuple.Tuple
	remove  bool   // in (true) vs rd (false)
	reg     uint64 // global registration order
	claimed atomic.Bool
	matched chan tuple.Tuple // buffered 1; sent by the claiming deliverer
}

// New returns an empty single-shard space backed by the default store
// engine.
func New() *Space {
	return NewWithStore(NewIndexedStore())
}

// NewWithEngine returns an empty single-shard space backed by the named
// engine.
func NewWithEngine(e Engine) (*Space, error) {
	return NewSharded(e, 1)
}

// NewSharded returns an empty space with n shards, each backed by its
// own store of the named engine. n must be in [1, MaxShards]. A
// sharded space is observationally identical to a single-shard one;
// the shard count only affects how much of the space concurrent
// operations lock.
func NewSharded(e Engine, n int) (*Space, error) {
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("space: shard count %d out of range [1, %d]", n, MaxShards)
	}
	shards := make([]*shard, n)
	for i := range shards {
		st, err := NewStore(e)
		if err != nil {
			return nil, err
		}
		shards[i] = &shard{store: st, waiters: make(map[int][]*waiter)}
	}
	sp := &Space{shards: shards, engine: shards[0].store.Engine()}
	return sp, nil
}

// NewWithStore returns an empty single-shard space backed by the given
// store. The store must not be shared with another space or touched
// directly afterwards.
func NewWithStore(st Store) *Space {
	return &Space{
		engine: st.Engine(),
		shards: []*shard{{store: st, waiters: make(map[int][]*waiter)}},
	}
}

// NewShardedFactory returns an empty space with n shards whose stores
// come from mk (called once per shard, in shard order). It is the
// construction hook for engines NewStore cannot build on its own —
// the durable engine hands out stores bound to one shared write-ahead
// log this way. The stores must be fresh and not shared with another
// space.
func NewShardedFactory(n int, mk func(shard int) (Store, error)) (*Space, error) {
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("space: shard count %d out of range [1, %d]", n, MaxShards)
	}
	shards := make([]*shard, n)
	for i := range shards {
		st, err := mk(i)
		if err != nil {
			return nil, err
		}
		shards[i] = &shard{store: st, waiters: make(map[int][]*waiter)}
	}
	return &Space{shards: shards, engine: shards[0].store.Engine()}, nil
}

// Install is the crash-recovery hook: it loads recovered records into
// an empty space verbatim, preserving their original sequence numbers,
// and advances the space-wide sequence counter past them. Unlike
// Restore — which re-stamps a snapshot with fresh numbers — Install
// keeps the numbering a write-ahead log recorded, so log records that
// address tuples by sequence number stay meaningful across restarts.
// recs must be seq-sorted (the order a recovery produces); the space
// must not have been used yet.
func (s *Space) Install(recs []SeqTuple) error {
	s.lockAll()
	defer s.unlockAll()
	if s.lenLocked() != 0 || s.seq.Load() != 0 {
		return errors.New("space: Install on a non-empty space")
	}
	per := make([][]SeqTuple, len(s.shards))
	var maxSeq uint64
	for _, r := range recs {
		if r.Seq <= maxSeq {
			return fmt.Errorf("space: Install records not strictly seq-sorted at %d", r.Seq)
		}
		maxSeq = r.Seq
		i := s.EntryShard(r.T)
		per[i] = append(per[i], r)
	}
	for i, sh := range s.shards {
		sh.store.InsertBatch(per[i])
	}
	s.seq.Store(maxSeq)
	return nil
}

// Engine returns the engine of the backing stores.
func (s *Space) Engine() Engine { return s.engine }

// Shards returns the number of shards the space is partitioned into.
func (s *Space) Shards() int { return len(s.shards) }

// RouteIndex routes an (arity, first-field key) pair to one of n
// buckets with an FNV-1a hash — stable across processes, so every
// replica of a cluster routes identically. It is the canonical
// placement rule of the system, shared by the intra-process shard
// layer and the multi-group partitioned deployment: both split the
// tuple space along the same function, at different scales.
func RouteIndex(arity int, key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	h = (h ^ uint32(arity)) * 16777619
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(n))
}

// RouteEntry returns the bucket among n that entry t routes to.
func RouteEntry(t tuple.Tuple, n int) int {
	key, _ := t.Field(0).MatchKey()
	return RouteIndex(t.Arity(), key, n)
}

// RouteTemplate returns the single bucket among n that can hold
// matches for tmpl and keyed=true when tmpl's first field is defined;
// keyed=false means every bucket must be consulted.
func RouteTemplate(tmpl tuple.Tuple, n int) (int, bool) {
	if key, ok := tmpl.Field(0).MatchKey(); ok {
		return RouteIndex(tmpl.Arity(), key, n), true
	}
	return 0, false
}

// shardIndex routes an (arity, first-field key) pair to a shard.
func (s *Space) shardIndex(arity int, key string) int {
	return RouteIndex(arity, key, len(s.shards))
}

// EntryShard returns the shard index entry t routes to: a hash of its
// arity and first-field key. Non-entries (possible only via hostile
// snapshots) route by arity alone; they can never match a template, so
// any deterministic placement works.
func (s *Space) EntryShard(t tuple.Tuple) int {
	key, _ := t.Field(0).MatchKey()
	return s.shardIndex(t.Arity(), key)
}

// TemplateShard returns the single shard that holds every possible
// match for tmpl and keyed=true when tmpl's first field is defined
// (any matching entry shares its arity and first-field key). It
// returns keyed=false when the first field is a wildcard or formal, in
// which case every shard must be consulted.
func (s *Space) TemplateShard(tmpl tuple.Tuple) (int, bool) {
	if key, ok := tmpl.Field(0).MatchKey(); ok {
		return s.shardIndex(tmpl.Arity(), key), true
	}
	return 0, false
}

// Lock-order discipline: every multi-shard critical section acquires
// shard locks in ascending index order, mixing write and read modes
// freely. Any wait-for cycle would need some goroutine to wait on an
// index no greater than one it holds, which ascending acquisition
// forbids — so the space is deadlock-free by hierarchy.

func (s *Space) lockAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *Space) unlockAll() {
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

func (s *Space) rlockAll() {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
}

func (s *Space) runlockAll() {
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
}

// Len returns the number of tuples currently stored.
func (s *Space) Len() int {
	s.rlockAll()
	defer s.runlockAll()
	return s.lenLocked()
}

func (s *Space) lenLocked() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.store.Len()
	}
	return n
}

// BitSize returns the total payload bits stored, for the memory
// accounting experiments.
func (s *Space) BitSize() int {
	s.rlockAll()
	defer s.runlockAll()
	total := 0
	for _, sh := range s.shards {
		sh.store.ForEach(func(t tuple.Tuple, _ uint64) bool {
			total += t.BitSize()
			return true
		})
	}
	return total
}

// Out inserts entry t into the space, waking any waiter whose template
// matches it. Only t's shard is locked.
func (s *Space) Out(t tuple.Tuple) error {
	if !t.IsEntry() {
		return fmt.Errorf("%w: %v", ErrNotEntry, t)
	}
	sh := s.shards[s.EntryShard(t)]
	sh.mu.Lock()
	s.insertLocked(sh, t)
	sh.mu.Unlock()
	return nil
}

// insertLocked adds t to sh (which must be write-locked), first
// offering it to matching waiters registered there.
func (s *Space) insertLocked(sh *shard, t tuple.Tuple) {
	if sh.deliver(t) {
		return
	}
	sh.store.Insert(t, s.seq.Add(1))
}

// deliver hands t to parked waiters of the matching arity, in
// registration order, removing every served (or stale) waiter from the
// shard's index. It reports whether a destructive waiter consumed the
// tuple. The caller holds sh.mu exclusively.
//
// All matching non-destructive (rd) waiters observe the tuple; the
// first matching destructive (in) waiter consumes it, in which case
// the tuple is never stored. Waiters registered on several shards are
// guarded by their claimed flag: only the winner of the claim is
// served here, and a waiter already claimed elsewhere (or cancelled)
// is dropped from the list.
func (sh *shard) deliver(t tuple.Tuple) (consumed bool) {
	arity := t.Arity()
	list := sh.waiters[arity]
	if len(list) == 0 {
		return false
	}
	kept := list[:0]
	for _, w := range list {
		if w.claimed.Load() {
			continue // served on another shard, or cancelled: drop
		}
		if !tuple.Matches(t, w.tmpl) || (w.remove && consumed) {
			kept = append(kept, w)
			continue
		}
		if !w.claimed.CompareAndSwap(false, true) {
			continue // lost the claim race while we looked: drop
		}
		if w.remove {
			consumed = true
		}
		w.matched <- t
	}
	sh.setWaiters(arity, kept)
	return consumed
}

// setWaiters stores the waiter list for an arity, dropping the bucket
// entirely when it empties so served waiters never linger.
func (sh *shard) setWaiters(arity int, list []*waiter) {
	if len(list) == 0 {
		delete(sh.waiters, arity)
		return
	}
	sh.waiters[arity] = list
}

// peekLocked returns the earliest match for tmpl across every shard the
// template routes to, by merged sequence number, without removing it.
// The caller holds (at least) read locks on those shards.
func (s *Space) peekLocked(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	if idx, keyed := s.TemplateShard(tmpl); keyed || len(s.shards) == 1 {
		t, _, ok := s.shards[idx].store.Find(tmpl, false)
		return t, ok
	}
	var (
		bestT   tuple.Tuple
		bestSeq uint64
		found   bool
	)
	for _, sh := range s.shards {
		if t, seq, ok := sh.store.Find(tmpl, false); ok && (!found || seq < bestSeq) {
			bestT, bestSeq, found = t, seq, true
		}
	}
	return bestT, found
}

// takeLocked removes and returns the earliest match for tmpl across
// every shard the template routes to. The caller holds write locks on
// those shards.
func (s *Space) takeLocked(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	if idx, keyed := s.TemplateShard(tmpl); keyed || len(s.shards) == 1 {
		t, _, ok := s.shards[idx].store.Find(tmpl, true)
		return t, ok
	}
	best, found := -1, false
	var bestSeq uint64
	for i, sh := range s.shards {
		if _, seq, ok := sh.store.Find(tmpl, false); ok && (!found || seq < bestSeq) {
			best, bestSeq, found = i, seq, true
		}
	}
	if !found {
		return tuple.Tuple{}, false
	}
	t, _, _ := s.shards[best].store.Find(tmpl, true)
	return t, true
}

// Rdp performs a non-blocking non-destructive read: it returns the first
// tuple (in insertion order) matching template tmpl, or ok=false if none
// matches. A keyed template takes one shard's read lock; a
// wildcard-first template takes every shard's.
func (s *Space) Rdp(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	if idx, keyed := s.TemplateShard(tmpl); keyed {
		sh := s.shards[idx]
		sh.mu.RLock()
		t, _, ok := sh.store.Find(tmpl, false)
		sh.mu.RUnlock()
		return t, ok
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.peekLocked(tmpl)
}

// Inp performs a non-blocking destructive read: like Rdp but the matched
// tuple is removed from the space.
func (s *Space) Inp(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	if idx, keyed := s.TemplateShard(tmpl); keyed {
		sh := s.shards[idx]
		sh.mu.Lock()
		t, _, ok := sh.store.Find(tmpl, true)
		sh.mu.Unlock()
		return t, ok
	}
	s.lockAll()
	defer s.unlockAll()
	return s.takeLocked(tmpl)
}

// Rd performs a blocking non-destructive read: it waits until a tuple
// matching tmpl is present and returns it. It returns ctx.Err() if the
// context is cancelled first.
func (s *Space) Rd(ctx context.Context, tmpl tuple.Tuple) (tuple.Tuple, error) {
	return s.blocking(ctx, tmpl, false)
}

// In performs a blocking destructive read: it waits until a tuple
// matching tmpl is present, removes it, and returns it.
func (s *Space) In(ctx context.Context, tmpl tuple.Tuple) (tuple.Tuple, error) {
	return s.blocking(ctx, tmpl, true)
}

func (s *Space) blocking(ctx context.Context, tmpl tuple.Tuple, remove bool) (tuple.Tuple, error) {
	idx, keyed := s.TemplateShard(tmpl)
	// A non-destructive waiter registered on several shards treats
	// delivery as a wake hint and re-reads the earliest match by
	// space-wide insertion order: the delivering insert may have raced
	// with an insert on another shard that drew a smaller sequence
	// number, and handing over the delivered tuple directly would let
	// the rd observe the later tuple while Rdp observes the earlier
	// one — a non-linearizable pair. Destructive waiters keep the
	// direct handoff: the consumed tuple was never stored, so no other
	// observation can contradict its position.
	hintOnly := !keyed && !remove && len(s.shards) > 1
	for {
		w := &waiter{
			tmpl:    tmpl,
			remove:  remove,
			reg:     s.reg.Add(1),
			matched: make(chan tuple.Tuple, 1),
		}
		// Check-and-register atomically under the locks of every shard
		// the template routes to: a matching insert either happened
		// before (we find it now) or serialises after our registration
		// on its shard.
		if keyed {
			sh := s.shards[idx]
			sh.mu.Lock()
			if t, _, ok := sh.store.Find(tmpl, remove); ok {
				sh.mu.Unlock()
				return t, nil
			}
			sh.waiters[tmpl.Arity()] = append(sh.waiters[tmpl.Arity()], w)
			sh.mu.Unlock()
			s.blockedWaiters.Add(1)
		} else {
			s.lockAll()
			var (
				t  tuple.Tuple
				ok bool
			)
			if remove {
				t, ok = s.takeLocked(tmpl)
			} else {
				t, ok = s.peekLocked(tmpl)
			}
			if ok {
				s.unlockAll()
				return t, nil
			}
			for _, sh := range s.shards {
				sh.waiters[tmpl.Arity()] = append(sh.waiters[tmpl.Arity()], w)
			}
			s.unlockAll()
			s.blockedWaiters.Add(1)
		}

		var (
			t         tuple.Tuple
			delivered bool
			cancelled bool
		)
		select {
		case t = <-w.matched:
			delivered = true
		case <-ctx.Done():
			cancelled = true
			if w.claimed.CompareAndSwap(false, true) {
				s.deregister(w)
				return tuple.Tuple{}, ctx.Err()
			}
			// A deliverer won the claim concurrently and has sent (or
			// is about to send) a tuple. Honour it so a destructive
			// read never discards the consumed tuple.
			t = <-w.matched
			delivered = true
		}
		s.deregister(w)
		if delivered && !hintOnly {
			return t, nil
		}
		// Woken: return the current earliest match, which may differ
		// from the delivered tuple or be gone already (consumed by a
		// concurrent destructive read) — then park again.
		s.rlockAll()
		first, ok := s.peekLocked(tmpl)
		s.runlockAll()
		if ok {
			return first, nil
		}
		if cancelled {
			return tuple.Tuple{}, ctx.Err()
		}
	}
}

// deregister drops w's remaining registrations — the shards where a
// delivery or sweep has not already removed it. Removal is idempotent.
func (s *Space) deregister(w *waiter) {
	s.blockedWaiters.Add(-1)
	shards := s.shards
	if idx, keyed := s.TemplateShard(w.tmpl); keyed {
		shards = s.shards[idx : idx+1]
	}
	arity := w.tmpl.Arity()
	for _, sh := range shards {
		sh.mu.Lock()
		list := sh.waiters[arity]
		for i, q := range list {
			if q == w {
				sh.setWaiters(arity, append(list[:i], list[i+1:]...))
				break
			}
		}
		sh.mu.Unlock()
	}
}

// Cas performs the conditional atomic swap cas(t̄, t): atomically, if no
// tuple matches template tmpl, insert entry t and return inserted=true.
// Otherwise return inserted=false together with the first matching tuple,
// whose fields satisfy tmpl's formal fields (the paper's algorithms read
// the decision value through them). A keyed template locks at most two
// shards (the template's and the entry's); a wildcard-first template
// locks all.
func (s *Space) Cas(tmpl, t tuple.Tuple) (inserted bool, matched tuple.Tuple, err error) {
	if !t.IsEntry() {
		return false, tuple.Tuple{}, fmt.Errorf("%w: %v", ErrNotEntry, t)
	}
	ei := s.EntryShard(t)
	if ti, keyed := s.TemplateShard(tmpl); keyed {
		lo, hi := ti, ei
		if lo > hi {
			lo, hi = hi, lo
		}
		s.shards[lo].mu.Lock()
		if lo != hi {
			s.shards[hi].mu.Lock()
		}
		defer func() {
			if lo != hi {
				s.shards[hi].mu.Unlock()
			}
			s.shards[lo].mu.Unlock()
		}()
		if m, _, ok := s.shards[ti].store.Find(tmpl, false); ok {
			return false, m, nil
		}
		s.insertLocked(s.shards[ei], t)
		return true, tuple.Tuple{}, nil
	}
	s.lockAll()
	defer s.unlockAll()
	if m, ok := s.peekLocked(tmpl); ok {
		return false, m, nil
	}
	s.insertLocked(s.shards[ei], t)
	return true, tuple.Tuple{}, nil
}

// RdAll returns every stored tuple matching tmpl, in insertion order —
// the bulk non-destructive read of the DepSpace line (copy-collect).
func (s *Space) RdAll(tmpl tuple.Tuple) []tuple.Tuple {
	if idx, keyed := s.TemplateShard(tmpl); keyed {
		sh := s.shards[idx]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return stripSeqs(FindAll(sh.store, tmpl))
	}
	s.rlockAll()
	defer s.runlockAll()
	return stripSeqs(s.findAllLocked(tmpl))
}

// findAllLocked returns every stored tuple matching tmpl in insertion
// order: one shard's matches for a keyed template, the merge of every
// shard's otherwise. The caller holds (at least) read locks on the
// shards the template routes to.
func (s *Space) findAllLocked(tmpl tuple.Tuple) []SeqTuple {
	if idx, keyed := s.TemplateShard(tmpl); keyed {
		return FindAll(s.shards[idx].store, tmpl)
	}
	return s.mergeLocked(func(st Store) []SeqTuple { return FindAll(st, tmpl) })
}

// mergeLocked collects per-shard seq-sorted lists and k-way-merges
// them into one insertion-order list (each input is already sorted, so
// no re-sort). The caller holds (at least) read locks on every shard.
func (s *Space) mergeLocked(collect func(Store) []SeqTuple) []SeqTuple {
	if len(s.shards) == 1 {
		return collect(s.shards[0].store)
	}
	lists := make([][]SeqTuple, 0, len(s.shards))
	total := 0
	for _, sh := range s.shards {
		if l := collect(sh.store); len(l) > 0 {
			lists = append(lists, l)
			total += len(l)
		}
	}
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	out := make([]SeqTuple, 0, total)
	for len(lists) > 0 {
		best := 0
		for i := 1; i < len(lists); i++ {
			if lists[i][0].Seq < lists[best][0].Seq {
				best = i
			}
		}
		out = append(out, lists[best][0])
		if lists[best] = lists[best][1:]; len(lists[best]) == 0 {
			lists = append(lists[:best], lists[best+1:]...)
		}
	}
	return out
}

// stripSeqs projects a merged list back to bare tuples (nil in, nil
// out, preserving the RdAll no-match contract).
func stripSeqs(sts []SeqTuple) []tuple.Tuple {
	if sts == nil {
		return nil
	}
	out := make([]tuple.Tuple, len(sts))
	for i, st := range sts {
		out[i] = st.T
	}
	return out
}

// Snapshot returns a copy of the space contents in insertion order, for
// checkpointing in the replication substrate.
func (s *Space) Snapshot() []tuple.Tuple {
	s.rlockAll()
	defer s.runlockAll()
	return stripSeqs(s.mergeLocked(func(st Store) []SeqTuple { return st.Snapshot() }))
}

// Restore atomically replaces the space contents with the given tuples
// (in order), discarding the current contents.
//
// Restore semantics are deliberately two-phased so a replica installing
// a checkpoint reaches exactly the snapshot state first: every store is
// reset and every tuple installed verbatim (stamped with fresh,
// increasing sequence numbers, so snapshot order is the new insertion
// order), and only then are parked waiters re-evaluated against the
// restored contents, in registration order, with normal rd/in semantics
// (a served destructive waiter removes its match). On a replica the
// service executes only non-blocking operations, so no waiters exist
// and the restored state is bit-identical to the snapshot.
func (s *Space) Restore(tuples []tuple.Tuple) {
	s.lockAll()
	defer s.unlockAll()
	for _, sh := range s.shards {
		sh.store.Reset()
	}
	per := make([][]SeqTuple, len(s.shards))
	for _, t := range tuples {
		i := s.EntryShard(t)
		per[i] = append(per[i], SeqTuple{Seq: s.seq.Add(1), T: t})
	}
	for i, sh := range s.shards {
		sh.store.InsertBatch(per[i])
	}
	s.wakeWaitersLocked()
}

// Reset discards the space contents without waking or discarding
// waiters: parked rd/in calls stay parked until a later insert or
// Restore satisfies them, or their context ends.
func (s *Space) Reset() {
	s.lockAll()
	defer s.unlockAll()
	for _, sh := range s.shards {
		sh.store.Reset()
	}
}

// wakeWaitersLocked re-evaluates every parked waiter against the stores
// in global registration order and sweeps served, cancelled and stale
// registrations from every shard. The caller holds all write locks.
func (s *Space) wakeWaitersLocked() {
	var all []*waiter
	seen := make(map[*waiter]bool)
	for _, sh := range s.shards {
		for _, list := range sh.waiters {
			for _, w := range list {
				if !seen[w] {
					seen[w] = true
					all = append(all, w)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].reg < all[j].reg })
	for _, w := range all {
		if w.claimed.Load() {
			continue
		}
		// Peek before claiming: a claim must only be taken when a match
		// exists, because an unclaimed waiter may be cancelled by its
		// owner at any moment and an already-removed tuple would have
		// no recipient.
		if _, ok := s.peekLocked(w.tmpl); !ok {
			continue
		}
		if !w.claimed.CompareAndSwap(false, true) {
			continue // owner cancelled between peek and claim
		}
		var t tuple.Tuple
		if w.remove {
			t, _ = s.takeLocked(w.tmpl)
		} else {
			t, _ = s.peekLocked(w.tmpl)
		}
		w.matched <- t
	}
	// Sweep claimed waiters out of every shard list so served waiters
	// never linger in the index.
	for _, sh := range s.shards {
		for arity, list := range sh.waiters {
			kept := list[:0]
			for _, w := range list {
				if !w.claimed.Load() {
					kept = append(kept, w)
				}
			}
			sh.setWaiters(arity, kept)
		}
	}
}

// ForEach calls fn for every stored tuple in insertion order while
// holding every shard's read lock; fn must not call back into the
// space. It is used by policy predicates that quantify over the whole
// state (e.g. the default-consensus ⊥ justification rule). Iteration
// stops when fn returns false. On a multi-shard space the iteration
// works over a merged copy of the shard snapshots.
func (s *Space) ForEach(fn func(tuple.Tuple) bool) {
	s.rlockAll()
	defer s.runlockAll()
	s.forEachLocked(fn)
}

// ForEachSeq is ForEach with each tuple's sequence number: the space's
// contents exactly as Install takes them back, streamed without a copy.
// The durability engine writes its snapshot from it.
func (s *Space) ForEachSeq(fn func(SeqTuple) bool) {
	s.rlockAll()
	defer s.runlockAll()
	s.forEachSeqLocked(fn)
}

func (s *Space) forEachLocked(fn func(tuple.Tuple) bool) {
	s.forEachSeqLocked(func(st SeqTuple) bool { return fn(st.T) })
}

// forEachSeqLocked visits stored tuples with their sequence numbers in
// insertion order until fn returns false. The caller holds (at least)
// read locks on every shard.
func (s *Space) forEachSeqLocked(fn func(SeqTuple) bool) {
	if len(s.shards) == 1 {
		s.shards[0].store.ForEach(func(t tuple.Tuple, seq uint64) bool {
			return fn(SeqTuple{Seq: seq, T: t})
		})
		return
	}
	// Merge-iterate one cursor per shard by sequence number — no
	// materialisation, so state-quantifying policy predicates keep an
	// allocation-free ForEach on sharded spaces too.
	next := make([]func() (SeqTuple, bool), len(s.shards))
	heads := make([]SeqTuple, len(s.shards))
	live := make([]bool, len(s.shards))
	for i, sh := range s.shards {
		next[i] = sh.store.Iter()
		heads[i], live[i] = next[i]()
	}
	for {
		best := -1
		for i := range heads {
			if live[i] && (best < 0 || heads[i].Seq < heads[best].Seq) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		if !fn(heads[best]) {
			return
		}
		heads[best], live[best] = next[best]()
	}
}

// CountMatching returns the number of stored tuples matching tmpl.
func (s *Space) CountMatching(tmpl tuple.Tuple) int {
	if idx, keyed := s.TemplateShard(tmpl); keyed {
		sh := s.shards[idx]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return Count(sh.store, tmpl)
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.countLocked(tmpl)
}

// countLocked counts the stored tuples matching tmpl across the shards
// the template routes to; the caller holds (at least) their read locks.
func (s *Space) countLocked(tmpl tuple.Tuple) int {
	if idx, keyed := s.TemplateShard(tmpl); keyed {
		return Count(s.shards[idx].store, tmpl)
	}
	n := 0
	for _, sh := range s.shards {
		n += Count(sh.store, tmpl)
	}
	return n
}
