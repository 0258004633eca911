package space

import (
	"fmt"

	"peats/internal/tuple"
)

// Engine names a tuple-store implementation selectable at space
// construction time.
type Engine string

const (
	// EngineSlice is the reference store: a flat slice scanned linearly.
	// It is the executable specification of the match semantics and the
	// baseline the indexed engine is property-tested against.
	EngineSlice Engine = "slice"
	// EngineIndexed is the production store: tuples bucketed by arity and
	// hashed on their first field, long first-field lists hashed again on
	// every later field, with insertion order preserved through the
	// space-assigned sequence numbers.
	EngineIndexed Engine = "indexed"
	// EngineDurable is the persistent store: an indexed store wrapped by
	// the write-ahead log of package durable, which persists every
	// mutation and recovers the contents across process crashes. It
	// needs a data directory, so it cannot be built by NewStore — open a
	// durable.DB and construct the space with NewShardedFactory (or let
	// peats.WithDataDir / peats-server -store durable do both).
	EngineDurable Engine = "durable"
)

// DefaultEngine is the engine used when none is specified.
const DefaultEngine = EngineIndexed

// SeqTuple pairs a stored tuple with the space-wide insertion sequence
// number it was stamped with. The sequence number totally orders
// insertions across every shard of a space, so per-shard results merge
// back into one insertion order.
type SeqTuple struct {
	Seq uint64
	T   tuple.Tuple
}

// Store is the storage engine behind one shard of a Space: an ordered
// multiset of entries with template matching. A Store is not safe for
// concurrent mutation; the owning shard serialises writers under its
// lock.
//
// Determinism contract: the space is the shared object of a BFT
// state-machine-replication substrate (paper §4), so every method must
// be a pure function of the sequence of Insert/Find(remove)/Reset calls
// applied so far. Insertion order is the order of the externally
// assigned sequence numbers (strictly increasing per store); Find and
// Scan must select matches in that order, and ForEach and Snapshot
// must iterate in it — regardless of how the engine organises tuples
// internally. Two stores (of any engine) fed the same call sequence
// must return identical results.
//
// Concurrency contract: Find with remove=false, Scan, Len, ForEach,
// Iter and Snapshot must not mutate any internal state, not even for
// caching or compaction — the sharded space runs them under shared
// (read) locks, concurrently with each other.
type Store interface {
	// Engine identifies the implementation, for reporting.
	Engine() Engine
	// Insert adds entry t with the given sequence number, which is
	// strictly greater than every sequence number already stored.
	Insert(t tuple.Tuple, seq uint64)
	// InsertBatch adds every tuple of ts in order, equivalent to
	// calling Insert on each but letting the engine amortize index
	// building — the hot path of Restore and checkpoint installs,
	// where whole snapshots arrive at once. Sequence numbers in ts are
	// strictly increasing.
	InsertBatch(ts []SeqTuple)
	// Find returns the first tuple in insertion order matching tmpl and
	// its sequence number, removing it when remove is true. With
	// remove=false the call must not mutate the store.
	Find(tmpl tuple.Tuple, remove bool) (tuple.Tuple, uint64, bool)
	// Scan visits the stored tuples matching tmpl in insertion order,
	// with their sequence numbers, until fn returns false. It allocates
	// nothing and must not mutate the store; fn must not call back into
	// it.
	Scan(tmpl tuple.Tuple, fn func(SeqTuple) bool)
	// Len returns the number of stored tuples.
	Len() int
	// ForEach visits stored tuples in insertion order until fn returns
	// false.
	ForEach(fn func(t tuple.Tuple, seq uint64) bool)
	// Iter returns a cursor over the stored tuples in insertion order:
	// each call yields the next tuple, with ok=false at the end. The
	// cursor must not mutate the store (it may run under a shared
	// lock) and is only valid while the store is unmodified — the
	// sharded space uses one cursor per shard to merge iteration by
	// sequence number without materialising the contents.
	Iter() func() (SeqTuple, bool)
	// Snapshot returns a copy of the contents in insertion order.
	Snapshot() []SeqTuple
	// Reset discards every stored tuple.
	Reset()
}

// FindAll returns every tuple of st matching tmpl, in insertion order
// with sequence numbers (nil when none match).
func FindAll(st Store, tmpl tuple.Tuple) []SeqTuple {
	var out []SeqTuple
	st.Scan(tmpl, func(c SeqTuple) bool {
		out = append(out, c)
		return true
	})
	return out
}

// Count returns the number of tuples of st matching tmpl.
func Count(st Store, tmpl tuple.Tuple) int {
	n := 0
	st.Scan(tmpl, func(SeqTuple) bool {
		n++
		return true
	})
	return n
}

// NewStore returns a fresh store for the named engine. The empty engine
// selects DefaultEngine.
func NewStore(e Engine) (Store, error) {
	switch e {
	case "":
		return NewStore(DefaultEngine)
	case EngineSlice:
		return NewSliceStore(), nil
	case EngineIndexed:
		return NewIndexedStore(), nil
	case EngineDurable:
		return nil, fmt.Errorf("space: the durable engine needs a data directory (open a durable.DB and use NewShardedFactory)")
	default:
		return nil, fmt.Errorf("space: unknown store engine %q", e)
	}
}

// Engines lists the self-contained in-memory engines NewStore can
// build. The durable engine is deliberately absent: it exists only
// bound to a data directory.
func Engines() []Engine { return []Engine{EngineSlice, EngineIndexed} }
