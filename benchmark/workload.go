package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"peats/internal/coord"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/tuple"
)

// Sizes shared by every workload. The key universe is twice the
// resident set and a toggle flips a uniformly chosen key, so the space
// holds residentKeys tuples on average from the first op to the last:
// full snapshots, index buckets and recovery see one working-set size.
const (
	universe     = 20000
	residentKeys = universe / 2
	payloadLen   = 32
	flushDepth   = 32 // submissions per Flush where a workload pipelines

	pinnedLocks = 2048 // per connection, held for the cluster's life
	cycledLocks = 256  // per connection, acquired and released in the loop
	probeEvery  = 8    // lock cycles between peer-lock probes

	pacedRate    = 1000.0 // write_paced arrivals per second, all connections
	failoverRate = 200.0  // arrivals per second while the primary is stopped
	readShare    = 0.8    // read_mostly
)

// spec is what distinguishes one workload from another.
type spec struct {
	name string
	why  string
	// rate > 0 makes the window an open loop of Poisson arrivals at
	// that many operations per second over all connections; 0 makes it
	// a closed loop.
	rate float64
	// depth is how many submissions a closed-loop connection pipelines
	// into one Flush; 1 means a plain blocking Submit per operation.
	depth int
	reads float64 // share of operations that are rdp
	locks bool    // coord.LockPolicy traffic instead of keyed toggles
}

var specs = []spec{
	{
		name: "write_paced", rate: pacedRate, depth: flushDepth,
		why: "open loop, 1000 toggles/s: batches stay near one request, so a full agreement round, its MACs and frames are paid per op",
	},
	{
		name: "write_sat", depth: flushDepth,
		why: "closed loop, 32 toggles per Flush on 2 connections: batches fill, so decode, monitor, staged execution, WAL and allocation dominate",
	},
	{
		name: "read_mostly", depth: 1, reads: readShare,
		why: "closed loop, depth 1, 80% rdp on the read-only fast path beside 20% toggles: a write-path change that slows reads shows here",
	},
	{
		name: "lock_policy", depth: 1, locks: true,
		why: "closed loop, depth 1, coord.LockPolicy: two-lock cas units, releases, probes and denied forgeries against a 4096-tuple bucket",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) policy() policy.Policy {
	if s.locks {
		return coord.LockPolicy()
	}
	return policy.AllowAll()
}

// item is one Submit: the unit a connection sends, times and checks.
type item struct {
	read bool // an rdp, eligible for the read-only fast path
	key  int  // toggled key, or -1; a Flush never carries one key twice
	ops  []peats.Op
	// check compares the outcome with the connection's model and, when
	// it matches, moves the model forward.
	check func(res []peats.Result, err error) error
}

var keyNames = func() []string {
	names := make([]string, universe)
	for i := range names {
		names[i] = fmt.Sprintf("k%06d", i)
	}
	return names
}()

// payload is a function of key and version so that a reader can check
// a tuple it does not own.
func payload(key int, version int64) []byte {
	b := make([]byte, payloadLen)
	for off := 0; off < payloadLen; off += 16 {
		binary.LittleEndian.PutUint64(b[off:], uint64(key))
		binary.LittleEndian.PutUint64(b[off+8:], uint64(version))
	}
	return b
}

func keyEntry(key int, version int64) tuple.Tuple {
	return tuple.T(tuple.Str(keyNames[key]), tuple.Int(version), tuple.Bytes(payload(key, version)))
}

func keyTemplate(key int) tuple.Tuple {
	return tuple.T(tuple.Str(keyNames[key]), tuple.Any(), tuple.Any())
}

// checkKeyTuple verifies a returned <key, version, payload> tuple;
// version 0 accepts any version (a key owned by the other connection).
func checkKeyTuple(t tuple.Tuple, key int, version int64) error {
	name, _ := t.Field(0).StrValue()
	v, _ := t.Field(1).IntValue()
	p, _ := t.Field(2).BytesValue()
	if t.Arity() != 3 || name != keyNames[key] || v < 1 || (version != 0 && v != version) ||
		string(p) != string(payload(key, v)) {
		return fmt.Errorf("key %s: got %v, want version %d", keyNames[key], t, version)
	}
	return nil
}

// initiallyPresent splits every connection's keys in half.
func initiallyPresent(key int) bool { return (key/nConns)%2 == 0 }

func lockName(owner int, pinned bool, i int) string {
	if pinned {
		return fmt.Sprintf("c%d-pin%04d", owner, i)
	}
	return fmt.Sprintf("c%d-cyc%04d", owner, i)
}

// The lock tuples are coord.Lock's: <"LOCK", name, holder>, taken by
// cas against a formal holder and released by inp of one's own tuple.
func lockEntry(name, holder string) tuple.Tuple {
	return tuple.T(tuple.Str("LOCK"), tuple.Str(name), tuple.Str(holder))
}

func lockAcquire(name, self string) peats.Op {
	return peats.CasOp(tuple.T(tuple.Str("LOCK"), tuple.Str(name), tuple.Formal("holder")), lockEntry(name, self))
}

// generator plans one connection's operations from the seed and keeps
// the model its results are checked against. Connection c owns the keys
// and locks with index ≡ c (mod nConns), so its model is exact.
type generator struct {
	spec spec
	conn int
	self string
	peer string
	rng  *rand.Rand

	present  []bool  // by key; meaningful for owned keys only
	version  []int64 // last version written, by key
	resident int     // tuples this connection keeps in the space

	// lastWrite is the key of this connection's latest toggle and
	// staleReads counts fast-path reads that missed it; see read.
	lastWrite  int
	staleReads int

	// writesOnly is set for the failover trial, where every operation
	// must need ordering for the stall to be seen.
	writesOnly bool
	queue      []item // rest of the current lock cycle
	cycles     int
}

func newGenerator(s spec, connIdx int, seed int64) *generator {
	g := &generator{
		spec: s, conn: connIdx,
		self: fmt.Sprintf("c%d", connIdx),
		peer: fmt.Sprintf("c%d", (connIdx+1)%nConns),
		// Distinct streams per connection from one seed.
		rng:       rand.New(rand.NewSource(seed*int64(nConns) + int64(connIdx))),
		lastWrite: -1,
	}
	if !s.locks {
		g.present = make([]bool, universe)
		g.version = make([]int64, universe)
	}
	return g
}

// gap draws the next Poisson inter-arrival time for this connection's
// share of rate.
func (g *generator) gap(rate float64) time.Duration {
	return time.Duration(g.rng.ExpFloat64() / (rate / nConns) * float64(time.Second))
}

// preload returns the submissions that build this connection's share
// of the resident state; the setup phase pipelines them.
func (g *generator) preload() []item {
	var items []item
	if g.spec.locks {
		for i := 0; i < pinnedLocks; i += 2 {
			items = append(items, g.acquirePair(lockName(g.conn, true, i), lockName(g.conn, true, i+1)))
		}
		return items
	}
	for key := g.conn; key < universe; key += nConns {
		if initiallyPresent(key) {
			items = append(items, g.toggle(key))
		}
	}
	return items
}

// draw is one entry of a connection's operation schedule. Drawing
// consumes the seeded stream and nothing else, so the schedule is the
// same on every run of a seed; plan turns a draw into a submission
// against the model as it stands when the draw is sent.
type draw struct {
	read bool
	key  int   // -1 for lock traffic
	lock *item // lock traffic is planned when its cycle is drawn
}

func (g *generator) draw() draw {
	if g.spec.locks {
		if len(g.queue) == 0 {
			g.queue = g.lockCycle()
		}
		it := g.queue[0]
		g.queue = g.queue[1:]
		return draw{key: -1, lock: &it}
	}
	if !g.writesOnly && g.rng.Float64() < g.spec.reads {
		return draw{read: true, key: g.rng.Intn(universe)}
	}
	return draw{key: g.rng.Intn(universe/nConns)*nConns + g.conn}
}

func (g *generator) plan(d draw) item {
	switch {
	case d.lock != nil:
		return *d.lock
	case d.read:
		return g.read(d.key)
	default:
		return g.toggle(d.key)
	}
}

// toggle removes the key's tuple when the model says it is present and
// writes the next version when it is absent.
func (g *generator) toggle(key int) item {
	if g.present[key] {
		want := g.version[key]
		return item{key: key,
			ops: []peats.Op{peats.InpOp(keyTemplate(key))},
			check: func(res []peats.Result, err error) error {
				if err != nil {
					return err
				}
				if !res[0].Found {
					return fmt.Errorf("inp %s: not found, model has version %d", keyNames[key], want)
				}
				if err := checkKeyTuple(res[0].Tuple, key, want); err != nil {
					return err
				}
				g.present[key], g.lastWrite = false, key
				g.resident--
				return nil
			}}
	}
	version := g.version[key] + 1
	return item{key: key,
		ops: []peats.Op{peats.OutOp(keyEntry(key, version))},
		check: func(_ []peats.Result, err error) error {
			if err != nil {
				return err
			}
			g.present[key], g.version[key], g.lastWrite = true, version, key
			g.resident++
			return nil
		}}
}

// read plans an rdp of any key. An owned key must match the model
// exactly; a key of the other connection may be in either state, so
// only the tuple's shape and payload are checked.
//
// One exception, counted and not failed: a read of the key this
// connection toggled last may still see the state before that toggle.
// The toggle was acknowledged on 2f+1 tentative replies, at prepared,
// while the read-only fast path answers from committed state, and the
// read can overtake the commit round. Links are FIFO, so every toggle
// before the last has committed wherever the last one prepared, and no
// older write can be missed.
func (g *generator) read(key int) item {
	owned := key%nConns == g.conn
	return item{read: true, key: -1,
		ops: []peats.Op{peats.RdpOp(keyTemplate(key))},
		check: func(res []peats.Result, err error) error {
			if err != nil {
				return err
			}
			if owned && res[0].Found != g.present[key] {
				if key != g.lastWrite {
					return fmt.Errorf("rdp %s: found=%v, model present=%v", keyNames[key], res[0].Found, g.present[key])
				}
				g.staleReads++
			}
			if !res[0].Found {
				return nil
			}
			var want int64
			if owned {
				want = g.version[key]
			}
			return checkKeyTuple(res[0].Tuple, key, want)
		}}
}

// lockCycle plans one turn of the lock loop: an atomic two-lock
// acquire (one SpaceTx), two releases (legacy SpaceOp form), and on
// every probeEvery-th turn an attempt on a lock the peer pinned, which
// must name the peer as holder, and a forged release of it, which the
// policy must deny.
func (g *generator) lockCycle() []item {
	a := g.rng.Intn(cycledLocks)
	b := (a + 1 + g.rng.Intn(cycledLocks-1)) % cycledLocks
	la, lb := lockName(g.conn, false, a), lockName(g.conn, false, b)
	items := []item{g.acquirePair(la, lb), g.release(la), g.release(lb)}
	g.cycles++
	if g.cycles%probeEvery != 0 {
		return items
	}
	pinned := lockName((g.conn+1)%nConns, true, g.rng.Intn(pinnedLocks))
	return append(items,
		item{key: -1,
			ops: []peats.Op{lockAcquire(pinned, g.self)},
			check: func(res []peats.Result, err error) error {
				if err != nil {
					return err
				}
				holder, _ := res[0].Tuple.Field(2).StrValue()
				if res[0].Inserted || holder != g.peer {
					return fmt.Errorf("probe %s: inserted=%v holder=%q, want holder %s", pinned, res[0].Inserted, holder, g.peer)
				}
				return nil
			}},
		item{key: -1,
			ops: []peats.Op{peats.InpOp(lockEntry(pinned, g.peer))},
			check: func(_ []peats.Result, err error) error {
				if !errors.Is(err, peats.ErrDenied) {
					return fmt.Errorf("forged release of %s: err=%v, want denial", pinned, err)
				}
				return nil
			}})
}

func (g *generator) acquirePair(a, b string) item {
	return item{key: -1,
		ops: []peats.Op{lockAcquire(a, g.self), lockAcquire(b, g.self)},
		check: func(res []peats.Result, err error) error {
			if err != nil {
				return err
			}
			if !res[0].Inserted || !res[1].Inserted {
				return fmt.Errorf("acquire %s,%s: inserted=%v,%v", a, b, res[0].Inserted, res[1].Inserted)
			}
			g.resident += 2
			return nil
		}}
}

func (g *generator) release(name string) item {
	return item{key: -1,
		ops: []peats.Op{peats.InpOp(lockEntry(name, g.self))},
		check: func(res []peats.Result, err error) error {
			if err != nil {
				return err
			}
			if !res[0].Found {
				return fmt.Errorf("release %s: not held", name)
			}
			g.resident--
			return nil
		}}
}
