package space

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"peats/internal/tuple"
)

// seedFlag offsets every randomized parity sweep's seed range:
//
//	go test ./internal/space -seed 424242
//
// explores a fresh slice of the operation-sequence space, and a failure
// anywhere prints the exact seed (base + offset) to replay. The zero
// default keeps CI runs deterministic.
var seedFlag = flag.Int64("seed", 0, "base offset added to every randomized parity-suite seed")

// suiteSeeds logs and returns the seed range [lo+*seedFlag, hi+*seedFlag)
// a randomized suite will sweep.
func suiteSeeds(t *testing.T, lo, hi int64) (int64, int64) {
	t.Helper()
	lo, hi = lo+*seedFlag, hi+*seedFlag
	t.Logf("seeds [%d,%d) — replay any failure with -seed (offset %d)", lo, hi, *seedFlag)
	return lo, hi
}

// bgCtx returns a context that outlives any reasonable test step but
// cannot hang a broken run forever.
func bgCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// parityGen produces random tuples and templates over a small domain so
// that matches, misses, key collisions within an arity, and wildcard /
// formal first fields are all frequent. Everything derives from a
// seeded rand.Rand, so failures reproduce by seed.
type parityGen struct {
	rng *rand.Rand
	// shared switches entry and template to the shape every object of
	// the paper stores: <TAG, key, value> under two tags, with keys from
	// a large range and values from a small one, so one first-field list
	// holds thousands of tuples and the templates <TAG, key, ?v>,
	// <TAG, key, value>, <TAG, *, value> and <*, key, *> all occur.
	shared bool
}

// sharedKeys is below the population the shared-tag suites preload, so
// keys repeat within a tag and whole tuples repeat now and then.
const sharedKeys = 3000

func (g *parityGen) sharedFields() []tuple.Field {
	return []tuple.Field{
		tuple.Str([]string{"LOCK", "SEQ"}[g.rng.Intn(2)]),
		tuple.Int(int64(g.rng.Intn(sharedKeys))),
		tuple.Str(string(rune('a' + g.rng.Intn(3)))),
	}
}

func (g *parityGen) field(defined bool) tuple.Field {
	if !defined {
		if g.rng.Intn(2) == 0 {
			return tuple.Any()
		}
		return tuple.Formal(fmt.Sprintf("v%d", g.rng.Intn(3)))
	}
	switch g.rng.Intn(4) {
	case 0:
		return tuple.Int(int64(g.rng.Intn(4)))
	case 1:
		return tuple.Str(string(rune('A' + g.rng.Intn(3))))
	case 2:
		return tuple.Bool(g.rng.Intn(2) == 0)
	default:
		return tuple.Bytes([]byte{byte(g.rng.Intn(3))})
	}
}

// entry returns a fully defined tuple of arity 1..3.
func (g *parityGen) entry() tuple.Tuple {
	if g.shared {
		return tuple.T(g.sharedFields()...)
	}
	arity := 1 + g.rng.Intn(3)
	fields := make([]tuple.Field, arity)
	for i := range fields {
		fields[i] = g.field(true)
	}
	return tuple.T(fields...)
}

// template returns a tuple of arity 1..3 with each field independently
// defined or undefined — including templates with an undefined first
// field, which exercise the indexed store's arity-scan path and the
// sharded space's merge path.
func (g *parityGen) template() tuple.Tuple {
	if g.shared {
		fields := g.sharedFields()
		for i := range fields {
			if g.rng.Intn(3) == 0 {
				fields[i] = g.field(false)
			}
		}
		return tuple.T(fields...)
	}
	arity := 1 + g.rng.Intn(3)
	fields := make([]tuple.Field, arity)
	for i := range fields {
		fields[i] = g.field(g.rng.Intn(3) != 0)
	}
	return tuple.T(fields...)
}

// TestStoreParity drives the slice store and the indexed store with the
// same randomized operation sequence — including InsertBatch and Count
// — and requires identical results at every step: same found/not-found,
// same tuple (so same match order), same sequence numbers, same counts,
// and identical snapshots. This is the determinism-parity property the
// SMR substrate depends on: either engine must realise the same
// deterministic state machine.
func TestStoreParity(t *testing.T) {
	lo, hi := suiteSeeds(t, 0, 20)
	for seed := lo; seed < hi; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := &parityGen{rng: rand.New(rand.NewSource(seed))}
			ref := NewSliceStore()
			idx := NewIndexedStore()
			seq := uint64(0)

			check := func(step int, what string, a, b tuple.Tuple, as, bs uint64, aok, bok bool) {
				t.Helper()
				if aok != bok {
					t.Fatalf("step %d %s: slice ok=%v indexed ok=%v", step, what, aok, bok)
				}
				if aok && (!a.Equal(b) || as != bs) {
					t.Fatalf("step %d %s: slice %v@%d indexed %v@%d (match order diverged)",
						step, what, a, as, b, bs)
				}
			}
			checkSnapshots := func(step int) {
				t.Helper()
				sa, sb := ref.Snapshot(), idx.Snapshot()
				if len(sa) != len(sb) {
					t.Fatalf("step %d: snapshot lens %d vs %d", step, len(sa), len(sb))
				}
				for i := range sa {
					if sa[i].Seq != sb[i].Seq || !sa[i].T.Equal(sb[i].T) {
						t.Fatalf("step %d: snapshot[%d] %v vs %v", step, i, sa[i], sb[i])
					}
				}
			}

			const steps = 3000
			for i := 0; i < steps; i++ {
				switch op := g.rng.Intn(12); {
				case op < 3: // out
					e := g.entry()
					seq++
					ref.Insert(e, seq)
					idx.Insert(e, seq)
				case op < 5: // rdp
					tmpl := g.template()
					a, as, aok := ref.Find(tmpl, false)
					b, bs, bok := idx.Find(tmpl, false)
					check(i, "rdp", a, b, as, bs, aok, bok)
				case op < 8: // inp
					tmpl := g.template()
					a, as, aok := ref.Find(tmpl, true)
					b, bs, bok := idx.Find(tmpl, true)
					check(i, "inp", a, b, as, bs, aok, bok)
				case op < 9: // cas
					tmpl, e := g.template(), g.entry()
					a, as, aok := ref.Find(tmpl, false)
					b, bs, bok := idx.Find(tmpl, false)
					check(i, "cas-read", a, b, as, bs, aok, bok)
					if !aok {
						seq++
						ref.Insert(e, seq)
						idx.Insert(e, seq)
					}
				case op < 10: // insertbatch: a burst of entries in one call
					n := 1 + g.rng.Intn(5)
					batch := make([]SeqTuple, n)
					for j := range batch {
						seq++
						batch[j] = SeqTuple{Seq: seq, T: g.entry()}
					}
					ref.InsertBatch(batch)
					idx.InsertBatch(batch)
				case op < 11: // count
					tmpl := g.template()
					if a, b := Count(ref, tmpl), Count(idx, tmpl); a != b {
						t.Fatalf("step %d: counts diverge (%d vs %d)", i, a, b)
					}
				default: // rdall, occasionally snapshot/restore
					tmpl := g.template()
					as, bs := FindAll(ref, tmpl), FindAll(idx, tmpl)
					if len(as) != len(bs) {
						t.Fatalf("step %d rdall: %d vs %d matches", i, len(as), len(bs))
					}
					for j := range as {
						if as[j].Seq != bs[j].Seq || !as[j].T.Equal(bs[j].T) {
							t.Fatalf("step %d rdall[%d]: %v vs %v", i, j, as[j], bs[j])
						}
					}
					if g.rng.Intn(20) == 0 {
						// Snapshot one engine, InsertBatch-restore into both:
						// state must converge regardless of which engine
						// sourced it.
						snap := idx.Snapshot()
						ref.Reset()
						idx.Reset()
						restamped := make([]SeqTuple, len(snap))
						for j, st := range snap {
							seq++
							restamped[j] = SeqTuple{Seq: seq, T: st.T}
						}
						ref.InsertBatch(restamped)
						idx.InsertBatch(restamped)
					}
				}
				if ref.Len() != idx.Len() {
					t.Fatalf("step %d: len %d vs %d", i, ref.Len(), idx.Len())
				}
			}
			checkSnapshots(steps)
		})
	}
}

// shardCounts are the shard configurations the space-level parity
// suites sweep; shards=1 is required to match the unsharded engine
// exactly, the larger counts pin the merge-by-sequence paths.
var shardCounts = []int{1, 4, 16}

// driveSpacePair runs the same randomized operation sequence through
// spaces a and b and fails on the first observable divergence. It is
// the end-to-end determinism-parity property: any two spaces —
// different engines, different shard counts — must realise the same
// deterministic state machine.
func driveSpacePair(t *testing.T, seed int64, steps int, a, b *Space) {
	t.Helper()
	drivePair(t, &parityGen{rng: rand.New(rand.NewSource(seed))}, seed, steps, a, b)
}

// sharedTagPopulation is the size driveSharedTagPair fills the spaces to.
const sharedTagPopulation = 5000

// driveSharedTagPair is driveSpacePair over a shared-tag population:
// it fills both spaces up to sharedTagPopulation tuples under two tags,
// takes more than half of them out again (so an engine that compacts
// does), then drives the usual operation mix with templates that
// address the tuples by key and by value.
func driveSharedTagPair(t *testing.T, seed int64, steps int, a, b *Space) {
	t.Helper()
	g := &parityGen{rng: rand.New(rand.NewSource(seed)), shared: true}
	for a.Len() < sharedTagPopulation {
		e := g.entry()
		if err1, err2 := a.Out(e), b.Out(e); err1 != nil || err2 != nil {
			t.Fatalf("seed %d fill: %v / %v", seed, err1, err2)
		}
	}
	for i := 0; a.Len() > sharedTagPopulation*2/5; i++ {
		tmpl := g.template()
		ta, oka := a.Inp(tmpl)
		tb, okb := b.Inp(tmpl)
		if oka != okb || (oka && !ta.Equal(tb)) {
			t.Fatalf("seed %d drain %d inp %v: %v/%v vs %v/%v", seed, i, tmpl, ta, oka, tb, okb)
		}
	}
	drivePair(t, g, seed, steps, a, b)
}

func drivePair(t *testing.T, g *parityGen, seed int64, steps int, a, b *Space) {
	t.Helper()
	for i := 0; i < steps; i++ {
		switch g.rng.Intn(8) {
		case 0, 1:
			e := g.entry()
			if err1, err2 := a.Out(e), b.Out(e); (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed %d step %d: out errs diverge", seed, i)
			}
		case 2:
			tmpl := g.template()
			ta, oka := a.Rdp(tmpl)
			tb, okb := b.Rdp(tmpl)
			if oka != okb || (oka && !ta.Equal(tb)) {
				t.Fatalf("seed %d step %d rdp: %v/%v vs %v/%v", seed, i, ta, oka, tb, okb)
			}
		case 3:
			tmpl := g.template()
			ta, oka := a.Inp(tmpl)
			tb, okb := b.Inp(tmpl)
			if oka != okb || (oka && !ta.Equal(tb)) {
				t.Fatalf("seed %d step %d inp: %v/%v vs %v/%v", seed, i, ta, oka, tb, okb)
			}
		case 4:
			tmpl, e := g.template(), g.entry()
			insA, mA, _ := a.Cas(tmpl, e)
			insB, mB, _ := b.Cas(tmpl, e)
			if insA != insB || !mA.Equal(mB) {
				t.Fatalf("seed %d step %d cas: %v/%v vs %v/%v", seed, i, insA, mA, insB, mB)
			}
		case 5:
			tmpl := g.template()
			la, lb := a.RdAll(tmpl), b.RdAll(tmpl)
			if len(la) != len(lb) {
				t.Fatalf("seed %d step %d rdall: %d vs %d matches", seed, i, len(la), len(lb))
			}
			for j := range la {
				if !la[j].Equal(lb[j]) {
					t.Fatalf("seed %d step %d rdall[%d]: %v vs %v", seed, i, j, la[j], lb[j])
				}
			}
		case 6:
			tmpl := g.template()
			if ca, cb := a.CountMatching(tmpl), b.CountMatching(tmpl); ca != cb {
				t.Fatalf("seed %d step %d count: %d vs %d", seed, i, ca, cb)
			}
		case 7:
			if g.rng.Intn(10) == 0 {
				snap := a.Snapshot()
				a.Restore(snap)
				b.Restore(snap)
			} else {
				// ForEach iteration order must agree too.
				var fa, fb []tuple.Tuple
				a.ForEach(func(t tuple.Tuple) bool { fa = append(fa, t); return len(fa) < 10 })
				b.ForEach(func(t tuple.Tuple) bool { fb = append(fb, t); return len(fb) < 10 })
				if len(fa) != len(fb) {
					t.Fatalf("seed %d step %d foreach: %d vs %d visits", seed, i, len(fa), len(fb))
				}
				for j := range fa {
					if !fa[j].Equal(fb[j]) {
						t.Fatalf("seed %d step %d foreach[%d]: %v vs %v", seed, i, j, fa[j], fb[j])
					}
				}
			}
		}
		if a.Len() != b.Len() {
			t.Fatalf("seed %d step %d: len %d vs %d", seed, i, a.Len(), b.Len())
		}
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("seed %d: final snapshots differ in length", seed)
	}
	for i := range sa {
		if !sa[i].Equal(sb[i]) {
			t.Fatalf("seed %d: final snapshot[%d] %v vs %v", seed, i, sa[i], sb[i])
		}
	}
}

// TestSpaceParityAcrossEngines runs the same operation sequence through
// two full Spaces (waiter plumbing included) built on different engines
// and compares every result — the end-to-end version of TestStoreParity.
func TestSpaceParityAcrossEngines(t *testing.T) {
	lo, hi := suiteSeeds(t, 100, 110)
	for seed := lo; seed < hi; seed++ {
		driveSpacePair(t, seed, 1500,
			NewWithStore(NewSliceStore()),
			NewWithStore(NewIndexedStore()))
	}
}

// TestSpaceParityAcrossShardCounts holds a sharded space — at every
// swept shard count and on both engines — observationally equivalent
// to the single-shard slice-store reference: the determinism contract
// the SMR substrate needs from the sharded core.
func TestSpaceParityAcrossShardCounts(t *testing.T) {
	for _, engine := range Engines() {
		for _, n := range shardCounts {
			engine, n := engine, n
			t.Run(fmt.Sprintf("%s/shards=%d", engine, n), func(t *testing.T) {
				lo, hi := suiteSeeds(t, 200, 206)
				for seed := lo; seed < hi; seed++ {
					ref := NewWithStore(NewSliceStore())
					sharded, err := NewSharded(engine, n)
					if err != nil {
						t.Fatal(err)
					}
					driveSpacePair(t, seed, 1200, ref, sharded)
				}
			})
		}
	}
}

// TestSpaceParitySharedTag repeats the shard-count sweep over a
// population of 5000 tuples under two tags: the indexed engine's second
// index level and its compaction work on lists thousands long, and must
// still answer like the slice reference.
func TestSpaceParitySharedTag(t *testing.T) {
	for _, n := range shardCounts {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			lo, hi := suiteSeeds(t, 500, 503)
			for seed := lo; seed < hi; seed++ {
				ref := NewWithStore(NewSliceStore())
				sharded, err := NewSharded(EngineIndexed, n)
				if err != nil {
					t.Fatal(err)
				}
				driveSharedTagPair(t, seed, 1500, ref, sharded)
			}
		})
	}
}

// TestSingleShardMatchesUnsharded pins shards=1 to the exact behaviour
// of the unsharded constructor: same engine, same routing (everything
// on shard 0), same results — so turning the shard knob down to 1 is
// bit-identical to never having it.
func TestSingleShardMatchesUnsharded(t *testing.T) {
	lo, hi := suiteSeeds(t, 300, 306)
	for seed := lo; seed < hi; seed++ {
		unsharded := NewWithStore(NewIndexedStore())
		single, err := NewSharded(EngineIndexed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if single.Shards() != 1 || unsharded.Shards() != 1 {
			t.Fatalf("shard counts %d/%d, want 1/1", single.Shards(), unsharded.Shards())
		}
		driveSpacePair(t, seed, 1500, unsharded, single)
	}
}

// TestShardRoutingConsistency checks the routing invariant the sharded
// design rests on: a keyed template routes to the same shard as every
// entry it can match.
func TestShardRoutingConsistency(t *testing.T) {
	s, err := NewSharded(EngineIndexed, 16)
	if err != nil {
		t.Fatal(err)
	}
	g := &parityGen{rng: rand.New(rand.NewSource(42))}
	for i := 0; i < 2000; i++ {
		e := g.entry()
		tmpl := g.template()
		if !tuple.Matches(e, tmpl) {
			continue
		}
		if idx, keyed := s.TemplateShard(tmpl); keyed && idx != s.EntryShard(e) {
			t.Fatalf("entry %v routes to shard %d but matching keyed template %v to %d",
				e, s.EntryShard(e), tmpl, idx)
		}
	}
}

// TestIndexedStoreQueueCompaction hammers the out/in queue pattern on a
// single key — the worst case for tombstone accumulation — and checks
// the store neither leaks dead records without bound nor loses order.
func TestIndexedStoreQueueCompaction(t *testing.T) {
	s := NewIndexedStore()
	tmpl := tuple.T(tuple.Str("Q"), tuple.Any())
	for i := 0; i < 10000; i++ {
		s.Insert(tuple.T(tuple.Str("Q"), tuple.Int(int64(i))), uint64(i+1))
		got, _, ok := s.Find(tmpl, true)
		if !ok {
			t.Fatalf("iteration %d: queue empty", i)
		}
		if v, _ := got.Field(1).IntValue(); v != int64(i) {
			t.Fatalf("iteration %d: got %v, want FIFO order", i, got)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d, want 0", s.Len())
	}
	if len(s.order) > 2*compactMin {
		t.Errorf("order retains %d records after drain; compaction not keeping up", len(s.order))
	}
}

// TestIndexedStoreRestoresNonEntries checks a Restore carrying a
// non-entry tuple (possible only via a hostile snapshot) is stored
// verbatim and inert under matching, exactly like the slice store.
func TestIndexedStoreRestoresNonEntries(t *testing.T) {
	bad := tuple.T(tuple.Any(), tuple.Int(1))
	ref, idx := NewSliceStore(), NewIndexedStore()
	for _, st := range []Store{ref, idx} {
		st.Insert(bad, 1)
		st.Insert(tuple.T(tuple.Str("ok")), 2)
		if st.Len() != 2 {
			t.Fatalf("%s: len = %d, want 2 (verbatim storage)", st.Engine(), st.Len())
		}
		if _, _, ok := st.Find(tuple.T(tuple.Any(), tuple.Any()), false); ok {
			t.Errorf("%s: stored template matched a template", st.Engine())
		}
		if snap := st.Snapshot(); len(snap) != 2 || !snap[0].T.Equal(bad) {
			t.Errorf("%s: snapshot dropped or reordered non-entry", st.Engine())
		}
	}
}

// waiterCount sums parked waiter registrations across every shard.
func waiterCount(s *Space) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, list := range sh.waiters {
			n += len(list)
		}
		sh.mu.Unlock()
	}
	return n
}

// TestWaiterIndexLeakFree checks that served and cancelled waiters are
// removed from the shard indexes promptly (a served multi-shard waiter
// deregisters its remaining registrations right after delivery).
func TestWaiterIndexLeakFree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := NewSharded(EngineIndexed, shards)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 50; i++ {
					// Alternate keyed and wildcard-first templates so both
					// single-shard and all-shard registrations are exercised.
					tmpl := tuple.T(tuple.Str("W"), tuple.Any())
					if i%2 == 1 {
						tmpl = tuple.T(tuple.Any(), tuple.Any())
					}
					if _, err := s.In(bgCtx(t), tmpl); err != nil {
						t.Error(err)
					}
				}
			}()
			for i := 0; i < 50; i++ {
				for s.Len() != 0 || waiterCount(s) == 0 { // wait until the reader is parked
					time.Sleep(50 * time.Microsecond)
				}
				if err := s.Out(tuple.T(tuple.Str("W"), tuple.Int(int64(i)))); err != nil {
					t.Fatal(err)
				}
			}
			<-done
			deadline := time.Now().Add(2 * time.Second)
			for waiterCount(s) != 0 && time.Now().Before(deadline) {
				time.Sleep(50 * time.Microsecond)
			}
			if n := waiterCount(s); n != 0 {
				t.Errorf("%d waiters retained after all were served", n)
			}
		})
	}
}
