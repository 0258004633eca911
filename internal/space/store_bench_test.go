package space_test

import (
	"fmt"
	"testing"

	"peats/internal/bench"
	"peats/internal/space"
	"peats/internal/tuple"
)

// Store benchmarks: slice vs indexed at 10 / 100 / 10k resident tuples
// with mixed arities, reporting ns/op for rdp, inp and cas. The probed
// template carries a defined first field (the tag), the shape every
// consensus object in this repository uses.
//
//	go test ./internal/space -bench=BenchmarkStore -benchmem

func storeEngines() []struct {
	name string
	mk   func() space.Store
} {
	return []struct {
		name string
		mk   func() space.Store
	}{
		{"slice", func() space.Store { return space.NewSliceStore() }},
		{"indexed", func() space.Store { return space.NewIndexedStore() }},
	}
}

var storeSizes = []int{10, 100, 10000}

func BenchmarkStoreRdp(b *testing.B) {
	tmpl := tuple.T(tuple.Str("needle"), tuple.Any())
	for _, eng := range storeEngines() {
		for _, size := range storeSizes {
			b.Run(fmt.Sprintf("%s/n=%d", eng.name, size), func(b *testing.B) {
				st := eng.mk()
				bench.StoreFill(st, size)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, ok := st.Find(tmpl, false); !ok {
						b.Fatal("needle not found")
					}
				}
			})
		}
	}
}

func BenchmarkStoreInp(b *testing.B) {
	tmpl := tuple.T(tuple.Str("needle"), tuple.Any())
	entry := tuple.T(tuple.Str("needle"), tuple.Int(0))
	for _, eng := range storeEngines() {
		for _, size := range storeSizes {
			b.Run(fmt.Sprintf("%s/n=%d", eng.name, size), func(b *testing.B) {
				st := eng.mk()
				seq := bench.StoreFill(st, size)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, ok := st.Find(tmpl, true); !ok {
						b.Fatal("needle not found")
					}
					st.Insert(entry, seq)
					seq++
				}
			})
		}
	}
}

func BenchmarkStoreCas(b *testing.B) {
	// cas on an absent tuple: the read always misses (full candidate
	// scan) and the insert runs every iteration; inp cleans up to keep
	// the resident size stable.
	tmpl := tuple.T(tuple.Str("absent"), tuple.Any())
	entry := tuple.T(tuple.Str("absent"), tuple.Int(1))
	for _, eng := range storeEngines() {
		for _, size := range storeSizes {
			b.Run(fmt.Sprintf("%s/n=%d", eng.name, size), func(b *testing.B) {
				st := eng.mk()
				seq := bench.StoreFill(st, size)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, ok := st.Find(tmpl, false); !ok {
						st.Insert(entry, seq)
						seq++
					}
					if _, _, ok := st.Find(tmpl, true); !ok {
						b.Fatal("cas entry vanished")
					}
				}
			})
		}
	}
}

// BenchmarkStoreSharedTag probes the shape every coordination object
// of the paper gives its state: n tuples <"LOCK", name_i, holder> under
// one tag, addressed by name. cas-miss is a lock cycle on a free name
// (the read misses, the insert runs, an inp of the entry cleans up);
// cas-hit reads the newest held lock through a formal holder; and
// inp-at-tail removes and re-inserts the newest tuple by value, the
// removal a committed unit applies.
func BenchmarkStoreSharedTag(b *testing.B) {
	for _, eng := range storeEngines() {
		for _, size := range []int{64, 4096, 65536} {
			fill := func() (space.Store, uint64) {
				st := eng.mk()
				for i := 0; i < size; i++ {
					st.Insert(lockTuple(fmt.Sprintf("name%d", i), tuple.Str(fmt.Sprintf("c%d", i%2))), uint64(i+1))
				}
				return st, uint64(size + 1)
			}
			last := fmt.Sprintf("name%d", size-1)
			b.Run(fmt.Sprintf("%s/%d/cas-miss", eng.name, size), func(b *testing.B) {
				st, seq := fill()
				tmpl, entry := lockTuple("free", tuple.Formal("h")), lockTuple("free", tuple.Str("c0"))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, ok := st.Find(tmpl, false); ok {
						b.Fatal("free lock is held")
					}
					st.Insert(entry, seq)
					seq++
					if _, _, ok := st.Find(entry, true); !ok {
						b.Fatal("acquired lock vanished")
					}
				}
			})
			b.Run(fmt.Sprintf("%s/%d/cas-hit", eng.name, size), func(b *testing.B) {
				st, _ := fill()
				tmpl := lockTuple(last, tuple.Formal("h"))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, ok := st.Find(tmpl, false); !ok {
						b.Fatal("held lock not found")
					}
				}
			})
			b.Run(fmt.Sprintf("%s/%d/inp-at-tail", eng.name, size), func(b *testing.B) {
				st, seq := fill()
				entry := lockTuple(last, tuple.Str(fmt.Sprintf("c%d", (size-1)%2)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, ok := st.Find(entry, true); !ok {
						b.Fatal("tail lock not found")
					}
					st.Insert(entry, seq)
					seq++
				}
			})
		}
	}
}

// BenchmarkStoreInsertBatch compares installing a 10k-tuple snapshot
// via per-tuple Insert against one InsertBatch call — the Restore /
// checkpoint-install path.
func BenchmarkStoreInsertBatch(b *testing.B) {
	const n = 10000
	tuples := make([]space.SeqTuple, n)
	for i := range tuples {
		tuples[i] = space.SeqTuple{
			Seq: uint64(i + 1),
			T:   tuple.T(tuple.Str(fmt.Sprintf("tag%d", i%17)), tuple.Int(int64(i))),
		}
	}
	for _, eng := range storeEngines() {
		b.Run(eng.name+"/insert", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := eng.mk()
				for _, st2 := range tuples {
					st.Insert(st2.T, st2.Seq)
				}
			}
		})
		b.Run(eng.name+"/insertbatch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := eng.mk()
				st.InsertBatch(tuples)
			}
		})
	}
}

// TestInsertBatchEquivalent holds InsertBatch to the Store contract:
// observationally identical to per-tuple Insert on both engines.
func TestInsertBatchEquivalent(t *testing.T) {
	tuples := make([]space.SeqTuple, 200)
	for i := range tuples {
		tuples[i] = space.SeqTuple{
			Seq: uint64(i + 2),
			T:   tuple.T(tuple.Str(fmt.Sprintf("tag%d", i%7)), tuple.Int(int64(i))),
		}
	}
	for _, eng := range storeEngines() {
		one, batch := eng.mk(), eng.mk()
		one.Insert(tuple.T(tuple.Str("pre")), 1)
		batch.Insert(tuple.T(tuple.Str("pre")), 1)
		for _, tu := range tuples {
			one.Insert(tu.T, tu.Seq)
		}
		batch.InsertBatch(tuples)
		if one.Len() != batch.Len() {
			t.Fatalf("%s: Len %d vs %d", eng.name, one.Len(), batch.Len())
		}
		a, b := one.Snapshot(), batch.Snapshot()
		for i := range a {
			if a[i].Seq != b[i].Seq || a[i].T.String() != b[i].T.String() {
				t.Fatalf("%s: snapshot diverges at %d: %v vs %v", eng.name, i, a[i], b[i])
			}
		}
		tmpl := tuple.T(tuple.Str("tag3"), tuple.Any())
		g1, s1, ok1 := one.Find(tmpl, true)
		g2, s2, ok2 := batch.Find(tmpl, true)
		if ok1 != ok2 || s1 != s2 || g1.String() != g2.String() {
			t.Fatalf("%s: Find diverges: %v/%v vs %v/%v", eng.name, g1, ok1, g2, ok2)
		}
	}
}

// TestIndexedSpeedupAtScale is the acceptance check for the engine: at
// 10k resident tuples the indexed store must beat the slice store by at
// least 5x on rdp and inp of a keyed template. It uses testing.Benchmark
// so the claim is enforced by `go test`, not just observable via -bench.
func TestIndexedSpeedupAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const n = 10000
	tmpl := tuple.T(tuple.Str("needle"), tuple.Any())
	entry := tuple.T(tuple.Str("needle"), tuple.Int(0))

	measure := func(mk func() space.Store, remove bool) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			st := mk()
			seq := bench.StoreFill(st, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := st.Find(tmpl, remove); !ok {
					b.Fatal("needle not found")
				}
				if remove {
					st.Insert(entry, seq)
					seq++
				}
			}
		})
		return float64(res.NsPerOp())
	}

	for _, op := range []struct {
		name   string
		remove bool
	}{{"rdp", false}, {"inp", true}} {
		slice := measure(func() space.Store { return space.NewSliceStore() }, op.remove)
		indexed := measure(func() space.Store { return space.NewIndexedStore() }, op.remove)
		speedup := slice / indexed
		t.Logf("%s at n=%d: slice %.0f ns/op, indexed %.0f ns/op, speedup %.1fx",
			op.name, n, slice, indexed, speedup)
		if speedup < 5 {
			t.Errorf("%s speedup %.1fx, want ≥ 5x", op.name, speedup)
		}
	}
}
