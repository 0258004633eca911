package peats

// Benchmark harness: one bench family per experiment.
// Run everything with
//
//	go test -bench=. -benchmem .
//
// The absolute numbers depend on the host; the experiment claims are
// about shape (who wins, how costs scale with t, f and contention) and
// are asserted in the test suites. Custom metrics report the paper's
// units: bits stored, shared-memory operations, replicas contacted.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"peats/internal/acl"
	"peats/internal/auth"
	"peats/internal/bench"
	"peats/internal/bft"
	"peats/internal/consensus"
	"peats/internal/policy"
	"peats/internal/transport"
	"peats/internal/tuple"
	"peats/internal/universal"
)

// ---- E12: PEATS primitive operations, local space ----

func BenchmarkSpaceOut(b *testing.B) {
	s := NewSpace(AllowAll())
	h := s.Handle("p")
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if err := h.Out(ctx, T(Str("BENCH"), Int(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpaceRdp(b *testing.B) {
	s := NewSpace(AllowAll())
	h := s.Handle("p")
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := h.Out(ctx, T(Str("BENCH"), Int(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
	tmpl := T(Str("BENCH"), Formal("v"))
	b.ReportAllocs()
	for b.Loop() {
		if _, ok, err := h.Rdp(ctx, tmpl); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkSpaceCas(b *testing.B) {
	s := NewSpace(AllowAll())
	h := s.Handle("p")
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		tmpl := T(Str("C"), Int(int64(i)), Formal("x"))
		entry := T(Str("C"), Int(int64(i)), Int(1))
		if ins, _, err := h.Cas(ctx, tmpl, entry); err != nil || !ins {
			b.Fatal(ins, err)
		}
	}
}

// ---- Ablation: reference-monitor overhead (§7's "little extra
// processing") — the same workload with and without policy evaluation.

func BenchmarkPolicyOverhead(b *testing.B) {
	run := func(b *testing.B, pol Policy) {
		s := NewSpace(pol)
		h := s.Handle("p0")
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			entry := T(Str("PROPOSE"), Str("p0"), Int(int64(i)))
			if err := h.Out(ctx, entry); err != nil {
				b.Fatal(err)
			}
			if _, _, err := h.Rdp(ctx, T(Str("PROPOSE"), Str("p0"), Formal("v"))); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("allow-all", func(b *testing.B) { run(b, AllowAll()) })
	b.Run("stateful-policy", func(b *testing.B) {
		// A strong-consensus-shaped policy with state-dependent rules,
		// relaxed to admit the benchmark's repeated proposals.
		pol := NewPolicy(
			Rule{Name: "Rrdp", Op: policy.OpRdp, When: policy.Always},
			Rule{Name: "Rout", Op: policy.OpOut, When: policy.And(
				policy.EntryArity(3),
				policy.EntryField(0, Str("PROPOSE")),
				policy.EntryFieldIsInvoker(1),
			)},
		)
		run(b, pol)
	})
}

// ---- E4: weak consensus (Alg. 1) ----

func BenchmarkWeakConsensus(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		s := NewSpace(consensus.WeakPolicy())
		c := consensus.NewWeak(s.Handle("p0"))
		if _, err := c.Propose(ctx, Int(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E1/E8: strong consensus (Alg. 2) across fault bounds, with the
// paper's units as custom metrics ----

func BenchmarkStrongConsensus(b *testing.B) {
	for _, t := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			ctx := context.Background()
			var lastRun bench.StrongRun
			for b.Loop() {
				run, err := bench.RunStrongConsensus(ctx, t)
				if err != nil {
					b.Fatal(err)
				}
				lastRun = run
			}
			b.ReportMetric(float64(lastRun.MeasuredBits), "space-bits")
			b.ReportMetric(float64(lastRun.Outs+lastRun.Reads+lastRun.Cas), "shm-ops")
			b.ReportMetric(float64(acl.PEATSBits(lastRun.N, t)), "paper-bits")
		})
	}
}

// ---- E5: default multivalued consensus ----

func BenchmarkDefaultConsensus(b *testing.B) {
	const t = 1
	procs := []ProcessID{"p0", "p1", "p2", "p3"}
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		s := NewSpace(consensus.DefaultPolicy(procs, t))
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := consensus.NewDefault(s.Handle(procs[i]), consensus.DefaultConfig{
					Self: procs[i], Procs: procs, T: t,
					PollInterval: 50 * time.Microsecond,
				})
				if err != nil {
					b.Error(err)
					return
				}
				if _, err := c.Propose(ctx, 7); err != nil {
					b.Error(err)
				}
			}(i)
		}
		wg.Wait()
	}
}

// ---- E8 baseline: sticky-bit/ACL grouped consensus ----

func BenchmarkACLStickyConsensus(b *testing.B) {
	for _, t := range []int{1, 2} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			ctx := context.Background()
			var ops int64
			var procs int
			for b.Loop() {
				c := acl.NewGroupedConsensus(t, 50*time.Microsecond)
				n := len(c.Procs())
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						if _, err := c.Propose(ctx, i, int64(i%2)); err != nil {
							b.Error(err)
						}
					}(i)
				}
				wg.Wait()
				ops, procs = c.TotalOps(), n
			}
			b.ReportMetric(float64(ops), "shm-ops")
			b.ReportMetric(float64(procs), "processes")
		})
	}
}

// ---- E6: lock-free universal construction ----

func BenchmarkLockFreeUniversalSolo(b *testing.B) {
	s := NewSpace(universal.LockFreePolicy())
	u := universal.NewLockFree(s.Handle("p0"), universal.CounterType{})
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := u.Invoke(ctx, universal.CounterInc()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLockFreeUniversalContended(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			s := NewSpace(universal.LockFreePolicy())
			ctx := context.Background()
			var wg sync.WaitGroup
			per := b.N/procs + 1
			b.ResetTimer()
			for p := 0; p < procs; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					id := ProcessID(fmt.Sprintf("p%d", p))
					u := universal.NewLockFree(s.Handle(id), universal.CounterType{})
					for i := 0; i < per; i++ {
						if _, err := u.Invoke(ctx, universal.CounterInc()); err != nil {
							b.Error(err)
							return
						}
					}
				}(p)
			}
			wg.Wait()
		})
	}
}

// ---- E7 + helping-overhead ablation: wait-free universal construction ----

func BenchmarkWaitFreeUniversalSolo(b *testing.B) {
	// Compare directly against BenchmarkLockFreeUniversalSolo: the
	// difference is the cost of the ANN announce/withdraw protocol and
	// the helping checks when there is no contention.
	procs := []ProcessID{"p0", "p1", "p2"}
	s := NewSpace(universal.WaitFreePolicy(procs))
	u, err := universal.NewWaitFree(s.Handle("p0"), universal.CounterType{}, "p0", procs)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := u.Invoke(ctx, universal.CounterInc()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaitFreeUniversalContended(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			ids := make([]ProcessID, procs)
			for i := range ids {
				ids[i] = ProcessID(fmt.Sprintf("p%d", i))
			}
			s := NewSpace(universal.WaitFreePolicy(ids))
			ctx := context.Background()
			var wg sync.WaitGroup
			per := b.N/procs + 1
			b.ResetTimer()
			for p := 0; p < procs; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					u, err := universal.NewWaitFree(s.Handle(ids[p]), universal.CounterType{}, ids[p], ids)
					if err != nil {
						b.Error(err)
						return
					}
					for i := 0; i < per; i++ {
						if _, err := u.Invoke(ctx, universal.CounterInc()); err != nil {
							b.Error(err)
							return
						}
					}
				}(p)
			}
			wg.Wait()
		})
	}
}

// ---- E9/E12 + quorum ablation: replicated PEATS ----

func benchCluster(b *testing.B, f int) *bft.Cluster {
	b.Helper()
	n := 3*f + 1
	services := make([]bft.Service, n)
	for i := range services {
		services[i] = bft.NewSpaceService(policy.AllowAll())
	}
	cl, err := bft.NewCluster(f, services)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Stop)
	return cl
}

func BenchmarkReplicatedOut(b *testing.B) {
	for _, f := range []int{1, 2} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			cl := benchCluster(b, f)
			ts := bft.NewRemoteSpace(cl.Client("bench"))
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; b.Loop(); i++ {
				if err := ts.Out(ctx, T(Str("R"), Int(int64(i)))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(3*f+1), "replicas")
		})
	}
}

func BenchmarkReplicatedCas(b *testing.B) {
	cl := benchCluster(b, 1)
	ts := bft.NewRemoteSpace(cl.Client("bench"))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		tmpl := T(Str("C"), Int(int64(i)), Formal("x"))
		entry := T(Str("C"), Int(int64(i)), Int(1))
		if ins, _, err := ts.Cas(ctx, tmpl, entry); err != nil || !ins {
			b.Fatal(ins, err)
		}
	}
}

func BenchmarkReplicatedPayload(b *testing.B) {
	for _, size := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			cl := benchCluster(b, 1)
			ts := bft.NewRemoteSpace(cl.Client("bench"))
			ctx := context.Background()
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; b.Loop(); i++ {
				if err := ts.Out(ctx, T(Str("P"), Int(int64(i)), Bytes(payload))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicatedOutTCP measures the replicated space over real TCP
// loopback with HMAC-authenticated frames (the deployment substrate of
// cmd/peats-server).
func BenchmarkReplicatedOutTCP(b *testing.B) {
	const f = 1
	ids := []string{"r0", "r1", "r2", "r3"}
	master := []byte("bench-master")
	everyone := append([]string{"bench"}, ids...)

	addrs := make(map[string]string)
	trs := make([]*transport.TCP, 0, len(ids))
	for _, id := range ids {
		kr := auth.NewKeyringFromMaster(master, id, everyone)
		tr, err := transport.NewTCP(id, "127.0.0.1:0", addrs, kr)
		if err != nil {
			b.Fatal(err)
		}
		trs = append(trs, tr)
		addrs[id] = tr.Addr()
	}
	for _, tr := range trs {
		for id, addr := range addrs {
			tr.SetPeerAddr(id, addr)
		}
	}
	var reps []*bft.Replica
	for i, id := range ids {
		rep, err := bft.NewReplica(bft.ReplicaConfig{
			ID: id, Replicas: ids, F: f,
			Transport: trs[i],
			Service:   bft.NewSpaceService(policy.AllowAll()),
		})
		if err != nil {
			b.Fatal(err)
		}
		rep.Start()
		reps = append(reps, rep)
	}
	kr := auth.NewKeyringFromMaster(master, "bench", everyone)
	ctr, err := transport.NewTCP("bench", "127.0.0.1:0", addrs, kr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
		for _, tr := range trs {
			_ = tr.Close()
		}
		_ = ctr.Close()
	})
	ts := bft.NewRemoteSpace(bft.NewClient(ctr, ids, f))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		if err := ts.Out(ctx, T(Str("TCP"), Int(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E11: two-process consensus on a plain tuple space ----

func BenchmarkTwoProcessConsensus(b *testing.B) {
	ctx := context.Background()
	for b.Loop() {
		s := consensus.NewTwoProcessSpace("a", "b")
		c := consensus.NewTwoProcess(s.Handle("a"), "a", "b")
		if _, err := c.Propose(ctx, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Raw building blocks, for profile orientation ----

func BenchmarkTupleMatch(b *testing.B) {
	entry := tuple.T(tuple.Str("PROPOSE"), tuple.Str("p12"), tuple.Int(1))
	tmpl := tuple.T(tuple.Str("PROPOSE"), tuple.Any(), tuple.Formal("v"))
	b.ReportAllocs()
	for b.Loop() {
		if !tuple.Matches(entry, tmpl) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkTupleEncode(b *testing.B) {
	tu := tuple.T(tuple.Str("SEQ"), tuple.Int(123456), tuple.Bytes(make([]byte, 64)))
	b.ReportAllocs()
	for b.Loop() {
		if len(tuple.Encode(tu)) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

func BenchmarkHMACFrame(b *testing.B) {
	kr := auth.NewKeyringFromMaster([]byte("m"), "a", []string{"a", "b"})
	msg := make([]byte, 256)
	b.SetBytes(256)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := kr.MAC("b", msg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Storage engines (slice reference vs indexed default) ----
//
// One bench per (engine, size, op) through the public PEATS API, so the
// measured path includes the reference monitor — the cost a real client
// pays. The probed tuple sits behind size-1 others of mixed arities,
// the linear scan's worst case.

func engineSpace(b *testing.B, eng StoreEngine, size int) *Handle {
	b.Helper()
	s := NewSpace(AllowAll(), WithStore(eng))
	h := s.Handle("bench")
	ctx := context.Background()
	for i := 0; i < size-1; i++ {
		tag := fmt.Sprintf("tag%d", i%17)
		var t Tuple
		if i%2 == 0 {
			t = T(Str(tag), Int(int64(i)))
		} else {
			t = T(Str(tag), Int(int64(i)), Bool(true))
		}
		if err := h.Out(ctx, t); err != nil {
			b.Fatal(err)
		}
	}
	if err := h.Out(ctx, T(Str("needle"), Int(0))); err != nil {
		b.Fatal(err)
	}
	return h
}

func BenchmarkEngineRdp(b *testing.B) {
	ctx := context.Background()
	tmpl := T(Str("needle"), Any())
	for _, eng := range []StoreEngine{SliceStore, IndexedStore} {
		for _, size := range []int{10, 100, 10000} {
			b.Run(fmt.Sprintf("%s/n=%d", eng, size), func(b *testing.B) {
				h := engineSpace(b, eng, size)
				b.ReportAllocs()
				b.ResetTimer()
				for b.Loop() {
					if _, ok, err := h.Rdp(ctx, tmpl); err != nil || !ok {
						b.Fatal("needle not found")
					}
				}
			})
		}
	}
}

func BenchmarkEngineInp(b *testing.B) {
	ctx := context.Background()
	tmpl := T(Str("needle"), Any())
	entry := T(Str("needle"), Int(0))
	for _, eng := range []StoreEngine{SliceStore, IndexedStore} {
		for _, size := range []int{10, 100, 10000} {
			b.Run(fmt.Sprintf("%s/n=%d", eng, size), func(b *testing.B) {
				h := engineSpace(b, eng, size)
				b.ReportAllocs()
				b.ResetTimer()
				for b.Loop() {
					if _, ok, err := h.Inp(ctx, tmpl); err != nil || !ok {
						b.Fatal("needle not found")
					}
					if err := h.Out(ctx, entry); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkEngineCas(b *testing.B) {
	ctx := context.Background()
	tmpl := T(Str("absent"), Any())
	entry := T(Str("absent"), Int(1))
	for _, eng := range []StoreEngine{SliceStore, IndexedStore} {
		for _, size := range []int{10, 100, 10000} {
			b.Run(fmt.Sprintf("%s/n=%d", eng, size), func(b *testing.B) {
				h := engineSpace(b, eng, size)
				b.ReportAllocs()
				b.ResetTimer()
				for b.Loop() {
					ins, _, err := h.Cas(ctx, tmpl, entry)
					if err != nil || !ins {
						b.Fatal("cas did not insert")
					}
					if _, ok, err := h.Inp(ctx, tmpl); err != nil || !ok {
						b.Fatal("cas entry vanished")
					}
				}
			})
		}
	}
}
