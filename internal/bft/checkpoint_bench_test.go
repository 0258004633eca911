package bft

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"peats/internal/durable"
	"peats/internal/policy"
	"peats/internal/transport"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// benchTuple is the benchmark workloads' resident tuple shape:
// <key, version, 32 bytes>.
func benchTuple(k int) tuple.Tuple {
	return tuple.T(tuple.Str(fmt.Sprintf("k%07d", k)), tuple.Int(1), tuple.Bytes(make([]byte, 32)))
}

// checkpointFixture is a stopped replica over a durable service holding
// resident tuples, all of them still in the log: its first checkpoint
// is a full one that also compacts — at any CompactEvery ≤ 1 grid, on
// this commit and on its parents.
func checkpointFixture(tb testing.TB, resident int) (*Replica, *SpaceService, string) {
	tb.Helper()
	dir := tb.TempDir()
	db, err := durable.Open(durable.Options{Dir: dir, AutoCompactBytes: -1})
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := NewDurableSpaceService(policy.AllowAll(), db, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { svc.Close() })
	for k := 0; k < resident; k++ {
		if err := svc.Space().Out(benchTuple(k)); err != nil {
			tb.Fatal(err)
		}
	}
	rep, err := NewReplica(ReplicaConfig{
		ID: "r0", Replicas: []string{"r0", "r1", "r2", "r3"}, F: 1,
		Transport:    transport.NewNetwork(7).Endpoint("r0"),
		Service:      svc,
		CompactEvery: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rep.initTimers()
	rep.executed = 64
	svc.Snapshot() // not the first snapshot of this size: the usual case
	return rep, svc, dir
}

// BenchmarkFullCheckpoint times makeCheckpoint at a boundary that takes
// both O(space) jobs: the full state snapshot and the durable engine's
// compaction.
func BenchmarkFullCheckpoint(b *testing.B) {
	for _, size := range []struct {
		name     string
		resident int
	}{{"1k", 1000}, {"10k", 10000}, {"100k", 100000}} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rep, _, _ := checkpointFixture(b, size.resident)
				runtime.GC()
				b.StartTimer()
				rep.makeCheckpoint(64)
			}
		})
	}
}

// BenchmarkDeltaCheckpoint times makeCheckpoint at a delta boundary
// after an interval that toggled ops tuples of a 10k-tuple in-memory
// space: the journal's encode, the chain digest, the client updates.
func BenchmarkDeltaCheckpoint(b *testing.B) {
	for _, ops := range []int{64, 4096} {
		b.Run(fmt.Sprint(ops), func(b *testing.B) {
			svc := NewSpaceService(policy.AllowAll())
			for k := 0; k < 10000; k++ {
				if err := svc.Space().Out(benchTuple(k)); err != nil {
					b.Fatal(err)
				}
			}
			rep, err := NewReplica(ReplicaConfig{
				ID: "r0", Replicas: []string{"r0", "r1", "r2", "r3"}, F: 1,
				Transport:    transport.NewNetwork(7).Endpoint("r0"),
				Service:      svc,
				CompactEvery: 1 << 20, // no grid point in reach
			})
			if err != nil {
				b.Fatal(err)
			}
			rep.initTimers()
			seq := uint64(64)
			rep.makeCheckpoint(seq) // whatever a first checkpoint is, it is behind us
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < ops; j++ {
					k := (i*ops + j) % 10000
					op := wire.SpaceOp{Op: policy.OpInp, Template: tuple.T(tuple.Str(fmt.Sprintf("k%07d", k)), tuple.Any(), tuple.Any())}
					if j%2 == 1 {
						op = wire.SpaceOp{Op: policy.OpOut, Entry: benchTuple(k - 1)}
					}
					svc.Execute("c", wire.EncodeSpaceOp(op))
					rep.dirtyClients["c"] = struct{}{}
				}
				seq += 64
				rep.executed = seq
				b.StartTimer()
				rep.makeCheckpoint(seq)
			}
		})
	}
}

// TestFullCheckpointAllocBytes guards the one-pass encoders: a full
// checkpoint that also compacts allocates little more than its outputs
// — the service snapshot, its copy inside the state snapshot, and the
// snapshot file's buffer. (The durable engine used to copy its mirror
// into a list, sort it and encode it twice over, the service to list
// the tuples before encoding them: about eight times the outputs.)
func TestFullCheckpointAllocBytes(t *testing.T) {
	rep, svc, dir := checkpointFixture(t, 10000)
	svcLen := len(svc.Snapshot())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep.makeCheckpoint(64)
	runtime.ReadMemStats(&after)

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want the one snapshot the checkpoint's compaction wrote, have %v (err %v)", snaps, err)
	}
	info, err := os.Stat(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.cpBaseSeq != 64 {
		t.Fatalf("the checkpoint at 64 did not re-base the chain (base at %d)", rep.cpBaseSeq)
	}
	outputs := uint64(svcLen) + uint64(info.Size())
	if got := after.TotalAlloc - before.TotalAlloc; got > 3*outputs {
		t.Fatalf("full checkpoint allocated %d bytes for %d bytes of snapshots (%.1fx, limit 3x)",
			got, outputs, float64(got)/float64(outputs))
	} else {
		t.Logf("full checkpoint allocated %d bytes for %d bytes of snapshots (%.2fx)", got, outputs, float64(got)/float64(outputs))
	}
}
