package bft

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"time"

	"peats/internal/metrics"
)

// batchWork models the per-batch service work the agreement hot path
// does around the instrumentation sites: digesting each request (the
// replica MACs and hashes every message it orders) and churning the
// tuple map (execution inserts and withdraws entries). reqs matches
// the server's default -batch of 64.
func batchWork(seq uint64, store map[uint64][32]byte, buf []byte) {
	const reqs = 64
	for i := 0; i < reqs; i++ {
		binary.BigEndian.PutUint64(buf, seq+uint64(i))
		store[seq+uint64(i)] = sha256.Sum256(buf)
	}
	for i := 0; i < reqs; i++ {
		delete(store, seq+uint64(i))
	}
}

// hotBatch is one agreement round's worth of instrumentation exactly as
// replica.go places it: propose (counter + queue-delay histogram),
// accept (fill histogram), execute (two counters). With a nil registry
// every handle is nil and each site costs one branch.
func hotBatch(m *replicaMetrics, seq uint64, store map[uint64][32]byte, buf []byte) {
	var queuedAt time.Time
	if m.batchDelay != nil {
		queuedAt = time.Now()
	}
	batchWork(seq, store, buf)
	m.batchesProposed.Inc()
	if m.batchDelay != nil {
		m.batchDelay.Observe(time.Since(queuedAt).Seconds())
	}
	m.batchFill.Observe(64)
	m.batchesExecuted.Inc()
	m.requestsExecuted.Add(64)
}

func benchHotPath(b *testing.B, m *replicaMetrics) {
	store := make(map[uint64][32]byte, 128)
	buf := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hotBatch(m, uint64(i)*64, store, buf)
	}
}

func liveReplicaMetrics() *replicaMetrics {
	reg := metrics.New()
	lbl := metrics.L("replica", "bench")
	return &replicaMetrics{
		batchesProposed:  reg.Counter("peats_bft_batches_proposed_total", "", lbl),
		batchesExecuted:  reg.Counter("peats_bft_batches_executed_total", "", lbl),
		requestsExecuted: reg.Counter("peats_bft_requests_executed_total", "", lbl),
		batchFill:        reg.Histogram("peats_bft_batch_fill", "", metrics.SizeBuckets, lbl),
		batchDelay:       reg.Histogram("peats_bft_batch_delay_seconds", "", metrics.DurationBuckets, lbl),
	}
}

func BenchmarkMetricsOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		benchHotPath(b, &replicaMetrics{})
	})
	b.Run("enabled", func(b *testing.B) {
		benchHotPath(b, liveReplicaMetrics())
	})
}

// TestMetricsOverheadBound guards the tentpole's cost contract: the
// instrumented agreement hot path must stay within 3% of the
// uninstrumented one. Best of up to five attempts, since a single
// testing.Benchmark sample can catch a scheduling hiccup.
func TestMetricsOverheadBound(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	best := 0.0
	for attempt := 0; attempt < 5; attempt++ {
		off := testing.Benchmark(func(b *testing.B) {
			benchHotPath(b, &replicaMetrics{})
		})
		on := testing.Benchmark(func(b *testing.B) {
			benchHotPath(b, liveReplicaMetrics())
		})
		ratio := float64(on.NsPerOp()) / float64(off.NsPerOp())
		t.Logf("attempt %d: disabled %d ns/op, enabled %d ns/op, ratio %.4f",
			attempt, off.NsPerOp(), on.NsPerOp(), ratio)
		if attempt == 0 || ratio < best {
			best = ratio
		}
		if best <= 1.03 {
			return
		}
	}
	t.Errorf("metrics overhead ratio %.4f, want ≤ 1.03", best)
}
