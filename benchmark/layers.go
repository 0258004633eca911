package main

import (
	"runtime"
	"sort"
	"time"

	"peats/internal/metrics"
)

// perLayerDefs are the metrics of single layers, from the traced run.
// The README says how each is taken from outside the program and which
// end-to-end metric it should move.
var perLayerDefs = []metricDef{
	// client: the generator's own stamps around Submit and Flush.
	{name: "client.service_us_p50", unit: "us", better: "lower"},
	{name: "client.queue_wait_us_p50", unit: "us", better: "lower"},
	{name: "client.p90_us", unit: "us", better: "lower"},
	{name: "client.p99_us", unit: "us", better: "lower"},
	{name: "client.read_p50_us", unit: "us", better: "lower"},
	{name: "client.write_p50_us", unit: "us", better: "lower"},
	{name: "client.flush_fill_mean", unit: "count", better: "higher"},
	{name: "client.frames_per_op", unit: "count", better: "lower"},
	{name: "client.late_frac", unit: "ratio", better: "lower"},
	{name: "client.backlog_end", unit: "count", better: "lower"},
	{name: "client.stale_reads", unit: "count", better: "lower"},
	// bft: the primary's registry and the order of calls its service sees.
	{name: "bft.send_to_prepared_us_p50", unit: "us", better: "lower"},
	{name: "bft.prepared_to_commit_us_p50", unit: "us", better: "lower"},
	{name: "bft.reply_us_p50", unit: "us", better: "lower"},
	{name: "bft.batch_fill_mean", unit: "count", better: "higher"},
	{name: "bft.batches_s", unit: "1/s", better: "lower"},
	{name: "bft.batch_wait_us_mean", unit: "us", better: "lower"},
	{name: "bft.checkpoints_full", unit: "count", better: "lower"},
	{name: "bft.checkpoints_delta", unit: "count", better: "lower"},
	{name: "bft.checkpoint_full_ms_mean", unit: "ms", better: "lower"},
	{name: "bft.checkpoint_busy_frac", unit: "ratio", better: "lower"},
	{name: "bft.view_changes", unit: "count", better: "lower"},
	{name: "bft.tentative_rollbacks", unit: "count", better: "lower"},
	{name: "bft.ro_fastpath_hit_frac", unit: "ratio", better: "higher"},
	// service: the wrapper around the primary's SpaceService.
	{name: "service.exec_us_per_op", unit: "us", better: "lower"},
	{name: "service.promote_us_per_batch", unit: "us", better: "lower"},
	{name: "service.commit_unit_us_per_batch", unit: "us", better: "lower"},
	{name: "service.ro_exec_us_per_op", unit: "us", better: "lower"},
	{name: "service.loop_busy_frac", unit: "ratio", better: "lower"},
	// space, peats, wire, auth: micro-probes on workload-shaped inputs.
	{name: "space.out_inp_ns", unit: "ns", better: "lower"},
	{name: "space.rdp_ns", unit: "ns", better: "lower"},
	{name: "space.lock_bucket_cas_ns", unit: "ns", better: "lower"},
	{name: "peats.submit_local_ns", unit: "ns", better: "lower"},
	{name: "wire.encode_op_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_op_ns", unit: "ns", better: "lower"},
	{name: "wire.req_bytes", unit: "B", better: "lower"},
	{name: "auth.mac_ns", unit: "ns", better: "lower"},
	{name: "auth.authvec_ns", unit: "ns", better: "lower"},
	// durable: the primary's registry, and probes on a scratch DB.
	{name: "durable.wal_bytes_per_op", unit: "B", better: "lower"},
	{name: "durable.fsyncs_s", unit: "1/s", better: "lower"},
	{name: "durable.units_per_fsync_mean", unit: "count", better: "higher"},
	{name: "durable.unit_commit_us", unit: "us", better: "lower"},
	{name: "durable.flush_ms_p50", unit: "ms", better: "lower"},
	{name: "durable.disk_bytes", unit: "B", better: "lower"},
	{name: "durable.recover_ms", unit: "ms", better: "lower"},
	// transport: every replica's counters, the wrapper, a ping-pong probe.
	{name: "transport.frames_per_op", unit: "count", better: "lower"},
	{name: "transport.bytes_per_op", unit: "B", better: "lower"},
	{name: "transport.frames_per_write", unit: "count", better: "higher"},
	{name: "transport.send_call_ns_p50", unit: "ns", better: "lower"},
	{name: "transport.backpressure", unit: "count", better: "lower"},
	{name: "transport.rtt_us_p50", unit: "us", better: "lower"},
	// proc: the whole process over the traced window.
	{name: "proc.cpu_user_s", unit: "s", better: "lower"},
	{name: "proc.cpu_sys_s", unit: "s", better: "lower"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "proc.heap_live_mb", unit: "MB", better: "lower"},
	{name: "proc.gomaxprocs", unit: "count", better: "higher"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// snapshot is the state of every counter read from outside at one
// instant; per-layer metrics are differences of two.
type snapshot struct {
	primary metrics.Snapshot // the registry ReplicaConfig.Metrics filled on r0
	// Transport counters summed over the four replicas, and over the
	// client connections.
	frames, bytes, writes, backpressure float64
	clientFrames                        float64
	mem                                 runtime.MemStats
	user, sys                           time.Duration
}

func (c *cluster) snapshot() snapshot {
	var s snapshot
	s.primary = c.nodes[0].reg.Snapshot()
	for _, n := range c.nodes {
		st := n.tr.Stats()
		s.frames += float64(st.FramesSent)
		s.bytes += float64(st.BytesSent)
		s.writes += float64(st.Writes)
		s.backpressure += float64(st.Backpressure)
	}
	for _, cn := range c.conns {
		s.clientFrames += float64(cn.tr.Stats().FramesSent)
	}
	runtime.ReadMemStats(&s.mem)
	s.user, s.sys = cpuTime()
	return s
}

// family sums a registry family over its series: the value of counters
// and gauges, and for histograms the observation count and sum.
func family(s metrics.Snapshot, name string) (value, count, sum float64) {
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, sr := range f.Series {
			value += sr.Value
			count += float64(sr.Count)
			sum += sr.Sum
		}
	}
	return
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// putPerLayer stores a per-layer metric under its declared unit; n is
// the number of samples behind v.
func putPerLayer(m map[string]value, name string, v float64, n int) {
	for _, d := range perLayerDefs {
		if d.name == name {
			m[name] = value{v, d.unit, n}
			return
		}
	}
	panic("undeclared per-layer metric " + name)
}

// perLayer fills in every per-layer metric but the probes', from the
// traced window w on cluster l and the untraced window beside it.
func perLayer(m map[string]value, w, untraced window, l *loaded, t *tracer) {
	seconds := (w.to - w.from).Seconds()
	ops := float64(len(w.samples))
	counter := func(name string) float64 {
		after, _, _ := family(w.end.primary, name)
		before, _, _ := family(w.before.primary, name)
		return after - before
	}
	histMean := func(name string) (mean, n float64) {
		_, c1, s1 := family(w.end.primary, name)
		_, c0, s0 := family(w.before.primary, name)
		return ratio(s1-s0, c1-c0), c1 - c0
	}
	put := func(name string, v float64, n int) { putPerLayer(m, name, v, n) }

	// client
	var service, wait, reads, writes []float64
	var fills, late, staleReads, nReads float64
	for _, sm := range w.samples {
		service = append(service, micros(sm.done-sm.sent))
		wait = append(wait, micros(sm.sent-sm.due))
		fills += 1 / float64(sm.fill) // each Flush counted once
		if sm.sent-sm.due > lateAfter {
			late++
		}
		if sm.read {
			nReads++
			reads = append(reads, micros(sm.done-sm.due))
		} else {
			writes = append(writes, micros(sm.done-sm.due))
		}
	}
	for _, s := range [][]float64{service, wait, reads, writes} {
		sort.Float64s(s)
	}
	for _, d := range l.drivers {
		staleReads += float64(d.gen.staleReads)
	}
	all := w.latencies()
	put("client.service_us_p50", percentile(service, 50), len(service))
	put("client.queue_wait_us_p50", percentile(wait, 50), len(wait))
	put("client.p90_us", percentile(all, 90), len(all))
	put("client.p99_us", percentile(all, 99), len(all))
	put("client.read_p50_us", percentile(reads, 50), len(reads))
	put("client.write_p50_us", percentile(writes, 50), len(writes))
	put("client.flush_fill_mean", ratio(ops, fills), int(fills))
	put("client.frames_per_op", ratio(w.end.clientFrames-w.before.clientFrames, ops), int(ops))
	put("client.late_frac", ratio(late, ops), int(ops))
	put("client.backlog_end", float64(w.backlogEnd), int(ops))
	put("client.stale_reads", staleReads, int(nReads))

	// bft
	t.mu.Lock()
	defer t.mu.Unlock()
	p50 := func(span string) (float64, int) {
		d := t.durations[span]
		sort.Float64s(d)
		return percentile(d, 50), len(d)
	}
	total := func(span string) (sum float64, n int) {
		for _, d := range t.durations[span] {
			sum += d
		}
		return sum, len(t.durations[span])
	}
	v, n := p50("bft.send_to_prepared")
	put("bft.send_to_prepared_us_p50", v, n)
	v, n = p50("bft.prepared_to_commit")
	put("bft.prepared_to_commit_us_p50", v, n)
	v, n = p50("bft.reply")
	put("bft.reply_us_p50", v, n)
	fill, batches := histMean("peats_bft_batch_fill")
	put("bft.batch_fill_mean", fill, int(batches))
	put("bft.batches_s", batches/seconds, int(batches))
	bwait, nwait := histMean("peats_bft_batch_delay_seconds")
	put("bft.batch_wait_us_mean", bwait*1e6, int(nwait))
	full := counter("peats_bft_checkpoints_full_total")
	delta := counter("peats_bft_checkpoints_delta_total")
	put("bft.checkpoints_full", full, int(full))
	put("bft.checkpoints_delta", delta, int(delta))
	snapUS, _ := total("service.snapshot")
	compactUS, _ := total("durable.compact")
	deltaUS, _ := total("service.checkpoint_delta")
	put("bft.checkpoint_full_ms_mean", ratio((snapUS+compactUS)/1e3, full), int(full))
	put("bft.checkpoint_busy_frac", (snapUS+compactUS+deltaUS)/1e6/seconds, int(full+delta))
	put("bft.view_changes", counter("peats_bft_view_changes_total"), int(batches))
	put("bft.tentative_rollbacks", counter("peats_bft_tentative_rollbacks_total"), int(batches))
	// A read that misses the fast path is ordered, so it shows up among
	// the executed requests beside the writes.
	fallbacks := counter("peats_bft_requests_executed_total") - (ops - nReads)
	hit := 1.0
	if nReads > 0 {
		hit = 1 - max(fallbacks, 0)/nReads
	}
	put("bft.ro_fastpath_hit_frac", hit, int(nReads))

	// service
	roUS, nRO := total("service.read_execute")
	promoteUS, nPromote := total("service.promote")
	commitUS, nCommit := total("durable.commit_unit")
	put("service.exec_us_per_op", ratio(micros(t.execBusy), float64(t.executed)), t.executed)
	put("service.promote_us_per_batch", ratio(promoteUS, float64(nPromote)), nPromote)
	put("service.commit_unit_us_per_batch", ratio(commitUS, float64(nCommit)), nCommit)
	put("service.ro_exec_us_per_op", ratio(roUS, float64(nRO)), nRO)
	put("service.loop_busy_frac", t.loopBusy.Seconds()/seconds, t.executed)

	// durable
	put("durable.wal_bytes_per_op", ratio(counter("peats_wal_bytes_total"), ops), int(ops))
	fsyncs := counter("peats_wal_fsyncs_total")
	put("durable.fsyncs_s", fsyncs/seconds, int(fsyncs))
	put("durable.units_per_fsync_mean", ratio(counter("peats_wal_units_total"), fsyncs), int(fsyncs))
	disk, _, _ := family(w.end.primary, "peats_durable_disk_bytes")
	put("durable.disk_bytes", disk, 1)

	// transport
	frames := w.end.frames - w.before.frames
	put("transport.frames_per_op", ratio(frames, ops), int(ops))
	put("transport.bytes_per_op", ratio(w.end.bytes-w.before.bytes, ops), int(ops))
	put("transport.frames_per_write", ratio(frames, w.end.writes-w.before.writes), int(frames))
	sort.Float64s(t.sendCalls)
	put("transport.send_call_ns_p50", percentile(t.sendCalls, 50), len(t.sendCalls))
	put("transport.backpressure", w.end.backpressure-w.before.backpressure, int(frames))

	// proc
	mem0, mem1 := &w.before.mem, &w.end.mem
	put("proc.cpu_user_s", (w.end.user - w.before.user).Seconds(), 1)
	put("proc.cpu_sys_s", (w.end.sys - w.before.sys).Seconds(), 1)
	put("proc.allocs_per_op", ratio(float64(mem1.Mallocs-mem0.Mallocs), ops), int(ops))
	put("proc.alloc_bytes_per_op", ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), ops), int(ops))
	put("proc.gc_cycles", float64(mem1.NumGC-mem0.NumGC), 1)
	put("proc.gc_pause_ms_total", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, int(mem1.NumGC-mem0.NumGC))
	put("proc.heap_live_mb", float64(w.heapLive)/(1<<20), 1)
	put("proc.gomaxprocs", float64(runtime.GOMAXPROCS(0)), 1)

	plain := float64(len(untraced.samples)) / (untraced.to - untraced.from).Seconds()
	put("trace.overhead_frac", ratio(plain-ops/seconds, plain), len(untraced.samples))
}
