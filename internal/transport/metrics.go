package transport

import (
	"peats/internal/metrics"
)

// EnableMetrics registers the TCP transport's metric series. The load
// counters the transport already keeps (frames, writes, bytes, drops,
// backpressure, dials, peers down) are exposed as scrape-time counter functions
// over the same atomics; queue-depth gauges walk the peer lanes under
// their own locks. The only new hot-path cost is one histogram
// observation per coalesced write. A nil registry is a no-op.
func (t *TCP) EnableMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	if reg == nil {
		return
	}
	t.mFramesPerWrite = reg.Histogram("peats_transport_frames_per_write",
		"Frames coalesced into one write(2).", metrics.SizeBuckets, labels...)

	reg.CounterFunc("peats_transport_frames_sent_total",
		"Frames sealed and written to peer connections.",
		func() float64 { return float64(t.stats.framesSent.Load()) }, labels...)
	reg.CounterFunc("peats_transport_writes_total",
		"write(2) calls issued by the peer writers.",
		func() float64 { return float64(t.stats.writes.Load()) }, labels...)
	reg.CounterFunc("peats_transport_bytes_sent_total",
		"Wire bytes written to peer connections.",
		func() float64 { return float64(t.stats.bytesSent.Load()) }, labels...)
	reg.CounterFunc("peats_transport_frames_received_total",
		"MAC-verified inbound frames (bulk chunks count individually).",
		func() float64 { return float64(t.stats.framesRecv.Load()) }, labels...)
	reg.CounterFunc("peats_transport_proto_dropped_total",
		"Protocol-lane frames dropped oldest-first on overflow.",
		func() float64 { return float64(t.stats.protoDropped.Load()) }, labels...)
	reg.CounterFunc("peats_transport_backpressure_total",
		"Sends rejected (or degraded) with ErrBackpressure.",
		func() float64 { return float64(t.stats.backpressure.Load()) }, labels...)
	reg.CounterFunc("peats_transport_dials_total",
		"Outbound dial attempts, successful or not (redials included).",
		func() float64 { return float64(t.stats.dials.Load()) }, labels...)
	reg.CounterFunc("peats_transport_peers_down_total",
		"Peers reported unreachable: an established connection ended and the redial failed.",
		func() float64 { return float64(t.stats.peersDown.Load()) }, labels...)

	reg.GaugeFunc("peats_transport_connections",
		"Live connections (peer-pinned plus inbound).",
		func() float64 { return float64(t.Stats().Conns) }, labels...)
	for class := Class(0); class < numClasses; class++ {
		class := class
		laneLabels := append(append([]metrics.Label(nil), labels...),
			metrics.L("lane", class.String()))
		reg.GaugeFunc("peats_transport_queue_depth",
			"Frames queued in one priority lane across all peers.",
			func() float64 { return float64(t.queueDepth(class)) }, laneLabels...)
	}
}

// queueDepth sums one lane's queued frames across every peer. Scrape
// path only: it takes each peer's lock briefly, never the writer's
// coalescing path.
func (t *TCP) queueDepth(class Class) int {
	t.mu.Lock()
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	n := 0
	for _, p := range peers {
		p.mu.Lock()
		n += len(p.lanes[class])
		p.mu.Unlock()
	}
	return n
}
