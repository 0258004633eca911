package bft

import (
	"peats/internal/metrics"
)

// MetricsEnabler is implemented by services that can register their
// own metric series (SpaceService instruments its tuple space, the
// durability engine, and the partition 2PC state). NewReplica invokes
// it with the replica's registry and identity label, so one knob —
// ReplicaConfig.Metrics — instruments the whole stack beneath a
// replica.
type MetricsEnabler interface {
	EnableMetrics(reg *metrics.Registry, labels ...metrics.Label)
}

// replicaMetrics holds the protocol-layer metric handles. Every handle
// is nil when the replica runs without a registry, and every operation
// on a nil handle no-ops — the agreement hot path pays one branch per
// site when metrics are off, a few uncontended atomic adds when on.
type replicaMetrics struct {
	batchesProposed  *metrics.Counter
	batchesExecuted  *metrics.Counter
	requestsExecuted *metrics.Counter
	batchFill        *metrics.Histogram
	batchDelay       *metrics.Histogram

	viewChanges    *metrics.Counter
	viewsInstalled *metrics.Counter

	tentativeExecuted  *metrics.Counter
	tentativePromoted  *metrics.Counter
	tentativeRollbacks *metrics.Counter

	checkpointsFull  *metrics.Counter
	checkpointsDelta *metrics.Counter
	stateServed      *metrics.Counter
	stateInstalled   *metrics.Counter

	roServed  *metrics.Counter
	roDropped *metrics.Counter
}

// initMetrics registers the replica's protocol metrics and wires
// scrape-time gauges over the atomic mirrors. Registration happens
// once, before Start; nothing here runs on the event loop. Metric
// values are observation only — they are never part of checkpoint
// digests or any replicated state, so two replicas may disagree on
// them freely.
func (r *Replica) initMetrics() {
	reg := r.cfg.Metrics
	if reg == nil {
		return
	}
	lbl := metrics.L("replica", r.cfg.ID)
	m := &r.m
	m.batchesProposed = reg.Counter("peats_bft_batches_proposed_total",
		"Batch proposals issued while primary.", lbl)
	m.batchesExecuted = reg.Counter("peats_bft_batches_executed_total",
		"Committed batches applied to the service.", lbl)
	m.requestsExecuted = reg.Counter("peats_bft_requests_executed_total",
		"Client operations inside committed batches (including duplicates).", lbl)
	m.batchFill = reg.Histogram("peats_bft_batch_fill",
		"Client operations per accepted batch.", metrics.SizeBuckets, lbl)
	m.batchDelay = reg.Histogram("peats_bft_batch_delay_seconds",
		"Queue time from first enqueued request to proposal, while primary.",
		metrics.DurationBuckets, lbl)
	m.viewChanges = reg.Counter("peats_bft_view_changes_total",
		"VIEW-CHANGE messages this replica initiated or joined.", lbl)
	m.viewsInstalled = reg.Counter("peats_bft_views_installed_total",
		"Views installed (NEW-VIEW processed or quorum-adopted).", lbl)
	m.tentativeExecuted = reg.Counter("peats_bft_tentative_executed_total",
		"Prepared batches executed tentatively, one round before commit.", lbl)
	m.tentativePromoted = reg.Counter("peats_bft_tentative_promoted_total",
		"Tentative units promoted to committed state.", lbl)
	m.tentativeRollbacks = reg.Counter("peats_bft_tentative_rollbacks_total",
		"Rollbacks discarding the unpromoted tentative overlay stack.", lbl)
	m.checkpointsFull = reg.Counter("peats_bft_checkpoints_full_total",
		"Full-snapshot checkpoints published.", lbl)
	m.checkpointsDelta = reg.Counter("peats_bft_checkpoints_delta_total",
		"Chained delta checkpoints published.", lbl)
	m.stateServed = reg.Counter("peats_bft_state_transfers_served_total",
		"State packs shipped to lagging peers.", lbl)
	m.stateInstalled = reg.Counter("peats_bft_state_transfers_installed_total",
		"Verified state packs installed over local state.", lbl)
	m.roServed = reg.Counter("peats_bft_readonly_served_total",
		"Read-only operations answered on the fast path.", lbl)
	m.roDropped = reg.Counter("peats_bft_readonly_dropped_total",
		"Read-only operations dropped at a full pool backlog (client falls back to ordered).", lbl)

	reg.GaugeFunc("peats_bft_view",
		"Current view number.",
		func() float64 { return float64(r.viewMirror.Load()) }, lbl)
	reg.GaugeFunc("peats_bft_executed_seq",
		"Highest committed sequence number executed.",
		func() float64 { return float64(r.executedMirror.Load()) }, lbl)
	reg.GaugeFunc("peats_bft_low_water_seq",
		"Last stable checkpoint sequence (log garbage-collection floor).",
		func() float64 { return float64(r.lowWaterMirror.Load()) }, lbl)
	reg.GaugeFunc("peats_bft_log_records",
		"Live protocol records (log entries, pending, assignments, queue, unverified).",
		func() float64 { return float64(r.recordsMirror.Load()) }, lbl)
	reg.GaugeFunc("peats_bft_tentative_depth",
		"Unpromoted tentative overlay units stacked above committed state.",
		func() float64 { return float64(r.tentDepthMirror.Load()) }, lbl)

	if me, ok := r.cfg.Service.(MetricsEnabler); ok {
		me.EnableMetrics(reg, lbl)
	}
}

// EnableMetrics implements MetricsEnabler: it instruments the tuple
// space, the durability engine (when present), and the partition 2PC
// state (when enabled, in either call order) under the given labels.
func (s *SpaceService) EnableMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	if reg == nil {
		return
	}
	s.metricsReg = reg
	s.metricsLabels = append([]metrics.Label(nil), labels...)
	s.inner.EnableMetrics(reg, labels...)
	if s.db != nil {
		s.db.EnableMetrics(reg, labels...)
	}
	if s.ptx != nil {
		s.ptx.enableMetrics(reg, labels...)
	}
}
