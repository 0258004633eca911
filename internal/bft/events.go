package bft

// Protocol event tracing: a lightweight structured hook the sim
// harness, tests, and diagnostics subscribe to. Events fire on the
// replica event loop (never from the read-only pool), so a sink
// observes one replica's protocol history in exact execution order;
// sinks shared across replicas must synchronise internally. A sink
// must be fast and must never call back into the replica — it runs
// inside the event loop's critical path.

// EventType names one protocol event class.
type EventType string

const (
	// EventBatchProposed fires at the primary when it broadcasts a
	// batch proposal. N is the batch fill (operation count).
	EventBatchProposed EventType = "batch_proposed"
	// EventBatchAccepted fires when a replica accepts a verified batch
	// proposal into its log. N is the batch fill.
	EventBatchAccepted EventType = "batch_accepted"
	// EventPrepared fires when a batch reaches the local prepare quorum
	// (the replica casts its commit vote).
	EventPrepared EventType = "prepared"
	// EventExecuted fires when a committed batch is applied to the
	// service. N is the batch fill.
	EventExecuted EventType = "executed"
	// EventTentativeExecuted fires when a prepared batch executes into
	// the tentative overlay, one round before commit.
	EventTentativeExecuted EventType = "tentative_executed"
	// EventTentativePromoted fires when a tentative unit's commit
	// quorum lands and its overlay applies to real state.
	EventTentativePromoted EventType = "tentative_promoted"
	// EventTentativeRollback fires when the unpromoted overlay stack is
	// discarded (view change or state transfer). N is the number of
	// units discarded.
	EventTentativeRollback EventType = "tentative_rollback"
	// EventViewChangeStart fires when the replica abandons its view and
	// broadcasts a VIEW-CHANGE. Seq is unused; View is the target view;
	// N is the ViewChangeCause.
	EventViewChangeStart EventType = "view_change_start"
	// EventViewInstalled fires when a view installs (NEW-VIEW processed
	// or quorum-adopted). View is the installed view.
	EventViewInstalled EventType = "view_installed"
	// EventCheckpoint fires when the replica publishes a checkpoint at
	// Seq. N is 1 for a full snapshot, 0 for a chained delta.
	EventCheckpoint EventType = "checkpoint"
	// EventStateTransferInstalled fires when a verified state pack
	// replaces local state at Seq.
	EventStateTransferInstalled EventType = "state_transfer_installed"
)

// ViewChangeCause says why a replica abandoned a view: the answer to
// "why did the view change?" on the event stream, in the replica's log
// line and on /status.
type ViewChangeCause int

const (
	// CauseTimer: a pending request did not commit, or a view change did
	// not complete, within the view-change timeout.
	CauseTimer ViewChangeCause = iota + 1
	// CauseUnreachable: the transport reported the view's primary
	// unreachable while the replica was waiting on it.
	CauseUnreachable
	// CauseEquivocation: the primary proposed two batches for one
	// sequence number.
	CauseEquivocation
	// CauseJoined: f+1 replicas had already moved to the view.
	CauseJoined
)

func (c ViewChangeCause) String() string {
	switch c {
	case CauseTimer:
		return "timer"
	case CauseUnreachable:
		return "primary unreachable"
	case CauseEquivocation:
		return "equivocation"
	case CauseJoined:
		return "joined f+1"
	}
	return "none"
}

// Event is one structured protocol event.
type Event struct {
	// Replica is the emitting replica's identity.
	Replica string
	// Type is the event class.
	Type EventType
	// View and Seq locate the event in the protocol; Seq is 0 for
	// events without a sequence (view changes).
	View uint64
	Seq  uint64
	// N is a per-type small quantity (batch fill, units rolled back,
	// full-vs-delta flag); see the EventType docs.
	N int
}

// EventSink receives protocol events. See the package comment on
// events.go for the threading contract.
type EventSink func(Event)

// emit delivers one event to the configured sink, if any. Call only
// from the event loop (or before Start / after Stop).
func (r *Replica) emit(t EventType, seq uint64, n int) {
	if r.cfg.EventSink == nil {
		return
	}
	r.cfg.EventSink(Event{Replica: r.cfg.ID, Type: t, View: r.view, Seq: seq, N: n})
}
