package wire

import (
	"fmt"

	"peats/internal/tuple"
)

// Delta is an incremental checkpoint: the ordered list of state-machine
// mutations executed since the previous checkpoint. Replicas of the
// replication substrate produce identical deltas for identical executed
// sequences (the space is a deterministic state machine), so a delta
// both extends the chained checkpoint digest and, applied to the
// previous checkpoint's state, reproduces the next one — which is what
// lets checkpointing cost O(changes) instead of O(space).
//
// Tuple mutations are value-addressed, not sequence-addressed: a
// removal names the removed tuple itself, and applying it removes the
// first stored tuple equal to that value (entries used as templates
// match exactly their own value, and identical tuples are consumed in
// ascending insertion order — the same rule the staged executor uses).
// That keeps deltas replica-independent: space-internal sequence
// numbers may differ across replicas after a state transfer, but
// insertion order, and therefore value-addressed application, never
// does.
//
// Partitioned deployments additionally journal 2PC *events* — a
// reservation parked by a YES prepare, a commit/abort decision, an
// aborted pin from a status probe — so the pending and decided
// transaction tables stay expressible incrementally instead of forcing
// a full snapshot per partition operation. Events replay through the
// same table transitions the source execution performed, in the same
// order relative to the tuple mutations, which reproduces both the
// tables and the reservation freezes exactly.
type Delta struct {
	Ops []DeltaOp
}

// DeltaOp kinds. Insert and Remove keep the values the legacy boolean
// encoding used (a remove flag written as one byte), so pre-partition
// deltas decode unchanged.
const (
	DeltaInsert  = 0 // insert tuple T
	DeltaRemove  = 1 // remove first stored tuple equal to T
	DeltaReserve = 2 // park a prepared transaction's reservation
	DeltaDecide  = 3 // apply a justified decision to a pending transaction
	DeltaPin     = 4 // pin an unknown transaction aborted (presumed abort)
)

// DeltaOp is one mutation of a delta. Kind selects which fields are
// meaningful: Insert/Remove carry T; Reserve carries TxID, Parts,
// Removed (by value), Inserts, and the stored YES outcome bytes;
// Decide carries TxID and Commit; Pin carries TxID.
type DeltaOp struct {
	Kind    uint8
	T       tuple.Tuple
	TxID    string
	Parts   []string
	Removed []tuple.Tuple
	Inserts []tuple.Tuple
	Outcome []byte
	Commit  bool
}

// MaxDeltaOps bounds decoded delta lengths so a malformed or hostile
// delta cannot force huge allocations. A checkpoint interval is at
// most window (1024) batches of at most maxBatch requests, but honest
// deltas are far smaller; the bound only needs to stop abuse.
const MaxDeltaOps = 1 << 20

// EncodeDelta returns the canonical encoding of d. Equal logical deltas
// encode to equal bytes — the chained checkpoint digest depends on it.
func EncodeDelta(d Delta) []byte {
	w := NewWriter()
	AppendDelta(w, d)
	return w.Data()
}

// AppendDelta writes d's canonical encoding to w, for a caller that
// sized the writer itself.
func AppendDelta(w *Writer, d Delta) {
	w.Uvarint(uint64(len(d.Ops)))
	for _, op := range d.Ops {
		w.Byte(op.Kind)
		switch op.Kind {
		case DeltaInsert, DeltaRemove:
			w.Tuple(op.T)
		case DeltaReserve:
			w.String(op.TxID)
			w.Uvarint(uint64(len(op.Parts)))
			for _, g := range op.Parts {
				w.String(g)
			}
			w.Uvarint(uint64(len(op.Removed)))
			for _, t := range op.Removed {
				w.Tuple(t)
			}
			w.Uvarint(uint64(len(op.Inserts)))
			for _, t := range op.Inserts {
				w.Tuple(t)
			}
			w.Bytes(op.Outcome)
		case DeltaDecide:
			w.String(op.TxID)
			w.Bool(op.Commit)
		case DeltaPin:
			w.String(op.TxID)
		default:
			panic(fmt.Sprintf("wire: encoding delta op of unknown kind %d", op.Kind))
		}
	}
}

// DecodeDelta parses an encoded delta. Like every wire decoder it faces
// bytes from possibly Byzantine peers: it may reject, but must never
// panic or over-allocate.
func DecodeDelta(b []byte) (Delta, error) {
	r := NewReader(b)
	count := r.Uvarint()
	if count > MaxDeltaOps {
		return Delta{}, fmt.Errorf("decode delta: %d ops", count)
	}
	var d Delta
	if count > 0 && r.Err() == nil {
		d.Ops = make([]DeltaOp, 0, min(count, 1024))
		for i := uint64(0); i < count; i++ {
			op, err := decodeDeltaOp(r)
			if err != nil {
				return Delta{}, fmt.Errorf("decode delta: op %d: %w", i, err)
			}
			if r.Err() != nil {
				break
			}
			d.Ops = append(d.Ops, op)
		}
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return Delta{}, fmt.Errorf("decode delta: %w", err)
	}
	return d, nil
}

// decodeDeltaOp reads one op. Structural bound violations are returned
// as errors; byte-level truncation surfaces through the reader's error
// state instead.
func decodeDeltaOp(r *Reader) (DeltaOp, error) {
	op := DeltaOp{Kind: r.Byte()}
	switch op.Kind {
	case DeltaInsert, DeltaRemove:
		op.T = r.Tuple()
	case DeltaReserve:
		op.TxID = r.String()
		if r.Err() == nil && (op.TxID == "" || len(op.TxID) > MaxTxID) {
			return DeltaOp{}, fmt.Errorf("reserve txID of %d bytes", len(op.TxID))
		}
		ng := r.Uvarint()
		if r.Err() == nil && (ng == 0 || ng > MaxTxParticipants) {
			return DeltaOp{}, fmt.Errorf("reserve with %d participants", ng)
		}
		for j := uint64(0); j < ng && r.Err() == nil; j++ {
			op.Parts = append(op.Parts, r.String())
		}
		nr := r.Uvarint()
		if r.Err() == nil && nr > MaxTxOps {
			return DeltaOp{}, fmt.Errorf("reserve with %d removals", nr)
		}
		for j := uint64(0); j < nr && r.Err() == nil; j++ {
			op.Removed = append(op.Removed, r.Tuple())
		}
		ni := r.Uvarint()
		if r.Err() == nil && ni > MaxTxOps {
			return DeltaOp{}, fmt.Errorf("reserve with %d inserts", ni)
		}
		for j := uint64(0); j < ni && r.Err() == nil; j++ {
			op.Inserts = append(op.Inserts, r.Tuple())
		}
		op.Outcome = r.Bytes()
	case DeltaDecide:
		op.TxID = r.String()
		if r.Err() == nil && (op.TxID == "" || len(op.TxID) > MaxTxID) {
			return DeltaOp{}, fmt.Errorf("decide txID of %d bytes", len(op.TxID))
		}
		op.Commit = r.Bool()
	case DeltaPin:
		op.TxID = r.String()
		if r.Err() == nil && (op.TxID == "" || len(op.TxID) > MaxTxID) {
			return DeltaOp{}, fmt.Errorf("pin txID of %d bytes", len(op.TxID))
		}
	default:
		return DeltaOp{}, fmt.Errorf("unknown kind %d", op.Kind)
	}
	return op, nil
}
