// Package bft implements the replication substrate of Fig. 2: a
// PBFT-style Byzantine fault-tolerant state machine replication
// protocol, built from scratch on the transport and auth packages, that
// turns the deterministic PEATS-plus-reference-monitor state machine
// into a single dependable linearizable shared object for an open set
// of (possibly Byzantine) client processes.
//
// The protocol follows Castro-Liskov PBFT with MAC-authenticated
// channels: n = 3f+1 replicas, a primary per view, the three-phase
// pre-prepare/prepare/commit agreement with 2f+1 quorums, periodic
// checkpoints with state transfer for laggards, view changes driven by
// request timers, and clients that accept a result once 2f+1 distinct
// replicas report the same bytes (the threshold that keeps the
// read-only optimization linearizable; see Client).
//
// Two Castro-Liskov throughput optimizations are implemented on top of
// the base protocol:
//
//   - Batching and pipelining: the unit of agreement is a Batch — an
//     ordered list of client requests under a single digest and
//     sequence number. The primary accumulates concurrently arriving
//     requests and assigns sequence numbers without waiting for earlier
//     batches to commit, pipelined up to the water-mark window. BATCH
//     is the only proposal message: a request proposed alone is a
//     batch of one.
//
//   - Read-only fast path: clients send non-mutating operations as
//     READ-ONLY messages; replicas execute them against their current
//     committed state without ordering and reply with a read-only flag;
//     the client accepts once 2f+1 distinct replicas report
//     byte-identical results, falling back to ordered execution
//     otherwise.
//
// Simplifications relative to the full PBFT paper, none of which affect
// the experiments: view-change messages carry the batches of prepared
// requests directly (channel MACs stand in for the per-message
// proof sets), and the low/high water mark window is a fixed constant.
package bft

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"peats/internal/auth"
	"peats/internal/wire"
)

// MsgType discriminates protocol messages on the wire.
type MsgType uint8

// Protocol message types.
const (
	MsgRequest MsgType = iota + 1
	// 2 was the single-request PRE-PREPARE. It stays unassigned so a
	// stale frame is rejected rather than parsed as something else.
	_
	MsgPrepare
	MsgCommit
	MsgReply
	MsgCheckpoint
	MsgViewChange
	MsgNewView
	MsgStateRequest
	MsgStateResponse
	MsgBatch
	MsgReadOnly
	MsgSeqRequest
	MsgViewChangeAck
)

// String returns the PBFT name of the message type.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "REQUEST"
	case MsgPrepare:
		return "PREPARE"
	case MsgCommit:
		return "COMMIT"
	case MsgReply:
		return "REPLY"
	case MsgCheckpoint:
		return "CHECKPOINT"
	case MsgViewChange:
		return "VIEW-CHANGE"
	case MsgNewView:
		return "NEW-VIEW"
	case MsgStateRequest:
		return "STATE-REQUEST"
	case MsgStateResponse:
		return "STATE-RESPONSE"
	case MsgBatch:
		return "BATCH"
	case MsgReadOnly:
		return "READ-ONLY"
	case MsgSeqRequest:
		return "SEQ-REQUEST"
	case MsgViewChangeAck:
		return "VIEW-CHANGE-ACK"
	default:
		return fmt.Sprintf("MSG(%d)", uint8(t))
	}
}

// Request is a client's submission for ordering: a window of one or
// more operations under the consecutive request IDs ReqID, ReqID+1, ….
// Op is the first operation and Tail the rest, in submission order. The
// window is the unit at the client edge the way Batch is in the core:
// it has one digest, one authenticator vector, one place in the primary's
// queue and one Reply per phase, and replicas order, execute and
// de-duplicate it whole — its operations run contiguously and in order
// inside one batch, each succeeding or aborting on its own. A window of
// one (Tail empty) encodes, digests and authenticates exactly as a
// single-operation request always did.
//
// Auth is an optional authenticator vector: Auth[i] is the HMAC of the
// request digest under the pairwise key the client shares with the i-th
// replica of the group. It lets a backup vouch for a request it only
// saw inside the primary's batch (the client sent it to the primary
// alone), closing the forgery window that hop-by-hop channel MACs leave
// open. Requests without a vector fall back to first-hand verification
// (the client broadcasts and retransmits). The vector is excluded from
// the digest: the digest identifies the operations, not their transport
// proof.
type Request struct {
	Client string
	ReqID  uint64
	Op     []byte
	Auth   [][]byte
	// Group names the replica group the request is addressed to in a
	// partitioned deployment. It is part of the digest, so a request
	// MAC-bound to one group cannot be replayed against another;
	// replicas configured with a group identity drop requests addressed
	// elsewhere. Empty in single-group deployments.
	Group string
	// Tail holds the window's operations after Op: Tail[i] runs under
	// request ID ReqID+1+i. At most maxWindow-1 entries.
	Tail [][]byte
}

// maxWindow bounds the operations one Request may carry (Op plus Tail).
// Clients split longer flushes into several windows and decoders reject
// anything larger, so a single frame cannot force unbounded work.
const maxWindow = 64

// ops returns the number of operations (and request IDs) in the window.
func (r Request) ops() int { return 1 + len(r.Tail) }

// opAt returns the window's i-th operation, the one under ReqID+i.
func (r Request) opAt(i int) []byte {
	if i == 0 {
		return r.Op
	}
	return r.Tail[i-1]
}

// lastID returns the window's last request ID.
func (r Request) lastID() uint64 { return r.ReqID + uint64(len(r.Tail)) }

// Digest returns the canonical digest identifying the request. The
// encoding is assembled in a stack buffer, or for a window that would
// overflow it in one buffer sized up front: digests are recomputed on
// every hot-path hop, so a typical one-op request must not allocate and
// a window must not climb append's growth ladder.
func (r Request) Digest() [32]byte {
	var arr [192]byte
	buf := arr[:0]
	if n := r.encodedLen(); n > len(arr) {
		buf = make([]byte, 0, n)
	}
	return auth.Digest(appendRequest(buf, r))
}

// encodedLen returns the length of the canonical encoding.
func (r Request) encodedLen() int {
	n := bytesLen(len(r.Client)) + uvarintLen(r.ReqID) + bytesLen(len(r.Op)) + bytesLen(len(r.Group))
	if len(r.Tail) > 0 {
		n += uvarintLen(uint64(len(r.Tail)))
		for _, op := range r.Tail {
			n += bytesLen(len(op))
		}
	}
	return n
}

// uvarintLen returns the encoded length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// bytesLen returns the encoded length of an n-byte length-prefixed
// string.
func bytesLen(n int) int { return uvarintLen(uint64(n)) + n }

// appendRequest appends the canonical (digest) encoding: the
// authenticator vector is deliberately not part of it. The tail follows
// the fields of a one-op request and is omitted when empty, so a window
// of one keeps the encoding — and digest — it always had. The encoding
// stays injective: every field before the tail is length-prefixed, so
// what remains is either nothing or exactly one tail.
func appendRequest(buf []byte, r Request) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r.Client)))
	buf = append(buf, r.Client...)
	buf = binary.AppendUvarint(buf, r.ReqID)
	buf = binary.AppendUvarint(buf, uint64(len(r.Op)))
	buf = append(buf, r.Op...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Group)))
	buf = append(buf, r.Group...)
	if len(r.Tail) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(r.Tail)))
		for _, op := range r.Tail {
			buf = binary.AppendUvarint(buf, uint64(len(op)))
			buf = append(buf, op...)
		}
	}
	return buf
}

// encodeRequest is the canonical (digest) encoding as a fresh slice.
func encodeRequest(r Request) []byte {
	return appendRequest(make([]byte, 0, r.encodedLen()), r)
}

func decodeRequest(r *wire.Reader) (Request, error) {
	req := Request{Client: r.String(), ReqID: r.Uvarint(), Op: r.Bytes(), Group: r.String()}
	if r.Err() != nil || r.Remaining() == 0 {
		return req, r.Err()
	}
	count := r.Uvarint()
	if count == 0 || count > maxWindow-1 {
		return Request{}, fmt.Errorf("request window of 1+%d operations", count)
	}
	req.Tail = make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		req.Tail = append(req.Tail, r.Bytes())
	}
	return req, r.Err()
}

// maxAuth bounds decoded authenticator vectors (one entry per replica).
const maxAuth = 1 << 10

// encodeRequestWire writes the full wire form: canonical encoding plus
// the authenticator vector.
func encodeRequestWire(w *wire.Writer, r Request) {
	w.Bytes(encodeRequest(r))
	w.Uvarint(uint64(len(r.Auth)))
	for _, a := range r.Auth {
		w.Bytes(a)
	}
}

func decodeRequestWire(r *wire.Reader) (Request, error) {
	// The nested body is parsed in place: decodeRequest copies what it
	// retains (the operations, Client), so no defensive copy of the body
	// is needed.
	body := wire.NewReader(r.BytesView())
	req, err := decodeRequest(body)
	if err == nil {
		body.ExpectEOF()
		err = body.Err()
	}
	if err != nil {
		return Request{}, fmt.Errorf("decode request: %w", err)
	}
	count := r.Uvarint()
	if count > maxAuth {
		return Request{}, fmt.Errorf("request with %d authenticators", count)
	}
	if count > 0 {
		// The authenticators alias the receiver-owned payload: each
		// replica ever reads only its own slot, so copying the whole
		// vector per hop would be pure overhead.
		req.Auth = make([][]byte, 0, count)
		for i := uint64(0); i < count; i++ {
			req.Auth = append(req.Auth, r.BytesView())
		}
	}
	return req, nil
}

// encodeWindowResults is the Result a Reply carries for a window: the
// operation's own result bytes for a window of one — what a one-op
// request was always answered with — and a counted list otherwise.
func encodeWindowResults(results [][]byte) []byte {
	if len(results) == 1 {
		return results[0]
	}
	size := uvarintLen(uint64(len(results)))
	for _, res := range results {
		size += bytesLen(len(res))
	}
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(len(results)))
	for _, res := range results {
		buf = binary.AppendUvarint(buf, uint64(len(res)))
		buf = append(buf, res...)
	}
	return buf
}

// decodeWindowResults splits the Result of a reply to a window of
// len(dst) operations into dst.
func decodeWindowResults(dst [][]byte, raw []byte) error {
	if len(dst) == 1 {
		dst[0] = raw
		return nil
	}
	r := wire.NewReader(raw)
	if count := r.Uvarint(); r.Err() == nil && count != uint64(len(dst)) {
		return fmt.Errorf("%d results for a window of %d", count, len(dst))
	}
	for i := range dst {
		dst[i] = r.Bytes()
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return fmt.Errorf("decode window results: %w", err)
	}
	return nil
}

// Batch is the unit of agreement and the primary's ordering proposal
// (PBFT's pre-prepare): an ordered list of client requests under a
// single digest and sequence number. See BatchDigest for the digest.
type Batch struct {
	View   uint64
	Seq    uint64
	Digest [32]byte
	Reqs   []Request
}

// ops returns the number of operations the batch orders: its requests'
// windows summed (the no-op filler counts as one).
func (b Batch) ops() int {
	n := 0
	for _, req := range b.Reqs {
		n += req.ops()
	}
	return n
}

// BatchDigest returns the canonical digest of an ordered request list:
// the digest of the concatenated request digests. For a single request
// it is the request digest itself — the NEW-VIEW no-op filler is
// proposed under its request digest, and a request re-proposed alone
// after a view change keeps the digest its prepared certificate names.
func BatchDigest(reqs []Request) [32]byte {
	ds := make([][32]byte, len(reqs))
	for i, r := range reqs {
		ds[i] = r.Digest()
	}
	return batchDigestFrom(ds)
}

// batchDomain separates the multi-request batch-digest preimage from
// the request-digest preimage space. A request preimage begins with a
// canonical uvarint (the client-name length), and no canonical uvarint
// byte can be 0xff in terminal position — so no encodeRequest output
// ever starts with 0xff 0x00, and a crafted request can never collide
// with a batch digest (which would let a Byzantine primary smuggle two
// different proposals past the same-digest equivocation check).
var batchDomain = []byte{0xff, 0x00, 'p', 'e', 'a', 't', 's', '-', 'b', 'a', 't', 'c', 'h'}

// batchDigestFrom folds precomputed per-request digests into the batch
// digest — every consumer needs the request digests anyway, so the
// batch digest costs one extra hash over 32·k bytes instead of
// re-encoding every request.
func batchDigestFrom(ds [][32]byte) [32]byte {
	if len(ds) == 1 {
		return ds[0]
	}
	buf := make([]byte, 0, 32+33*len(ds))
	buf = append(buf, batchDomain...)
	buf = binary.AppendUvarint(buf, uint64(len(ds)))
	for _, d := range ds {
		buf = binary.AppendUvarint(buf, 32)
		buf = append(buf, d[:]...)
	}
	return auth.Digest(buf)
}

// digests returns the per-request digests of the batch and whether the
// batch digest matches its contents.
func (b Batch) digests() ([][32]byte, bool) {
	if len(b.Reqs) == 0 {
		return nil, false
	}
	ds := make([][32]byte, len(b.Reqs))
	for i, r := range b.Reqs {
		ds[i] = r.Digest()
	}
	return ds, batchDigestFrom(ds) == b.Digest
}

// wellFormed reports whether the batch's digest matches its contents.
func (b Batch) wellFormed() bool {
	_, ok := b.digests()
	return ok
}

// Prepare is a replica's vote that it accepted a batch proposal.
type Prepare struct {
	View    uint64
	Seq     uint64
	Digest  [32]byte
	Replica string
}

// Commit is a replica's vote that the batch is prepared network-wide.
type Commit struct {
	View    uint64
	Seq     uint64
	Digest  [32]byte
	Replica string
}

// Reply carries one replica's execution result back to the client: one
// Reply per Request per phase. ReqID is the request's (first) ID and
// Result covers the whole window (see encodeWindowResults); clients vote
// on the Result bytes, so a window is accepted or not as a unit.
// ReadOnly marks results of the unordered read-only fast path; clients
// never mix read-only and ordered replies in one vote (a lagging
// replica's read-only reply must not help an ordered quorum).
// Tentative marks results executed at *prepared*, before the commit
// quorum (Castro–Liskov tentative execution); clients likewise keep
// tentative and committed replies in separate vote camps — 2f+1
// matching tentative replies prove the batch prepared at 2f+1 replicas,
// which is exactly what makes it survive any view change.
type Reply struct {
	View      uint64
	Client    string
	ReqID     uint64
	Replica   string
	Result    []byte
	ReadOnly  bool
	Tentative bool
	// Group echoes the replica's group identity in a partitioned
	// deployment; empty otherwise.
	Group string
	// Attest, when present, is the replica's signature over
	// wire.AttestPayload(Group, Result): transferable evidence, beyond
	// the pairwise channel MAC, that this replica reported this agreed
	// result. Replies to partition 2PC operations carry it so clients
	// can assemble vote certificates. It is deliberately outside Result
	// — clients vote on result bytes, and per-replica signatures must
	// not split the vote.
	Attest []byte
}

// ReadOnly asks a replica to execute a non-mutating operation against
// its current committed state, without ordering. The reply is only
// meaningful in a 2f+1 byte-identical vote at the client.
type ReadOnly struct {
	Client string
	ReqID  uint64
	Op     []byte
}

// Checkpoint announces the head of a replica's checkpoint chain at a
// checkpoint: the state digest — of the full snapshot when the
// checkpoint re-based the chain, chained over the base snapshot and
// every delta since otherwise — with BaseLen, the byte length of that
// base snapshot, and ChainLen, the weight of the deltas chained on it
// (0 at a re-base). The lengths are the inputs of the re-base rule;
// votes match only when all three agree, so a replica that takes its
// head from f+1 matching votes also takes the rule's inputs from them.
// View is the view the sender was operating in: a quorum of matching
// checkpoints doubles as Byzantine-robust evidence of the view the
// group is actively working in (see syncViewWithQuorum).
type Checkpoint struct {
	Seq      uint64
	View     uint64
	Digest   [32]byte
	BaseLen  uint64
	ChainLen uint64
	Replica  string
}

// maxCheckpointLen bounds the lengths a CHECKPOINT may announce, so
// adding a delta's weight to an announced chain length cannot wrap.
const maxCheckpointLen = 1 << 62

// ViewChange asks to install view NewView. Prepared carries the
// batches the sender prepared above its stable checkpoint.
type ViewChange struct {
	NewView    uint64
	LastStable uint64
	Prepared   []Batch
	Replica    string
}

// ViewChangeAck confirms to the new primary that the sender received
// Origin's VIEW-CHANGE for View with the given content digest (the
// digest of the message's canonical encoding). Channel MACs only
// authenticate hops, so a VIEW-CHANGE's prepared-batch claims reach the
// primary unprotected end-to-end; the primary uses a VIEW-CHANGE only
// once 2f-1 other replicas acknowledge byte-identical contents, which
// keeps one faulty replica from smuggling a fabricated prepared batch
// into the NEW-VIEW merge (the PBFT MAC-authenticated view-change ack).
type ViewChangeAck struct {
	View    uint64
	Origin  string
	Digest  [32]byte
	Replica string
}

// NewView installs a view: the new primary re-issues, under their
// original digests, the batches prepared by any member of the
// view-change quorum.
type NewView struct {
	View    uint64
	Batches []Batch
	Replica string
}

// SeqRequest asks peers to re-send their commit vote for a sequence
// number the sender is stuck on (its protocol messages were lost —
// the asynchronous network drops messages and votes are not otherwise
// retransmitted). Client request retransmissions trigger it.
type SeqRequest struct {
	Seq     uint64
	Replica string
}

// StateRequest asks a peer for the checkpointed state at Seq.
type StateRequest struct {
	Seq     uint64
	Replica string
}

// StateResponse carries a checkpointed state snapshot.
type StateResponse struct {
	Seq      uint64
	View     uint64
	Snapshot []byte
	Replica  string
}

// Marshal encodes any protocol message with its type tag.
func Marshal(msg any) ([]byte, error) {
	w := wire.NewWriter()
	switch m := msg.(type) {
	case Request:
		w.Byte(byte(MsgRequest))
		encodeRequestWire(w, m)
	case Batch:
		w.Byte(byte(MsgBatch))
		encodeBatch(w, m)
	case Prepare:
		w.Byte(byte(MsgPrepare))
		encodeVote(w, m.View, m.Seq, m.Digest, m.Replica)
	case Commit:
		w.Byte(byte(MsgCommit))
		encodeVote(w, m.View, m.Seq, m.Digest, m.Replica)
	case Reply:
		w.Byte(byte(MsgReply))
		w.Uvarint(m.View)
		w.String(m.Client)
		w.Uvarint(m.ReqID)
		w.String(m.Replica)
		w.Bytes(m.Result)
		w.Bool(m.ReadOnly)
		w.Bool(m.Tentative)
		w.String(m.Group)
		w.Bytes(m.Attest)
	case ReadOnly:
		w.Byte(byte(MsgReadOnly))
		w.String(m.Client)
		w.Uvarint(m.ReqID)
		w.Bytes(m.Op)
	case Checkpoint:
		w.Byte(byte(MsgCheckpoint))
		w.Uvarint(m.Seq)
		w.Uvarint(m.View)
		w.Bytes(m.Digest[:])
		w.Uvarint(m.BaseLen)
		w.Uvarint(m.ChainLen)
		w.String(m.Replica)
	case ViewChange:
		w.Byte(byte(MsgViewChange))
		w.Uvarint(m.NewView)
		w.Uvarint(m.LastStable)
		w.Uvarint(uint64(len(m.Prepared)))
		for _, b := range m.Prepared {
			encodeBatch(w, b)
		}
		w.String(m.Replica)
	case NewView:
		w.Byte(byte(MsgNewView))
		w.Uvarint(m.View)
		w.Uvarint(uint64(len(m.Batches)))
		for _, b := range m.Batches {
			encodeBatch(w, b)
		}
		w.String(m.Replica)
	case SeqRequest:
		w.Byte(byte(MsgSeqRequest))
		w.Uvarint(m.Seq)
		w.String(m.Replica)
	case ViewChangeAck:
		w.Byte(byte(MsgViewChangeAck))
		w.Uvarint(m.View)
		w.String(m.Origin)
		w.Bytes(m.Digest[:])
		w.String(m.Replica)
	case StateRequest:
		w.Byte(byte(MsgStateRequest))
		w.Uvarint(m.Seq)
		w.String(m.Replica)
	case StateResponse:
		w.Byte(byte(MsgStateResponse))
		w.Uvarint(m.Seq)
		w.Uvarint(m.View)
		w.Bytes(m.Snapshot)
		w.String(m.Replica)
	default:
		return nil, fmt.Errorf("bft: cannot marshal %T", msg)
	}
	return w.Data(), nil
}

// Unmarshal decodes a protocol message.
func Unmarshal(b []byte) (any, error) {
	r := wire.NewReader(b)
	t := MsgType(r.Byte())
	var msg any
	switch t {
	case MsgRequest:
		req, err := decodeRequestWire(r)
		if err != nil {
			return nil, fmt.Errorf("bft: %w", err)
		}
		msg = req
	case MsgBatch:
		bt, err := decodeBatch(r)
		if err != nil {
			return nil, fmt.Errorf("bft: %w", err)
		}
		msg = bt
	case MsgPrepare:
		v, s, d, rep := decodeVote(r)
		msg = Prepare{View: v, Seq: s, Digest: d, Replica: rep}
	case MsgCommit:
		v, s, d, rep := decodeVote(r)
		msg = Commit{View: v, Seq: s, Digest: d, Replica: rep}
	case MsgReply:
		msg = Reply{
			View: r.Uvarint(), Client: r.String(), ReqID: r.Uvarint(),
			Replica: r.String(), Result: r.Bytes(), ReadOnly: r.Bool(),
			Tentative: r.Bool(), Group: r.String(), Attest: r.Bytes(),
		}
	case MsgReadOnly:
		msg = ReadOnly{Client: r.String(), ReqID: r.Uvarint(), Op: r.Bytes()}
	case MsgCheckpoint:
		cp := Checkpoint{Seq: r.Uvarint(), View: r.Uvarint()}
		copy(cp.Digest[:], r.BytesView())
		cp.BaseLen, cp.ChainLen = r.Uvarint(), r.Uvarint()
		if cp.BaseLen > maxCheckpointLen || cp.ChainLen > maxCheckpointLen {
			return nil, fmt.Errorf("bft: checkpoint announcing lengths %d, %d", cp.BaseLen, cp.ChainLen)
		}
		cp.Replica = r.String()
		msg = cp
	case MsgViewChange:
		vc := ViewChange{NewView: r.Uvarint(), LastStable: r.Uvarint()}
		count := r.Uvarint()
		if count > maxBatch {
			return nil, fmt.Errorf("bft: view-change with %d batches", count)
		}
		for i := uint64(0); i < count; i++ {
			bt, err := decodeBatch(r)
			if err != nil {
				return nil, fmt.Errorf("bft: view-change: %w", err)
			}
			vc.Prepared = append(vc.Prepared, bt)
		}
		vc.Replica = r.String()
		msg = vc
	case MsgNewView:
		nv := NewView{View: r.Uvarint()}
		count := r.Uvarint()
		if count > maxBatch {
			return nil, fmt.Errorf("bft: new-view with %d batches", count)
		}
		for i := uint64(0); i < count; i++ {
			bt, err := decodeBatch(r)
			if err != nil {
				return nil, fmt.Errorf("bft: new-view: %w", err)
			}
			nv.Batches = append(nv.Batches, bt)
		}
		nv.Replica = r.String()
		msg = nv
	case MsgSeqRequest:
		msg = SeqRequest{Seq: r.Uvarint(), Replica: r.String()}
	case MsgViewChangeAck:
		a := ViewChangeAck{View: r.Uvarint(), Origin: r.String()}
		copy(a.Digest[:], r.BytesView())
		a.Replica = r.String()
		msg = a
	case MsgStateRequest:
		msg = StateRequest{Seq: r.Uvarint(), Replica: r.String()}
	case MsgStateResponse:
		msg = StateResponse{Seq: r.Uvarint(), View: r.Uvarint(), Snapshot: r.Bytes(), Replica: r.String()}
	default:
		return nil, fmt.Errorf("bft: unknown message type %d", t)
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("bft: decode %v: %w", t, err)
	}
	return msg, nil
}

// maxBatch bounds decoded request and batch lists so malformed messages
// cannot force huge allocations.
const maxBatch = 1 << 16

func encodeBatch(w *wire.Writer, b Batch) {
	w.Uvarint(b.View)
	w.Uvarint(b.Seq)
	w.Bytes(b.Digest[:])
	w.Uvarint(uint64(len(b.Reqs)))
	for _, req := range b.Reqs {
		encodeRequestWire(w, req)
	}
}

func decodeBatch(r *wire.Reader) (Batch, error) {
	b := Batch{View: r.Uvarint(), Seq: r.Uvarint()}
	copy(b.Digest[:], r.BytesView())
	count := r.Uvarint()
	if count > maxBatch {
		return Batch{}, fmt.Errorf("batch with %d requests", count)
	}
	for i := uint64(0); i < count; i++ {
		req, err := decodeRequestWire(r)
		if err != nil {
			return Batch{}, err
		}
		b.Reqs = append(b.Reqs, req)
	}
	return b, nil
}

func encodeVote(w *wire.Writer, view, seq uint64, digest [32]byte, replica string) {
	w.Uvarint(view)
	w.Uvarint(seq)
	w.Bytes(digest[:])
	w.String(replica)
}

func decodeVote(r *wire.Reader) (view, seq uint64, digest [32]byte, replica string) {
	view = r.Uvarint()
	seq = r.Uvarint()
	copy(digest[:], r.BytesView())
	replica = r.String()
	return
}
