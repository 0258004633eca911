// Package transport provides the point-to-point messaging layer of the
// replicated PEATS (Fig. 2): an interface over which the BFT protocol
// exchanges messages, with two implementations — an in-process simulated
// network with fault injection (drops, delays, partitions) for tests and
// benchmarks, and a TCP transport with HMAC-authenticated frames for
// real deployments.
package transport

import "errors"

// ErrClosed is returned by Send after the transport is closed.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownPeer is returned when sending to an unregistered identity.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrBackpressure reports that a per-peer send lane is full. For the
// request and bulk lanes the message was NOT queued — the caller decides
// whether to retry, drop, or slow down (state transfer re-serves packs
// on the next request; clients retransmit). For the protocol lane the
// message WAS queued and the oldest queued frame was dropped instead
// (protocol traffic is retransmittable by design), so the error is
// purely a congestion signal the batcher can use to pace proposals.
var ErrBackpressure = errors.New("transport: send queue full")

// Class is the priority lane a message travels in. Lower values drain
// strictly first on a congested link, so a multi-megabyte state pack
// can never head-of-line-block a vote.
type Class uint8

const (
	// ClassProtocol carries agreement traffic: proposals, votes,
	// checkpoints, view changes. Highest priority, drop-oldest on
	// overflow (the protocol retransmits via repair).
	ClassProtocol Class = iota
	// ClassRequest carries client requests and replies.
	ClassRequest
	// ClassBulk carries checkpoint and state-transfer packs. Lowest
	// priority; large payloads are chunked on the wire so protocol
	// frames interleave, and reassembled transparently by the receiver.
	ClassBulk

	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassProtocol:
		return "protocol"
	case ClassRequest:
		return "request"
	case ClassBulk:
		return "bulk"
	}
	return "invalid"
}

// Inbound is a received message with its authenticated sender identity.
// The transport guarantees From is genuine (in-process: enforced by the
// hub; TCP: verified by per-pair MAC), which is the no-impersonation
// assumption of the model (§2.1).
//
// An Inbound with Down set is not a message but a notice from the local
// transport: the connection it had to From ended and From could not be
// reached again (Payload is nil). It is local knowledge — no bytes on
// the wire can produce it — and a hint, not a verdict: From may only be
// unreachable from here, and a notice can cross a message From sent just
// before. Any later message from From supersedes it. Transports that
// cannot observe connection loss never send one, so consumers must keep
// their timeouts.
type Inbound struct {
	From    string
	Payload []byte
	Down    bool
}

// Transport is an asynchronous, authenticated point-to-point channel
// bundle for one node.
//
// Sends are best-effort and non-blocking beyond queue admission: the
// network may drop or delay messages arbitrarily (asynchronous system
// model); protocols must retransmit. Send takes ownership of the
// payload — the caller must not mutate the buffer afterwards
// (implementations may hand it to receivers, or keep it queued, without
// copying). Inbox delivers received messages until Close; receivers
// must treat payloads as read-only.
type Transport interface {
	// Self returns this node's identity.
	Self() string
	// Send queues payload for delivery to the named peer on the
	// protocol lane; Send(to, p) ≡ SendClass(to, p, ClassProtocol).
	Send(to string, payload []byte) error
	// SendClass queues payload on the given priority lane. Lanes are
	// FIFO internally but drain strictly by class; see Class. A full
	// lane reports ErrBackpressure (see its contract for which lanes
	// still deliver).
	SendClass(to string, payload []byte, class Class) error
	// Inbox returns the channel of received messages, and of the
	// transport's own Down notices (see Inbound). After Close no
	// further messages are delivered; consumers must also watch their
	// own stop signal rather than rely on the channel closing.
	Inbox() <-chan Inbound
	// Close releases resources and closes the inbox.
	Close() error
}
