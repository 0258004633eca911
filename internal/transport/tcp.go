package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"peats/internal/auth"
	"peats/internal/metrics"
	"peats/internal/wire"
)

// TCP is a Transport over TCP connections with HMAC-authenticated
// frames. Every frame carries the sender identity and a MAC computed
// with the pairwise key shared between sender and receiver, so a node
// cannot impersonate another (the model's §2.1 assumption); frames that
// fail verification are dropped silently.
//
// The transport is built for connection-scale load, not just
// correctness:
//
//   - Send never touches the network on the caller's goroutine. It
//     enqueues onto a bounded per-peer lane and returns; a dedicated
//     writer goroutine per peer owns the connection, including dialing
//     and jittered redial backoff, so a slow or dead peer can never
//     stall a replica's event loop.
//   - The writer drains everything queued into one sealed, coalesced
//     buffer and flushes it with a single Write, amortizing syscalls
//     and seal allocations across frames.
//   - Each peer has three priority lanes (protocol > request > bulk).
//     Protocol and request share the control connection, drained
//     strictly protocol-first; the bulk lane gets its own dedicated
//     connection, with payloads chunked on the wire (and reassembled
//     transparently by the receiver), so a multi-megabyte state pack
//     never head-of-line-blocks a vote — not even via bytes already
//     committed to the kernel socket buffer.
//   - A full request or bulk lane surfaces ErrBackpressure to the
//     caller instead of blocking or silently dropping; the protocol
//     lane drops its oldest frame (retransmittable by design) and
//     reports the congestion.
//
// Connections are dialled lazily and re-dialled after failures; loss
// during reconnection is acceptable because the protocols above assume
// an asynchronous, lossy network and retransmit. When two peers dial
// each other simultaneously, both sides deterministically converge on
// the connection dialed by the lexicographically lower identity.
//
// Losing a peer is an event, not just a state: when the control
// connection pinned to a peer with a dial address ends under us and the
// one redial that follows fails too, the Inbox delivers a single
// Inbound{From: peer, Down: true} (see peerState for the exact rule).
type TCP struct {
	self string
	kr   *auth.Keyring
	ln   net.Listener
	cfg  TCPConfig

	inbox chan Inbound

	mu      sync.Mutex
	addrs   map[string]string
	peers   map[string]*tcpPeer
	inbound map[net.Conn]struct{}
	closed  bool

	asmMu sync.Mutex
	asm   map[string]*assembly // per-peer bulk reassembly state

	stats tcpCounters
	// suspects counts the peers whose state is not peerUp, so the read
	// path pays one atomic load per frame while every peer is reachable.
	suspects atomic.Int32

	// mFramesPerWrite is the coalescing histogram, nil until
	// EnableMetrics; a nil handle no-ops.
	mFramesPerWrite *metrics.Histogram

	wg   sync.WaitGroup
	done chan struct{}
}

var _ Transport = (*TCP)(nil)

// maxFrame bounds accepted frame sizes — and reassembled bulk messages
// (16 MiB) — so a malicious peer cannot force unbounded allocations.
const maxFrame = 16 << 20

// smallFrame is the threshold under which inbound frames are read into
// a per-connection scratch buffer (payloads are copied out on
// delivery); larger frames get a dedicated allocation whose payload is
// delivered without copying.
const smallFrame = 64 << 10

// maxCoalesce is the default CoalesceBytes: how many bytes one writer
// flush seals before it issues the Write — bounding both the flush
// buffer and the time a just-arrived protocol frame waits behind an
// in-progress flush.
const maxCoalesce = 256 << 10

// arenaBlock is the allocation unit for small-frame delivery copies;
// it must be at least smallFrame so any small payload fits one block.
const arenaBlock = 128 << 10

// maxRetainedFlush is the largest flush buffer a writer keeps across
// flushes; anything bigger (a bulk burst) is released to the GC.
const maxRetainedFlush = 1 << 20

// bulkSockBuf caps the bulk connection's kernel send buffer. A pack
// drain then runs under flow control — the bulk writer parks in the
// poller whenever a couple of chunks are in flight — instead of staying
// runnable with megabytes queued in the kernel. That bounds how far
// ahead of the receiver the stream can run, and keeps the scheduler
// reaching its network poll so latency-sensitive wakeups (votes on the
// control connection) are never starved behind a busy bulk drain.
const bulkSockBuf = 128 << 10

// chunkPollWindow is how long the bulk readLoop parks after each chunk
// so the runtime's network poller is guaranteed to run during a pack
// drain (see the kindChunk case in readLoop).
const chunkPollWindow = 100 * time.Microsecond

// frame kinds on the wire.
const (
	kindMsg     = 0 // self-contained protocol/request message
	kindChunk   = 1 // one chunk of a chunked bulk message
	kindBulkMsg = 2 // self-contained bulk message (fits one chunk)
)

// TCPConfig tunes the per-peer send queues. The zero value selects the
// defaults noted on each field.
type TCPConfig struct {
	// ProtocolDepth bounds the protocol lane, in frames (default 4096).
	// Overflow drops the oldest queued frame and reports
	// ErrBackpressure while still admitting the new one.
	ProtocolDepth int
	// RequestDepth bounds the request lane, in frames (default 1024).
	// Overflow rejects the send with ErrBackpressure.
	RequestDepth int
	// BulkDepth bounds the bulk lane, in chunks (default 256). A bulk
	// message is admitted whole or not at all; rejection reports
	// ErrBackpressure.
	BulkDepth int
	// BulkChunk is the chunk size bulk payloads are split into on the
	// wire (default 64 KiB). Chunks travel on the peer's dedicated bulk
	// connection, so a multi-megabyte state pack never queues ahead of a
	// protocol frame; the receiver reassembles the stream transparently.
	BulkChunk int
	// DialTimeout bounds one dial attempt (default 5s).
	DialTimeout time.Duration
	// CoalesceBytes caps how many payload bytes one writer flush seals
	// before issuing the Write (default 256 KiB) — bounding both the
	// flush buffer and how long a just-arrived vote waits behind an
	// in-progress flush.
	CoalesceBytes int
	// RedialBackoff is the initial delay between failed dials (default
	// 50ms); it doubles per consecutive failure up to RedialBackoffMax
	// (default 2s), with ±50% jitter so a rebooted group does not dial
	// in lockstep.
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// NoCoalesce makes the writer seal and Write every frame
	// individually, with fresh buffers per frame — the behaviour the
	// coalescing path replaced. Benchmarks only.
	NoCoalesce bool
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.ProtocolDepth <= 0 {
		c.ProtocolDepth = 4096
	}
	if c.RequestDepth <= 0 {
		c.RequestDepth = 1024
	}
	if c.BulkDepth <= 0 {
		c.BulkDepth = 256
	}
	if c.BulkChunk <= 0 {
		c.BulkChunk = 64 << 10
	}
	if c.BulkChunk > maxFrame {
		c.BulkChunk = maxFrame
	}
	if c.CoalesceBytes <= 0 {
		c.CoalesceBytes = maxCoalesce
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 50 * time.Millisecond
	}
	if c.RedialBackoffMax < c.RedialBackoff {
		c.RedialBackoffMax = 2 * time.Second
	}
	return c
}

// tcpCounters are the transport's atomic load counters.
type tcpCounters struct {
	framesSent   atomic.Uint64
	writes       atomic.Uint64
	bytesSent    atomic.Uint64
	framesRecv   atomic.Uint64
	protoDropped atomic.Uint64
	backpressure atomic.Uint64
	dials        atomic.Uint64
	peersDown    atomic.Uint64
}

// TCPStats is a snapshot of the transport's load counters.
type TCPStats struct {
	// FramesSent / Writes is the coalescing ratio: frames per write(2).
	FramesSent uint64
	Writes     uint64
	BytesSent  uint64
	// FramesReceived counts MAC-verified inbound frames (chunks count
	// individually).
	FramesReceived uint64
	// ProtoDropped counts protocol-lane frames dropped oldest-first on
	// overflow.
	ProtoDropped uint64
	// Backpressure counts sends that reported ErrBackpressure.
	Backpressure uint64
	// Dials counts completed outbound dial attempts (successful or not).
	Dials uint64
	// PeersDown counts the Down notices delivered (one per loss episode).
	PeersDown uint64
	// Conns is the number of live connections (peer-pinned + inbound).
	Conns int
}

// Stats returns a snapshot of the transport's load counters.
func (t *TCP) Stats() TCPStats {
	s := TCPStats{
		FramesSent:     t.stats.framesSent.Load(),
		Writes:         t.stats.writes.Load(),
		BytesSent:      t.stats.bytesSent.Load(),
		FramesReceived: t.stats.framesRecv.Load(),
		ProtoDropped:   t.stats.protoDropped.Load(),
		Backpressure:   t.stats.backpressure.Load(),
		Dials:          t.stats.dials.Load(),
		PeersDown:      t.stats.peersDown.Load(),
	}
	seen := make(map[net.Conn]struct{})
	t.mu.Lock()
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	for c := range t.inbound {
		seen[c] = struct{}{}
	}
	t.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		if p.conn != nil {
			seen[p.conn] = struct{}{}
		}
		if p.bulkConn != nil {
			seen[p.bulkConn] = struct{}{}
		}
		p.mu.Unlock()
	}
	s.Conns = len(seen)
	return s
}

// NewTCP starts a TCP transport for node self listening on listenAddr
// with default queue configuration. addrs maps peer identities to dial
// addresses; peers whose addresses are not yet known (e.g. during a
// rolling bring-up on ephemeral ports) can be added later with
// SetPeerAddr. kr must hold keys for all peers.
func NewTCP(self, listenAddr string, addrs map[string]string, kr *auth.Keyring) (*TCP, error) {
	return NewTCPWithConfig(self, listenAddr, addrs, kr, TCPConfig{})
}

// NewTCPWithConfig starts a TCP transport with explicit queue tuning.
func NewTCPWithConfig(self, listenAddr string, addrs map[string]string, kr *auth.Keyring, cfg TCPConfig) (*TCP, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	t := &TCP{
		self:    self,
		kr:      kr,
		cfg:     cfg.withDefaults(),
		addrs:   make(map[string]string, len(addrs)),
		ln:      ln,
		inbox:   make(chan Inbound, inboxDepth),
		peers:   make(map[string]*tcpPeer),
		inbound: make(map[net.Conn]struct{}),
		asm:     make(map[string]*assembly),
		done:    make(chan struct{}),
	}
	for id, a := range addrs {
		t.addrs[id] = a
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's bound listen address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetPeerAddr registers (or updates) a peer's dial address.
func (t *TCP) SetPeerAddr(id, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[id] = addr
}

// Self implements Transport.
func (t *TCP) Self() string { return t.self }

// Inbox implements Transport.
func (t *TCP) Inbox() <-chan Inbound { return t.inbox }

// Send implements Transport: a protocol-lane SendClass.
func (t *TCP) Send(to string, payload []byte) error {
	return t.SendClass(to, payload, ClassProtocol)
}

// SendClass implements Transport. The call only admits the payload to
// the peer's lane — sealing, framing and the network all happen on the
// peer's writer goroutine, so the caller never blocks on a slow link.
func (t *TCP) SendClass(to string, payload []byte, class Class) error {
	if class >= numClasses {
		return fmt.Errorf("transport: invalid class %d", class)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	p := t.peers[to]
	if p == nil {
		if _, known := t.addrs[to]; !known {
			t.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
		}
		p = t.newPeerLocked(to)
	}
	t.mu.Unlock()
	return p.enqueue(payload, class)
}

// newPeerLocked creates the send-side state and writer goroutines for
// a peer. Caller holds t.mu.
func (t *TCP) newPeerLocked(id string) *tcpPeer {
	p := &tcpPeer{t: t, id: id}
	p.condCtl = sync.NewCond(&p.mu)
	p.condBulk = sync.NewCond(&p.mu)
	t.peers[id] = p
	t.wg.Add(2)
	go p.writeLoop(false)
	go p.writeLoop(true)
	return p
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	conns := make([]net.Conn, 0, len(t.peers)+len(t.inbound))
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.inbound = map[net.Conn]struct{}{}
	t.mu.Unlock()

	_ = t.ln.Close()
	for _, p := range peers {
		p.mu.Lock()
		p.closed = true
		if p.conn != nil {
			conns = append(conns, p.conn)
			p.conn = nil
		}
		if p.bulkConn != nil {
			conns = append(conns, p.bulkConn)
			p.bulkConn = nil
		}
		p.condCtl.Broadcast()
		p.condBulk.Broadcast()
		p.mu.Unlock()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	return nil
}

// ---- Per-peer send queues and writer ----

// outFrame is one queued outbound frame. Chunk frames alias subranges
// of the original bulk payload — Send's ownership-transfer contract
// makes that safe.
type outFrame struct {
	payload []byte
	kind    uint8
	stream  uint64
	index   uint32
	total   uint32
}

// tcpPeer owns everything about one peer's outbound path: the three
// priority lanes and the two connections they drain into.
//
// Protocol and request frames share the control connection (the one
// the dial tie-break pins), drained strictly protocol-first by the
// control writer. Bulk frames get a SEPARATE, self-dialed connection
// and their own writer: priority lanes alone cannot stop a state pack
// from delaying a vote once its bytes sit in the kernel socket buffer
// ahead of it, so bulk bytes must never enter the control socket at
// all. The bulk connection is dialed lazily (peers that never ship
// state packs never open it) and is send-only for its dialer.
type tcpPeer struct {
	t  *TCP
	id string

	mu         sync.Mutex
	condCtl    *sync.Cond // wakes the control writer (protocol+request)
	condBulk   *sync.Cond // wakes the bulk writer
	lanes      [numClasses][]outFrame
	conn       net.Conn // control connection (tie-break managed)
	connDialed bool     // conn was dialed by us (tie-break bookkeeping)
	bulkConn   net.Conn // dedicated bulk connection (always self-dialed)
	nextStream uint64
	state      peerState
	closed     bool
}

// peerState is what the transport knows against a peer's reachability.
// It only ever leaves peerUp when an *established* control connection —
// one pinned by a dial that succeeded or by an authenticated inbound
// frame — ends under us: a read error or a failed write, never a
// connection the dial tie-break replaced, our own Close, or a dial that
// found nobody at start-up. The control writer then owes one confirming
// dial. If it fails, the peer is reported Down, once; if a connection
// lands, or the peer has no dial address (a client on an ephemeral
// port), the loss is forgotten. The next authenticated frame from the
// peer ends the episode, so a later loss is reported again.
type peerState uint8

const (
	peerUp   peerState = iota
	peerLost           // pinned connection ended; confirming dial owed
	peerDown           // confirmed and reported; waiting to hear from it
)

// setState moves the peer between reachability states, keeping the
// transport's suspect count in step. Caller holds p.mu.
func (p *tcpPeer) setState(s peerState) {
	switch {
	case p.state == peerUp && s != peerUp:
		p.t.suspects.Add(1)
	case p.state != peerUp && s == peerUp:
		p.t.suspects.Add(-1)
	}
	p.state = s
}

// unpin clears conn as the peer's control connection because it failed,
// and has the control writer confirm the loss. Caller holds p.mu.
func (p *tcpPeer) unpin(conn net.Conn) {
	if p.conn != conn {
		return // replaced by the tie-break, or already unpinned
	}
	p.conn = nil
	if p.state == peerUp && !p.closed {
		p.setState(peerLost)
		p.condCtl.Signal()
	}
}

// dialFailed runs after every failed control dial: the one that follows
// a loss confirms it and reports the peer down.
func (p *tcpPeer) dialFailed() {
	p.mu.Lock()
	confirmed := p.state == peerLost && !p.closed
	if confirmed {
		p.setState(peerDown)
	}
	p.mu.Unlock()
	if !confirmed {
		return
	}
	p.t.stats.peersDown.Add(1)
	select {
	case p.t.inbox <- Inbound{From: p.id, Down: true}:
	case <-p.t.done:
	}
}

// forgetLoss drops an unconfirmed loss: a connection landed again, or
// there is no address to confirm against. Caller holds p.mu.
func (p *tcpPeer) forgetLoss() {
	if p.state == peerLost {
		p.setState(peerUp)
	}
}

// heard ends from's loss episode: called for an authenticated frame
// while any peer is suspect.
func (t *TCP) heard(from string) {
	t.mu.Lock()
	p := t.peers[from]
	t.mu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	p.setState(peerUp)
	p.mu.Unlock()
}

// enqueue admits payload to the class lane, applying the lane's
// overflow policy. It never blocks beyond the lane mutex.
func (p *tcpPeer) enqueue(payload []byte, class Class) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	var pressured bool
	switch class {
	case ClassProtocol:
		lane := p.lanes[class]
		if len(lane) >= p.t.cfg.ProtocolDepth {
			// Drop-oldest: protocol traffic is retransmitted by the
			// repair machinery, and fresher votes supersede stale ones.
			lane = lane[1:]
			p.t.stats.protoDropped.Add(1)
			pressured = true
		}
		p.lanes[class] = append(lane, outFrame{payload: payload, kind: kindMsg})
	case ClassRequest:
		if len(p.lanes[class]) >= p.t.cfg.RequestDepth {
			p.t.stats.backpressure.Add(1)
			return ErrBackpressure
		}
		p.lanes[class] = append(p.lanes[class], outFrame{payload: payload, kind: kindMsg})
	case ClassBulk:
		chunk := p.t.cfg.BulkChunk
		n := (len(payload) + chunk - 1) / chunk
		if n <= 1 {
			n = 1
		}
		if len(p.lanes[class])+n > p.t.cfg.BulkDepth {
			// Whole-message admission: a half-queued pack is useless to
			// the receiver and would poison stream reassembly.
			p.t.stats.backpressure.Add(1)
			return ErrBackpressure
		}
		if n == 1 {
			p.lanes[class] = append(p.lanes[class], outFrame{payload: payload, kind: kindBulkMsg})
		} else {
			stream := p.nextStream
			p.nextStream++
			for i := 0; i < n; i++ {
				lo, hi := i*chunk, (i+1)*chunk
				if hi > len(payload) {
					hi = len(payload)
				}
				p.lanes[class] = append(p.lanes[class], outFrame{
					payload: payload[lo:hi],
					kind:    kindChunk,
					stream:  stream,
					index:   uint32(i),
					total:   uint32(n),
				})
			}
		}
	}
	if class == ClassBulk {
		p.condBulk.Signal()
	} else {
		p.condCtl.Signal()
	}
	if pressured {
		p.t.stats.backpressure.Add(1)
		return ErrBackpressure
	}
	return nil
}

// takeBatch blocks until the writer's lanes hold frames (or the peer
// closes, when it reports false) and pops the next coalescing batch —
// the control writer drains protocol strictly before request, the bulk
// writer drains the bulk lane — bounded by CoalesceBytes so one flush
// can neither grow without limit nor starve a vote arriving behind a
// request burst. A lost connection also wakes the control writer, with
// whatever is queued (possibly nothing), to make the confirming dial.
func (p *tcpPeer) takeBatch(bulk bool, batch []outFrame) ([]outFrame, bool) {
	lo, hi, cond := int(ClassProtocol), int(ClassRequest), p.condCtl
	if bulk {
		lo, hi, cond = int(ClassBulk), int(ClassBulk), p.condBulk
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, false
		}
		queued := !bulk && p.state == peerLost
		for class := lo; class <= hi; class++ {
			if len(p.lanes[class]) > 0 {
				queued = true
				break
			}
		}
		if queued {
			break
		}
		cond.Wait()
	}
	batch = batch[:0]
	budget := p.t.cfg.CoalesceBytes
	if bulk {
		// Bulk frames are pre-chunked to write granularity, so coalescing
		// them saves no syscalls worth having — it only lengthens the
		// uninterruptible seal+write burst, which on small machines is
		// exactly the latency the dedicated bulk lane exists to avoid.
		// One chunk per flush keeps each burst bounded by BulkChunk.
		budget = 1
	}
	for class := lo; class <= hi && budget > 0; class++ {
		lane := p.lanes[class]
		took := 0
		for _, f := range lane {
			if budget <= 0 {
				break
			}
			batch = append(batch, f)
			budget -= len(f.payload) + 64 // rough per-frame overhead
			took++
		}
		if took == len(lane) {
			p.lanes[class] = lane[:0] // keep the backing array
		} else if took > 0 {
			p.lanes[class] = lane[took:]
		}
	}
	return batch, true
}

// writeLoop is one of the peer's two dedicated writers (control or
// bulk): it owns dialing its connection (with jittered redial
// backoff), seals every queued frame into one reused buffer, and
// flushes the batch with a single Write — the coalescing that
// amortizes syscalls and allocations across frames.
func (p *tcpPeer) writeLoop(bulk bool) {
	defer p.t.wg.Done()
	var (
		batch []outFrame
		flush []byte // coalesced wire bytes, reused across flushes
		body  []byte // MAC input scratch, reused across frames
	)
	for {
		var ok bool
		if batch, ok = p.takeBatch(bulk, batch); !ok {
			return
		}
		conn := p.ensureConn(bulk, len(batch) > 0)
		if conn == nil {
			if p.isClosed() {
				return
			}
			continue // unroutable: the batch is dropped (lossy model)
		}
		if len(batch) == 0 {
			continue // woken only to confirm a loss
		}
		if p.t.cfg.NoCoalesce {
			// Benchmark baseline: the write path coalescing replaced —
			// fresh seal and MAC-scratch buffers plus one write(2) per
			// frame, no reuse across frames.
			for _, f := range batch {
				frame, _ := p.t.appendFrame(nil, nil, p.id, f)
				conn = p.writeAll(bulk, conn, frame, 1)
				if conn == nil {
					break
				}
			}
			continue
		}
		flush = flush[:0]
		for _, f := range batch {
			flush, body = p.t.appendFrame(flush, body, p.id, f)
		}
		p.writeAll(bulk, conn, flush, len(batch))
		if cap(flush) > maxRetainedFlush {
			flush = nil
		}
		if bulk {
			// Park between chunks — a sleep, not a Gosched. Go has no
			// goroutine priorities, and a socket write that finds buffer
			// space is a fast-path syscall that keeps the processor; a
			// merely-yielding bulk writer draining a pack into empty
			// socket buffers stays runnable for hundreds of microseconds
			// straight, and on a single-proc runtime the scheduler then
			// never reaches its network poll, stalling control-connection
			// wakeups for exactly the interval the bulk lane exists to
			// protect. Parking on a timer forces the idle moment that
			// lets the poller run; the cost is a per-peer bulk send
			// ceiling of BulkChunk/chunkPollWindow (~500 MB/s at the
			// defaults), far above any state-transfer need.
			time.Sleep(chunkPollWindow)
		}
	}
}

// writeAll issues one coalesced Write, retrying once over a fresh
// connection on failure (beyond that the frames are lost, which the
// asynchronous model tolerates). It returns the connection that took
// the bytes, or nil.
func (p *tcpPeer) writeAll(bulk bool, conn net.Conn, flush []byte, frames int) net.Conn {
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := conn.Write(flush); err == nil {
			p.t.stats.framesSent.Add(uint64(frames))
			p.t.stats.writes.Add(1)
			p.t.stats.bytesSent.Add(uint64(len(flush)))
			p.t.mFramesPerWrite.Observe(float64(frames))
			return conn
		}
		p.dropConn(bulk, conn)
		if attempt == 0 {
			if conn = p.ensureConn(bulk, true); conn != nil {
				continue
			}
		}
		break
	}
	return nil
}

func (p *tcpPeer) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// ensureConn returns the writer's connection, dialing it if needed.
// Dial failures back off exponentially with jitter; the loop exits
// when a connection lands (for the control writer, possibly adopted
// from an inbound dial by the peer), the peer becomes unroutable, or
// the transport closes — and, when the writer holds nothing to send
// (!retry: it only came to confirm a loss), after the first failure.
func (p *tcpPeer) ensureConn(bulk, retry bool) net.Conn {
	backoff := p.t.cfg.RedialBackoff
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil
		}
		c := p.conn
		if bulk {
			c = p.bulkConn
		}
		if c != nil {
			p.mu.Unlock()
			return c
		}
		p.mu.Unlock()

		p.t.mu.Lock()
		addr, known := p.t.addrs[p.id]
		closed := p.t.closed
		p.t.mu.Unlock()
		if closed || !known {
			// No dial route (an ephemeral client that went away, or
			// shutdown): the caller drops the batch.
			if !bulk {
				p.mu.Lock()
				p.forgetLoss()
				p.mu.Unlock()
			}
			return nil
		}
		conn, err := net.DialTimeout("tcp", addr, p.t.cfg.DialTimeout)
		p.t.stats.dials.Add(1)
		if err == nil {
			if bulk {
				// The bulk connection is ours alone: no tie-break, no
				// reverse path, nothing to read.
				if tc, ok := conn.(*net.TCPConn); ok {
					_ = tc.SetWriteBuffer(bulkSockBuf)
				}
				p.mu.Lock()
				if p.closed {
					p.mu.Unlock()
					_ = conn.Close()
					return nil
				}
				if p.bulkConn == nil {
					p.bulkConn = conn
				} else {
					_ = conn.Close()
					conn = p.bulkConn
				}
				p.mu.Unlock()
				return conn
			}
			if kept := p.t.registerConn(p.id, conn, true); kept != nil {
				return kept
			}
			return nil // transport closed underneath us
		}
		if !bulk {
			p.dialFailed()
			if !retry {
				return nil
			}
		}
		// Jittered exponential backoff: ±50% around the nominal delay.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		select {
		case <-time.After(d):
		case <-p.t.done:
			return nil
		}
		if backoff *= 2; backoff > p.t.cfg.RedialBackoffMax {
			backoff = p.t.cfg.RedialBackoffMax
		}
	}
}

// appendFrame seals one frame for peer `to` and appends its
// length-prefixed wire form to flush, reusing body as the MAC-input
// scratch. Both buffers grow once and are then reused for the life of
// the writer — the per-frame allocations of the old writeFrame path
// (frame buffer, MAC sum, length-prefix copy) are all gone.
func (t *TCP) appendFrame(flush, body []byte, to string, f outFrame) ([]byte, []byte) {
	start := len(flush)
	flush = append(flush, 0, 0, 0, 0) // length prefix, patched below

	flush = appendWireString(flush, t.self)
	flush = append(flush, f.kind)
	if f.kind == kindChunk {
		flush = binary.AppendUvarint(flush, f.stream)
		flush = binary.AppendUvarint(flush, uint64(f.index))
		flush = binary.AppendUvarint(flush, uint64(f.total))
	}
	flush = appendWireBytes(flush, f.payload)

	body = appendFrameBody(body[:0], t.self, to, f.kind, f.stream, f.index, f.total, f.payload)
	// The MAC is summed straight into the flush buffer — length prefix
	// first (HMAC-SHA256 sums are a fixed 32 bytes), removing the last
	// per-frame allocation in the seal path.
	const macLen = 32
	flush = binary.AppendUvarint(flush, macLen)
	pre := len(flush)
	flush, err := t.kr.AppendMAC(to, flush, body)
	if err != nil || len(flush)-pre != macLen {
		// No pairwise key: unsendable. Truncate the partial frame.
		return flush[:start], body
	}
	binary.BigEndian.PutUint32(flush[start:start+4], uint32(len(flush)-start-4))
	return flush, body
}

// appendFrameBody builds the MACed content: direction-bound (from, to)
// so a frame cannot be reflected or replayed to a third node, and
// covering the chunk header so chunk sequencing cannot be forged.
func appendFrameBody(dst []byte, from, to string, kind uint8, stream uint64, index, total uint32, payload []byte) []byte {
	dst = appendWireString(dst, from)
	dst = appendWireString(dst, to)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, stream)
	dst = binary.AppendUvarint(dst, uint64(index))
	dst = binary.AppendUvarint(dst, uint64(total))
	dst = appendWireBytes(dst, payload)
	return dst
}

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendWireBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// ---- Connection management ----

// registerConn pins conn as the peer's connection, resolving the
// simultaneous-dial race deterministically: the canonical connection
// for a pair is the one dialed by the lexicographically LOWER identity,
// so both sides converge on a single connection instead of pinning one
// each. It returns the connection the peer is pinned to afterwards
// (nil if the transport is closed). dialed says whether we dialed conn
// ourselves (as opposed to identifying an inbound connection).
func (t *TCP) registerConn(id string, conn net.Conn, dialed bool) net.Conn {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	p := t.peers[id]
	if p == nil {
		// First contact from an inbound peer (e.g. a client): create the
		// send-side state so replies have somewhere to go.
		p = t.newPeerLocked(id)
	}
	t.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		_ = conn.Close()
		return nil
	}
	old, oldDialed := p.conn, p.connDialed
	adopt := func() {
		p.conn = conn
		p.connDialed = dialed
		if old != nil {
			_ = old.Close()
		}
	}
	switch {
	case old == nil:
		adopt()
	case old == conn:
		// Already pinned.
	case dialed:
		// We dialed conn while an inbound connection from the peer was
		// already pinned. Lower dialer wins: ours iff self < id.
		if t.self < id {
			adopt()
		} else {
			_ = conn.Close()
			conn = old
		}
	default:
		// conn is inbound (dialed by the peer).
		if oldDialed && t.self < id {
			// Our dialed connection is canonical; keep reading from the
			// peer's redundant dial until the peer closes it, but never
			// write on it.
			conn = old
		} else {
			// Either the pinned conn was dialed by us and we are the
			// higher identity (the peer's dial is canonical), or the peer
			// re-dialed after a failure (newest inbound wins).
			adopt()
		}
	}
	p.forgetLoss() // a control connection is pinned again
	if dialed && p.conn == conn && old != conn {
		// We own this conn and just pinned it: it doubles as the read
		// path (the peer may answer over it rather than dial back).
		t.wg.Add(1)
		go t.readLoop(conn)
	}
	return p.conn
}

// dropConn unpins a connection after a write failure.
func (p *tcpPeer) dropConn(bulk bool, conn net.Conn) {
	p.mu.Lock()
	if bulk {
		if p.bulkConn == conn {
			p.bulkConn = nil
		}
	} else {
		p.unpin(conn)
	}
	p.mu.Unlock()
	_ = conn.Close()
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Cap kernel receive buffering (the OS would otherwise autotune
		// it to megabytes): TCP flow control then pushes congestion back
		// to the sender's lanes, where the priorities live, instead of
		// letting a bulk stream queue a pack's worth of bytes in the
		// kernel where nothing can preempt it.
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(bulkSockBuf)
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// ---- Read path ----

// readLoop consumes frames from one connection, verifying each MAC
// before delivery. Small frames are read into a reused scratch buffer
// (their payloads are copied out on delivery); large frames get a
// dedicated allocation whose payload subslice is delivered as-is.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		peers := make([]*tcpPeer, 0, len(t.peers))
		for _, p := range t.peers {
			peers = append(peers, p)
		}
		t.mu.Unlock()
		for _, p := range peers {
			p.mu.Lock()
			p.unpin(conn)
			p.mu.Unlock()
		}
		_ = conn.Close()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	var (
		scratch    []byte // reused frame buffer for small frames
		body       []byte // reused MAC verification input
		arena      []byte // delivery copies carved from a shared block
		identified string // peer this conn is registered for
	)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(hdr[:])
		if size > maxFrame {
			return // oversized: drop the connection
		}
		var frame []byte
		large := size > smallFrame
		if large {
			frame = make([]byte, size)
		} else {
			if cap(scratch) < int(size) {
				scratch = make([]byte, size, smallFrame)
			}
			frame = scratch[:size]
		}
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}

		r := wire.NewReader(frame)
		from := r.String()
		kind := r.Byte()
		var stream uint64
		var index, total uint32
		if kind == kindChunk {
			stream = r.Uvarint()
			index = uint32(r.Uvarint())
			total = uint32(r.Uvarint())
		}
		payload := r.BytesView()
		mac := r.BytesView()
		r.ExpectEOF()
		if r.Err() != nil || kind > kindBulkMsg {
			return // malformed framing: drop the connection
		}
		body = appendFrameBody(body[:0], from, t.self, kind, stream, index, total, payload)
		if !t.kr.Verify(from, body, mac) {
			continue // forged or corrupted: drop the frame, keep the conn
		}
		t.stats.framesRecv.Add(1)
		if t.suspects.Load() != 0 {
			t.heard(from)
		}
		if kind == kindMsg && identified != from {
			// Pin the connection as the reverse path to the sender
			// (clients listen on ephemeral ports, so replies must flow
			// back over the connection the request arrived on), applying
			// the simultaneous-dial tie-break. Bulk frames never register:
			// their connection is send-only for the peer, so replies
			// written there would vanish.
			t.registerConn(from, conn, false)
			identified = from
		}
		var deliver []byte
		switch kind {
		case kindMsg, kindBulkMsg:
			if large {
				deliver = payload // dedicated allocation: hand over as-is
			} else {
				// Carve the delivery copy from a shared block so a burst
				// of small frames costs one amortized allocation, not one
				// per frame. Full-capacity slicing keeps consumers from
				// appending into a neighbour; a block stays reachable only
				// while some payload carved from it is.
				if len(arena) < len(payload) {
					arena = make([]byte, arenaBlock)
				}
				deliver = arena[:len(payload):len(payload)]
				arena = arena[len(payload):]
				copy(deliver, payload)
			}
		case kindChunk:
			deliver = t.assemble(from, stream, index, total, payload)
			if deliver == nil {
				// Incomplete (or abandoned) stream: park briefly before
				// the next chunk. A sleep, not a Gosched — a reader
				// draining a buffered pack never blocks, and on a
				// single-proc runtime a merely-yielding bulk pipeline
				// keeps the processor permanently busy, so the scheduler
				// never reaches its network poll and control-connection
				// wakeups (votes!) stall for the entire pack. Parking on
				// a timer forces an idle moment — the writer side is
				// simultaneously parked by flow control thanks to
				// bulkSockBuf — so the poller runs every chunk. The cost
				// is a ~GB/s per-peer ceiling on bulk intake, far above
				// any state-transfer need.
				time.Sleep(chunkPollWindow)
				continue
			}
		}
		select {
		case t.inbox <- Inbound{From: from, Payload: deliver}:
		case <-t.done:
			return
		}
	}
}

// assembly is the reassembly state of one peer's in-flight chunked bulk
// message. Chunks of one stream arrive in order (the bulk lane is FIFO
// and chunks of distinct messages never interleave), so a single
// expected-index cursor per peer suffices; any discontinuity — a chunk
// lost to a redial, a fresh stream starting over — abandons the old
// stream. The buffer is bounded by maxFrame like any other frame.
type assembly struct {
	stream uint64
	next   uint32
	total  uint32
	buf    []byte
}

// assemble folds one verified chunk into the peer's stream, returning
// the completed message or nil.
func (t *TCP) assemble(from string, stream uint64, index, total uint32, payload []byte) []byte {
	if total == 0 || index >= total {
		return nil
	}
	t.asmMu.Lock()
	defer t.asmMu.Unlock()
	a := t.asm[from]
	if a == nil || a.stream != stream || a.next != index || a.total != total {
		// Not the continuation we expected: abandon any partial stream.
		delete(t.asm, from)
		if index != 0 {
			return nil // mid-stream chunk of a message whose head we lost
		}
		a = &assembly{stream: stream, total: total}
		// Reserve the full message up front (chunks are uniform except
		// the last): one allocation per stream instead of append's
		// grow-and-copy cascade, which on a multi-MB pack re-copies the
		// buffer several times while the reader holds asmMu.
		if size := int(total) * len(payload); size > 0 && size <= maxFrame {
			a.buf = make([]byte, 0, size)
		}
		t.asm[from] = a
	}
	if len(a.buf)+len(payload) > maxFrame {
		delete(t.asm, from)
		return nil
	}
	a.buf = append(a.buf, payload...)
	a.next++
	if a.next < a.total {
		return nil
	}
	delete(t.asm, from)
	return a.buf
}
