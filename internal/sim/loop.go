// Package sim is a deterministic cluster simulator: it runs whole
// multi-replica (and multi-group) PEATS deployments on a
// single-threaded event loop under virtual time, with a seeded fault
// schedule injecting message drops, delays, reorders, partitions,
// crash-restarts, and Byzantine message mutations. One seed fully
// determines a run — same seed, same schedule, byte-identical event
// trace and final state — so a failure found by sweeping thousands of
// seeds replays exactly under `peats-sim -replay`.
//
// The design follows goXRPLd's csf harness: a simulated clock owns all
// scheduling (replicas run in driven mode with virtual timers; see
// bft.Replica.StartDriven), and the network is a routing table applied
// at send time, so every run is a pure function of (schedule, seed).
package sim

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"time"

	"peats/internal/vclock"
)

// epoch is the fixed virtual-time origin of every run. A constant (not
// wall time) so virtual timestamps — and therefore trace digests — are
// identical across runs and machines.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// event is one scheduled callback. Events at equal times fire in
// scheduling order (seq), which is what makes the heap deterministic.
type event struct {
	at   time.Time
	seq  uint64
	fire func()
	dead bool // cancelled; skipped when popped
	idx  int  // heap index
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Loop is the single-threaded virtual-time event loop. Everything in a
// simulation — message deliveries, protocol timers, fault-script
// events — runs as loop events; nothing else may touch simulated
// state.
type Loop struct {
	now   time.Time
	heap  eventHeap
	seq   uint64
	fired uint64
	trace hash.Hash
	tbuf  []byte
}

// NewLoop returns a loop positioned at the virtual epoch.
func NewLoop() *Loop {
	return &Loop{now: epoch, trace: sha256.New()}
}

// Now returns the current virtual time.
func (l *Loop) Now() time.Time { return l.now }

// Events returns how many events have fired so far.
func (l *Loop) Events() uint64 { return l.fired }

// After schedules fire to run d from now (clamped to now for d ≤ 0) and
// returns a handle for cancellation.
func (l *Loop) After(d time.Duration, fire func()) *event {
	if d < 0 {
		d = 0
	}
	l.seq++
	e := &event{at: l.now.Add(d), seq: l.seq, fire: fire}
	heap.Push(&l.heap, e)
	return e
}

func (l *Loop) cancel(e *event) {
	if e != nil {
		e.dead = true
	}
}

// Step fires the next pending event, advancing virtual time to it. It
// reports false when no events remain.
func (l *Loop) Step() bool {
	for len(l.heap) > 0 {
		e := heap.Pop(&l.heap).(*event)
		if e.dead {
			continue
		}
		l.now = e.at
		l.fired++
		e.fire()
		return true
	}
	return false
}

// RunUntil fires events in order until the next event would lie after
// t (or the queue drains), then advances the clock to exactly t.
func (l *Loop) RunUntil(t time.Time) {
	for len(l.heap) > 0 {
		// Peek; dead events are popped and discarded without advancing.
		e := l.heap[0]
		if e.dead {
			heap.Pop(&l.heap)
			continue
		}
		if e.at.After(t) {
			break
		}
		heap.Pop(&l.heap)
		l.now = e.at
		l.fired++
		e.fire()
	}
	if l.now.Before(t) {
		l.now = t
	}
}

// traceEvent folds one observable event into the running trace digest.
// The digest commits to virtual time, the label, and the payload, so
// two runs with identical digests delivered the same bytes at the same
// virtual instants in the same order.
func (l *Loop) traceEvent(label string, a, b string, payload []byte) {
	l.tbuf = l.tbuf[:0]
	l.tbuf = binary.BigEndian.AppendUint64(l.tbuf, uint64(l.now.Sub(epoch)))
	l.tbuf = append(l.tbuf, label...)
	l.tbuf = append(l.tbuf, 0)
	l.tbuf = append(l.tbuf, a...)
	l.tbuf = append(l.tbuf, 0)
	l.tbuf = append(l.tbuf, b...)
	l.tbuf = append(l.tbuf, 0)
	l.trace.Write(l.tbuf)
	l.trace.Write(payload)
}

// TraceDigest returns the digest of every observable event so far.
func (l *Loop) TraceDigest() [32]byte {
	var d [32]byte
	l.trace.Sum(d[:0])
	return d
}

// ---- vclock.Clock over the loop ----

// Clock returns a vclock.Clock driven by the loop: timers fire their
// callbacks synchronously as loop events, and C() is nil (it never
// delivers), which is the virtual half of the vclock contract.
func (l *Loop) Clock() vclock.Clock { return simClock{l: l} }

type simClock struct{ l *Loop }

func (c simClock) Now() time.Time { return c.l.now }

func (c simClock) NewTimer(fire func()) vclock.Timer {
	return &simTimer{l: c.l, fire: fire}
}

func (c simClock) NewTicker(d time.Duration, fire func()) vclock.Ticker {
	t := &simTicker{l: c.l, fire: fire, d: d}
	t.arm()
	return t
}

type simTimer struct {
	l    *Loop
	fire func()
	ev   *event
}

func (t *simTimer) C() <-chan time.Time { return nil }

func (t *simTimer) Reset(d time.Duration) {
	t.l.cancel(t.ev)
	self := t
	t.ev = t.l.After(d, func() {
		self.ev = nil
		if self.fire != nil {
			self.fire()
		}
	})
}

func (t *simTimer) Stop() bool {
	pending := t.ev != nil && !t.ev.dead
	t.l.cancel(t.ev)
	t.ev = nil
	return pending
}

type simTicker struct {
	l    *Loop
	fire func()
	d    time.Duration
	ev   *event
	dead bool
}

func (t *simTicker) C() <-chan time.Time { return nil }

func (t *simTicker) arm() {
	self := t
	t.ev = t.l.After(t.d, func() {
		if self.dead {
			return
		}
		self.arm()
		if self.fire != nil {
			self.fire()
		}
	})
}

func (t *simTicker) Reset(d time.Duration) {
	t.d = d
	t.dead = false
	t.l.cancel(t.ev)
	t.arm()
}

func (t *simTicker) Stop() {
	t.dead = true
	t.l.cancel(t.ev)
	t.ev = nil
}
