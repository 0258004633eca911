package sim

import (
	"math/rand"
	"sort"
	"time"

	"peats/internal/transport"
)

// Net is the simulated network: a routing table whose links apply the
// schedule's stochastic faults (drop, delay, reorder), the current
// partition map, per-node down flags, and Byzantine outbound mutation.
// Every routing decision draws from the run's single seeded RNG on the
// loop thread, so the whole network is deterministic.
type Net struct {
	loop  *Loop
	rng   *rand.Rand
	sched *Schedule
	slots map[string]*nodeSlot

	// faults gates the stochastic and Byzantine machinery; the harness
	// clears it at the horizon so the convergence phase runs on a clean
	// network.
	faults bool
}

type nodeSlot struct {
	id      string
	handler func(transport.Inbound)
	down    bool
	part    int // partition cell; cells differing → link cut
	byz     bool
}

// NewNet builds a network over the loop, driven by the schedule's
// stochastic knobs and the shared run RNG.
func NewNet(loop *Loop, rng *rand.Rand, sched *Schedule) *Net {
	return &Net{loop: loop, rng: rng, sched: sched, slots: make(map[string]*nodeSlot), faults: true}
}

// Endpoint returns id's transport handle, creating its slot.
func (n *Net) Endpoint(id string) *Endpoint {
	if _, ok := n.slots[id]; !ok {
		n.slots[id] = &nodeSlot{id: id}
	}
	return &Endpoint{n: n, id: id}
}

// Register installs id's inbound handler (nil detaches it). Driven
// replicas and sim clients receive messages through this, never
// through Inbox.
func (n *Net) Register(id string, h func(transport.Inbound)) {
	n.Endpoint(id) // ensure the slot exists
	n.slots[id].handler = h
}

// SetDown marks a node crashed (true) or back up (false). Messages in
// flight toward a down node are discarded at delivery time. Going down
// is also an event for everyone else, as it is on a real network where
// the node's connections end: each surviving node is sent a Down notice
// (transport.Inbound.Down) one link delay later — unless the node is
// back by then, the case where a real transport's confirming redial
// succeeds and it stays quiet.
func (n *Net) SetDown(id string, down bool) {
	n.Endpoint(id)
	n.slots[id].down = down
	label := "up"
	if down {
		label = "down"
	}
	n.loop.traceEvent(label, id, "", nil)
	if !down {
		return
	}
	// Sorted, because each notice draws its delay from the run's RNG.
	peers := make([]string, 0, len(n.slots))
	for peer := range n.slots {
		if peer != id {
			peers = append(peers, peer)
		}
	}
	sort.Strings(peers)
	for _, peer := range peers {
		peer := peer
		n.loop.After(n.linkDelay(), func() {
			d := n.slots[peer]
			if !n.slots[id].down || d.down || d.handler == nil {
				return
			}
			n.loop.traceEvent("lost", id, peer, nil)
			d.handler(transport.Inbound{From: id, Down: true})
		})
	}
}

// linkDelay draws one message's base delivery delay.
func (n *Net) linkDelay() time.Duration {
	delay := n.sched.DelayMin
	if span := n.sched.DelayMax - n.sched.DelayMin; span > 0 {
		delay += time.Duration(n.rng.Int63n(int64(span) + 1))
	}
	return delay
}

// SetByzantine marks a node's outbound messages for random mutation.
func (n *Net) SetByzantine(id string, on bool) {
	n.Endpoint(id)
	n.slots[id].byz = on
}

// Partition places each listed node in partition cell 1, everyone else
// in cell 0; links across cells are cut. Nodes not listed anywhere
// (clients) stay in cell 0 with the majority.
func (n *Net) Partition(minority []string) {
	for _, s := range n.slots {
		s.part = 0
	}
	for _, id := range minority {
		n.Endpoint(id)
		n.slots[id].part = 1
	}
	n.loop.traceEvent("partition", "", "", []byte(joinIDs(minority)))
}

// Heal removes every partition.
func (n *Net) Heal() {
	for _, s := range n.slots {
		s.part = 0
	}
	n.loop.traceEvent("heal", "", "", nil)
}

// Quiesce turns off the stochastic and Byzantine fault machinery (the
// convergence phase after the horizon); scripted state (partitions,
// down nodes) is the harness's business.
func (n *Net) Quiesce() {
	n.faults = false
	for _, s := range n.slots {
		s.byz = false
	}
}

func joinIDs(ids []string) string {
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += ","
		}
		out += id
	}
	return out
}

// route is every link's send path.
func (n *Net) route(from, to string, payload []byte) error {
	src, ok := n.slots[from]
	if !ok {
		return transport.ErrUnknownPeer
	}
	dst, ok := n.slots[to]
	if !ok {
		return transport.ErrUnknownPeer
	}
	if src.down {
		return transport.ErrClosed
	}
	// Partition and stochastic loss are decided at send time; a cut or
	// dropped message is simply gone (the protocol's retransmission
	// machinery owns recovery).
	if src.part != dst.part {
		return nil
	}
	if n.faults && n.sched.DropProb > 0 && n.rng.Float64() < n.sched.DropProb {
		return nil
	}
	// Byzantine mutation: flip a few bytes of a copy. The replica-level
	// fault model tolerates f such replicas; receivers must reject or
	// out-vote whatever this produces.
	if n.faults && src.byz {
		mutated := make([]byte, len(payload))
		copy(mutated, payload)
		for i, flips := 0, 1+n.rng.Intn(3); i < flips && len(mutated) > 0; i++ {
			mutated[n.rng.Intn(len(mutated))] ^= byte(1 + n.rng.Intn(255))
		}
		payload = mutated
	}
	delay := n.linkDelay()
	if n.faults && n.sched.ReorderProb > 0 && n.rng.Float64() < n.sched.ReorderProb &&
		n.sched.ReorderMax > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.sched.ReorderMax) + 1))
	}
	n.loop.After(delay, func() {
		d := n.slots[to]
		if d == nil || d.down || d.handler == nil {
			return
		}
		n.loop.traceEvent("msg", from, to, payload)
		d.handler(transport.Inbound{From: from, Payload: payload})
	})
	return nil
}

// Endpoint implements transport.Transport over the simulated network.
// Inbox is never used (all parties are driven via Register handlers),
// so it returns nil — a driven replica's run loop is never started.
type Endpoint struct {
	n  *Net
	id string
}

var _ transport.Transport = (*Endpoint)(nil)

func (e *Endpoint) Self() string { return e.id }

func (e *Endpoint) Send(to string, payload []byte) error {
	return e.n.route(e.id, to, payload)
}

func (e *Endpoint) SendClass(to string, payload []byte, _ transport.Class) error {
	return e.n.route(e.id, to, payload)
}

func (e *Endpoint) Inbox() <-chan transport.Inbound { return nil }

func (e *Endpoint) Close() error { return nil }
