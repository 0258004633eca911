package sim

import (
	"crypto/ed25519"
	"math/bits"
	"sort"
	"time"

	"peats/internal/auth"
	"peats/internal/bft"
	"peats/internal/transport"
	"peats/internal/vclock"
	"peats/internal/wire"
)

// retxInterval is how often a sim client rebroadcasts its unanswered
// request (virtual time).
const retxInterval = 100 * time.Millisecond

// simKeyMaster seeds the deterministic pairwise MAC keys of every
// simulated deployment. Client authenticators matter here: a replica
// that missed the original request (drop, partition, crash) can only
// vouch for it in a re-proposed batch via its authenticator, exactly
// as in a real deployment.
var simKeyMaster = []byte("peats-sim-key-master")

// makeKeyrings derives the replica keyrings of one group; newClient
// installs each client's pairwise keys into them, mirroring the
// trusted setup bft.Cluster performs.
func makeKeyrings(ids []string) map[string]*auth.Keyring {
	m := make(map[string]*auth.Keyring, len(ids))
	for _, id := range ids {
		m[id] = auth.NewKeyringFromMaster(simKeyMaster, id, ids)
	}
	return m
}

// client is an event-driven BFT client: the blocking bft.Client owns a
// goroutine and selects on real channels, so the simulator drives this
// reimplementation of its voting rules (2f+1 byte-identical replies,
// tentative and committed camps tallied separately) entirely from loop
// events. One request — a window of one or more operations under
// consecutive request IDs — is in flight at a time, as the model
// requires, and is voted on as a unit.
type client struct {
	id       string
	net      *Net
	replicas []string
	indexes  map[string]int
	f        int
	group    string
	kr       *auth.Keyring

	reqID    uint64 // last request ID issued: the in-flight window ends here
	firstID  uint64 // first request ID of the in-flight window; 0 = idle
	payload  []byte // marshalled request, rebroadcast on retransmit
	certMode bool   // current request wants a vote certificate
	camps    map[string]uint64
	tcamps   map[string]uint64
	retx     vclock.Timer

	// onResult is invoked on the loop thread when the in-flight request
	// is accepted, with its first ID and the voted Result (for a window
	// of one, the operation's own result).
	onResult func(reqID uint64, result []byte)

	// Certificate mode (the InvokeCert acceptance rule): only committed
	// replies carrying a valid attestation count, and acceptance yields
	// a transferable vote certificate. Used by the 2PC coordinator.
	attestKeys map[string]ed25519.PublicKey
	atts       map[string]map[string][]byte // result → replica → verified signature
	onCert     func(reqID uint64, result []byte, cert wire.VoteCert)

	// Acked tracks which request IDs completed, for the at-most-once
	// invariant.
	Acked map[uint64]bool
}

func newClient(id string, net *Net, loop *Loop, replicas []string, f int, krs map[string]*auth.Keyring) *client {
	c := &client{
		id: id, net: net, replicas: replicas, f: f,
		kr:      auth.NewKeyringFromMaster(simKeyMaster, id, replicas),
		indexes: make(map[string]int, len(replicas)),
		camps:   make(map[string]uint64),
		tcamps:  make(map[string]uint64),
		Acked:   make(map[uint64]bool),
	}
	for i, rid := range replicas {
		c.indexes[rid] = i
		if kr, ok := krs[rid]; ok {
			kr.SetKey(id, auth.DeriveKey(simKeyMaster, rid, id))
		}
	}
	self := c
	c.retx = loop.Clock().NewTimer(func() { self.retransmit() })
	net.Register(id, c.deliver)
	return c
}

// submit puts one request in flight, carrying ops as its window. The
// caller must be idle.
func (c *client) submit(ops ...[]byte) {
	c.certMode = false
	c.start(ops)
}

// submitCert puts one operation in flight under the certificate
// acceptance rule; onCert fires on acceptance instead of onResult.
func (c *client) submitCert(op []byte) {
	c.certMode = true
	c.atts = make(map[string]map[string][]byte)
	c.start([][]byte{op})
}

func (c *client) start(ops [][]byte) {
	c.firstID = c.reqID + 1
	c.reqID += uint64(len(ops))
	req := bft.Request{Client: c.id, ReqID: c.firstID, Op: ops[0], Tail: ops[1:], Group: c.group}
	d := req.Digest()
	req.Auth = make([][]byte, len(c.replicas))
	for i, rid := range c.replicas {
		mac, err := c.kr.MAC(rid, d[:])
		if err != nil {
			panic("sim: mac request: " + err.Error())
		}
		req.Auth[i] = mac
	}
	payload, err := bft.Marshal(req)
	if err != nil {
		panic("sim: marshal request: " + err.Error())
	}
	c.payload = payload
	clear(c.camps)
	clear(c.tcamps)
	c.broadcast()
	c.retx.Reset(retxInterval)
}

func (c *client) broadcast() {
	ep := c.net.Endpoint(c.id)
	for _, rid := range c.replicas {
		_ = ep.SendClass(rid, c.payload, transport.ClassRequest)
	}
}

func (c *client) retransmit() {
	if c.idle() {
		return
	}
	c.broadcast()
	c.retx.Reset(retxInterval)
}

func (c *client) idle() bool { return c.firstID == 0 }

// deliver processes one inbound message: replies vote per the client
// acceptance rule, a notice that a replica is unreachable brings the
// next retransmission forward (as bft.Client does for its presumed
// primary; this client has no guess and always broadcasts), everything
// else is ignored.
func (c *client) deliver(m transport.Inbound) {
	if c.idle() {
		return
	}
	if m.Down {
		c.retransmit()
		return
	}
	msg, err := bft.Unmarshal(m.Payload)
	if err != nil {
		return // Byzantine mutation or noise
	}
	rep, ok := msg.(bft.Reply)
	if !ok || rep.Replica != m.From || rep.Client != c.id || rep.ReqID != c.firstID || rep.ReadOnly {
		return
	}
	idx, ok := c.indexes[rep.Replica]
	if !ok {
		return
	}
	if c.certMode {
		c.deliverCert(rep)
		return
	}
	camps := c.camps
	if rep.Tentative {
		camps = c.tcamps
	}
	camps[string(rep.Result)] |= 1 << uint(idx)
	if bits.OnesCount64(camps[string(rep.Result)]) >= 2*c.f+1 {
		id := c.finish()
		if c.onResult != nil {
			c.onResult(id, rep.Result)
		}
	}
}

// finish retires the accepted in-flight request, marking every request
// ID of its window acknowledged, and returns its first ID.
func (c *client) finish() uint64 {
	first := c.firstID
	for id := first; id <= c.reqID; id++ {
		c.Acked[id] = true
	}
	c.firstID = 0
	c.payload = nil
	c.retx.Stop()
	return first
}

// deliverCert is the certificate-mode half of deliver: committed
// replies with valid attestation signatures accumulate until 2f+1
// distinct replicas back one result, which then forms a vote
// certificate (mirroring bft.Client.InvokeCert).
func (c *client) deliverCert(rep bft.Reply) {
	if rep.Tentative {
		return // only committed results are attested
	}
	pub, ok := c.attestKeys[rep.Replica]
	if !ok || len(rep.Attest) != ed25519.SignatureSize ||
		!ed25519.Verify(pub, wire.AttestPayload(c.group, rep.Result), rep.Attest) {
		return
	}
	camp := c.atts[string(rep.Result)]
	if camp == nil {
		camp = make(map[string][]byte)
		c.atts[string(rep.Result)] = camp
	}
	camp[rep.Replica] = rep.Attest
	if len(camp) < 2*c.f+1 {
		return
	}
	cert := wire.VoteCert{Group: c.group, Outcome: rep.Result}
	ids := make([]string, 0, len(camp))
	for id := range camp {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		cert.Atts = append(cert.Atts, wire.Attestation{Replica: id, Sig: camp[id]})
	}
	id := c.finish()
	if c.onCert != nil {
		c.onCert(id, rep.Result, cert)
	}
}

// decodeOutcome parses a reply result as a transaction outcome; used by
// the 2PC scenario.
func decodeOutcome(result []byte) (wire.TxOutcome, bool) {
	o, err := wire.DecodeTxOutcome(result)
	if err != nil {
		return wire.TxOutcome{}, false
	}
	return o, true
}
