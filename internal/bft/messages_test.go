package bft

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"peats/internal/auth"
	"peats/internal/policy"
	"peats/internal/tuple"
	"peats/internal/wire"
)

func TestMessageRoundTrips(t *testing.T) {
	req := Request{Client: "c1", ReqID: 7, Op: []byte{1, 2, 3}}
	authed := Request{Client: "c2", ReqID: 3, Op: []byte{4},
		Auth: [][]byte{{0xaa}, {0xbb}, {0xcc}, {0xdd}}}
	d := req.Digest()
	window := Request{Client: "c3", ReqID: 5, Op: []byte{6}, Tail: [][]byte{{7, 8}, {}, {9}},
		Auth: [][]byte{{0xaa}, {0xbb}, {0xcc}, {0xdd}}, Group: "g1"}
	batch := []Request{req, {Client: "c2", ReqID: 4, Op: []byte{5}}, window}
	msgs := []any{
		req,
		authed,
		window,
		Batch{View: 1, Seq: 9, Digest: d, Reqs: []Request{req}},
		Batch{View: 1, Seq: 10, Digest: BatchDigest(batch), Reqs: batch},
		Prepare{View: 1, Seq: 9, Digest: d, Replica: "r2"},
		Commit{View: 1, Seq: 9, Digest: d, Replica: "r0"},
		Reply{View: 1, Client: "c1", ReqID: 7, Replica: "r3", Result: []byte{9}},
		Reply{View: 1, Client: "c1", ReqID: 8, Replica: "r3", Result: []byte{9}, ReadOnly: true},
		ReadOnly{Client: "c1", ReqID: 9, Op: []byte{7}},
		Checkpoint{Seq: 128, Digest: d, Replica: "r1"},
		Checkpoint{Seq: 192, View: 3, Digest: d, BaseLen: 1 << 20, ChainLen: 4097, Replica: "r1"},
		ViewChange{NewView: 2, LastStable: 64,
			Prepared: []Batch{{View: 1, Seq: 65, Digest: BatchDigest(batch), Reqs: batch}},
			Replica:  "r2"},
		NewView{View: 2,
			Batches: []Batch{{View: 2, Seq: 65, Digest: d, Reqs: []Request{req}}},
			Replica: "r2"},
		SeqRequest{Seq: 66, Replica: "r0"},
		StateRequest{Seq: 128, Replica: "r3"},
		StateResponse{Seq: 128, View: 2, Snapshot: []byte{4, 5}, Replica: "r1"},
	}
	for _, msg := range msgs {
		enc, err := Marshal(msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		dec, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		// Compare via re-marshal (structs contain slices).
		enc2, err := Marshal(dec)
		if err != nil {
			t.Fatalf("remarshal %T: %v", dec, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%T: round trip not canonical", msg)
		}
	}
}

func TestMarshalUnknownType(t *testing.T) {
	if _, err := Marshal(42); err == nil {
		t.Error("marshalling an int should fail")
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{0xee},              // unknown type
		{byte(MsgRequest)},  // truncated
		{byte(MsgBatch), 1}, // truncated
		{byte(MsgViewChange), 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}, // huge count
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: malformed message accepted", i)
		}
	}
	// Type byte 2 is rejected: it was the single-request PRE-PREPARE, and
	// a well-formed frame of that retired form must not decode as
	// anything.
	req := Request{Client: "c", ReqID: 1, Op: []byte{1}}
	reqEnc, err := Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	d := req.Digest()
	old := append([]byte{2, 0, 1, byte(len(d))}, d[:]...) // type, view 0, seq 1, digest
	if _, err := Unmarshal(append(old, reqEnc[1:]...)); err == nil {
		t.Error("type byte 2 accepted")
	}
	// A window larger than maxWindow is rejected, as is a tail that ends
	// early or declares no operations.
	window := Request{Client: "c", ReqID: 1, Op: []byte{1}, Tail: make([][]byte, maxWindow-1)}
	if enc, err := Marshal(window); err != nil {
		t.Fatal(err)
	} else if _, err := Unmarshal(enc); err != nil {
		t.Errorf("window of maxWindow operations rejected: %v", err)
	}
	window.Tail = make([][]byte, maxWindow)
	if enc, err := Marshal(window); err != nil {
		t.Fatal(err)
	} else if _, err := Unmarshal(enc); err == nil {
		t.Errorf("window of %d operations accepted", maxWindow+1)
	}
	frame := func(body []byte) []byte { // a REQUEST frame around body, no authenticators
		return append(append([]byte{byte(MsgRequest), byte(len(body))}, body...), 0)
	}
	whole := encodeRequest(Request{Client: "c", ReqID: 1, Op: []byte{1}, Tail: [][]byte{{2, 3}, {4}}})
	if _, err := Unmarshal(frame(whole)); err != nil {
		t.Fatalf("hand-framed window rejected: %v", err)
	}
	if _, err := Unmarshal(frame(whole[:len(whole)-1])); err == nil {
		t.Error("window with a truncated tail accepted")
	}
	if _, err := Unmarshal(frame(append(encodeRequest(req), 0))); err == nil {
		t.Error("window with an empty tail accepted")
	}
	// Trailing bytes rejected.
	enc, err := Marshal(StateRequest{Seq: 1, Replica: "r"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(enc, 0xaa)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestRequestDigestDistinguishes(t *testing.T) {
	base := Request{Client: "c", ReqID: 1, Op: []byte{1}}
	variants := []Request{
		{Client: "d", ReqID: 1, Op: []byte{1}},
		{Client: "c", ReqID: 2, Op: []byte{1}},
		{Client: "c", ReqID: 1, Op: []byte{2}},
		{Client: "c", ReqID: 1, Op: []byte{1}, Tail: [][]byte{{}}},
		{Client: "c", ReqID: 1, Op: []byte{1}, Tail: [][]byte{{1}}},
		{Client: "c", ReqID: 1, Op: []byte{1}, Tail: [][]byte{{}, {}}},
	}
	for _, v := range variants {
		if v.Digest() == base.Digest() {
			t.Errorf("digest collision: %+v vs %+v", v, base)
		}
	}
	if base.Digest() != base.Digest() {
		t.Error("digest not deterministic")
	}
}

// TestOneOpRequestGolden pins a window of one to the bytes a
// single-operation request had before requests carried windows: the
// frame, and the digest the authenticators and batch digests are
// computed over (recorded from the commit before Tail existed).
func TestOneOpRequestGolden(t *testing.T) {
	req := Request{Client: "c1", ReqID: 7, Op: []byte{1, 2, 3}, Auth: [][]byte{{0xaa}, {0xbb}}, Group: "g"}
	enc, err := Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", enc), "010a026331070301020301670201aa01bb"; got != want {
		t.Errorf("one-op request frame\n got  %s\n want %s", got, want)
	}
	d := req.Digest()
	if got, want := fmt.Sprintf("%x", d), "409c502048b2b05836e0d90825b928faa2ee31eb6b2e5c249df239ffbca3f1d7"; got != want {
		t.Errorf("one-op request digest\n got  %s\n want %s", got, want)
	}
}

// TestOverlappingWindowsExecuteOnce delivers a Byzantine primary's
// batch whose windows overlap in request IDs: every ID executes at most
// once, whatever the batch claims.
func TestOverlappingWindowsExecuteOnce(t *testing.T) {
	out := func(id int64) []byte {
		return wire.EncodeSpaceOp(wire.SpaceOp{Op: policy.OpOut, Entry: tuple.T(tuple.Str("ID"), tuple.Int(id))})
	}
	win := func(first, last int64) Request {
		req := Request{Client: "c", ReqID: uint64(first), Op: out(first)}
		for id := first + 1; id <= last; id++ {
			req.Tail = append(req.Tail, out(id))
		}
		return req
	}
	svc := NewSpaceService(policy.AllowAll())
	d := newDrivenBackup(t, svc)
	b := d.propose(1, win(1, 3), win(2, 5), win(3, 3), win(4, 6), win(1, 3), win(6, 7))
	d.prepare(b)
	d.commit(b)
	if got := d.rep.Executed(); got != 1 {
		t.Fatalf("executed %d batches, want 1", got)
	}
	for id := int64(1); id <= 7; id++ {
		want := 1
		if id == 7 {
			want = 0 // only named by a window that overlaps an executed one
		}
		if got := svc.Space().CountMatching(tuple.T(tuple.Str("ID"), tuple.Int(id))); got != want {
			t.Errorf("request ID %d executed %d times, want %d", id, got, want)
		}
	}
}

func TestRequestDigestMatchesEncoding(t *testing.T) {
	req := Request{Client: "c", ReqID: 3, Op: []byte("op")}
	if req.Digest() != auth.Digest(encodeRequest(req)) {
		t.Error("Digest() must hash the canonical encoding")
	}
	// A window that overflows Digest's stack buffer hashes the same
	// encoding.
	big := Request{Client: "c", ReqID: 3, Op: []byte("op"), Tail: make([][]byte, maxWindow-1)}
	for i := range big.Tail {
		big.Tail[i] = bytes.Repeat([]byte{byte(i)}, 40)
	}
	if big.Digest() != auth.Digest(encodeRequest(big)) {
		t.Error("Digest() of a large window must hash the canonical encoding")
	}
	// The authenticator vector is transport proof, not identity: it
	// must not perturb the digest (a Byzantine primary flipping MAC
	// bytes must not mint a "different" request).
	withAuth := req
	withAuth.Auth = [][]byte{{1}, {2}, {3}, {4}}
	if withAuth.Digest() != req.Digest() {
		t.Error("authenticator vector must be excluded from the digest")
	}
}

func TestBatchDigest(t *testing.T) {
	r1 := Request{Client: "a", ReqID: 1, Op: []byte{1}}
	r2 := Request{Client: "b", ReqID: 1, Op: []byte{2}}
	if BatchDigest([]Request{r1}) != r1.Digest() {
		t.Error("single-request batch digest must equal the request digest")
	}
	if BatchDigest([]Request{r1, r2}) == BatchDigest([]Request{r2, r1}) {
		t.Error("batch digest must be order-sensitive")
	}
	if BatchDigest([]Request{r1, r2}) == BatchDigest([]Request{r1}) {
		t.Error("batch digest must cover every request")
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(client string, reqID uint64, op []byte, view, seq uint64) bool {
		req := Request{Client: client, ReqID: reqID, Op: op}
		b := Batch{View: view, Seq: seq, Digest: req.Digest(), Reqs: []Request{req}}
		enc, err := Marshal(b)
		if err != nil {
			return false
		}
		dec, err := Unmarshal(enc)
		if err != nil {
			return false
		}
		got, ok := dec.(Batch)
		return ok && got.View == view && got.Seq == seq &&
			got.Digest == b.Digest && len(got.Reqs) == 1 && got.Reqs[0].Client == client &&
			got.Reqs[0].ReqID == reqID && bytes.Equal(got.Reqs[0].Op, op)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

var digestSink [32]byte

// BenchmarkRequestDigest measures the digest of a one-op request (which
// must not allocate) and of a 32-op window (one sized buffer at most).
func BenchmarkRequestDigest(b *testing.B) {
	op := wire.EncodeSpaceOp(wire.SpaceOp{Op: policy.OpOut, Entry: tuple.T(tuple.Str("KEY"), tuple.Int(1234))})
	for _, n := range []int{1, 32} {
		req := Request{Client: "client-0", ReqID: 1 << 20, Op: op, Group: "g0"}
		for i := 1; i < n; i++ {
			req.Tail = append(req.Tail, op)
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				digestSink = req.Digest()
			}
		})
	}
}

// TestRequestEncodedLenExact pins encodedLen to the encoding it sizes:
// Digest relies on it to pick the stack buffer.
func TestRequestEncodedLenExact(t *testing.T) {
	f := func(client string, reqID uint64, op []byte, group string, tail [][]byte) bool {
		req := Request{Client: client, ReqID: reqID, Op: op, Group: group, Tail: tail}
		return req.encodedLen() == len(appendRequest(nil, req))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCheckpointGolden pins the CHECKPOINT frame: the chain head's two
// lengths travel beside the digest, before the sender.
func TestCheckpointGolden(t *testing.T) {
	var d [32]byte
	for i := range d {
		d[i] = byte(i)
	}
	cp := Checkpoint{Seq: 256, View: 2, Digest: d, BaseLen: 70000, ChainLen: 300, Replica: "r1"}
	enc, err := Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(MsgCheckpoint), 0x80, 0x02, 0x02, 32}
	want = append(want, d[:]...)
	want = append(want, 0xf0, 0xa2, 0x04, 0xac, 0x02, 2, 'r', '1')
	if !bytes.Equal(enc, want) {
		t.Fatalf("CHECKPOINT frame\n got  %x\n want %x", enc, want)
	}
	dec, err := Unmarshal(enc)
	if err != nil || dec != any(cp) {
		t.Fatalf("decoded %+v, %v", dec, err)
	}
}

// TestCheckpointRejectsGarbage: a CHECKPOINT with bytes after the
// sender, without its lengths (the frame before they existed), or with
// lengths no snapshot could have, is refused.
func TestCheckpointRejectsGarbage(t *testing.T) {
	var d [32]byte
	good, _ := Marshal(Checkpoint{Seq: 8, View: 1, Digest: d, BaseLen: 9, ChainLen: 1, Replica: "r1"})
	head := append([]byte{byte(MsgCheckpoint), 8, 1, 32}, d[:]...)
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // 2^64-1
	wrapped := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}  // past 64 bits
	cases := map[string][]byte{
		"trailing byte":     append(bytes.Clone(good), 0),
		"no lengths":        append(bytes.Clone(head), 2, 'r', '1'),
		"base too long":     append(append(append(bytes.Clone(head), overflow...), 1), 2, 'r', '1'),
		"chain too long":    append(append(append(bytes.Clone(head), 1), overflow...), 2, 'r', '1'),
		"varint past 64bit": append(append(append(bytes.Clone(head), wrapped...), 1), 2, 'r', '1'),
		"truncated":         good[:len(good)-4],
	}
	if _, err := Unmarshal(good); err != nil {
		t.Fatalf("well-formed frame rejected: %v", err)
	}
	for name, frame := range cases {
		if msg, err := Unmarshal(frame); err == nil {
			t.Errorf("%s: accepted as %+v", name, msg)
		}
	}
}
