package bft

import (
	"bytes"
	"testing"
	"testing/quick"

	"peats/internal/auth"
)

func TestMessageRoundTrips(t *testing.T) {
	req := Request{Client: "c1", ReqID: 7, Op: []byte{1, 2, 3}}
	authed := Request{Client: "c2", ReqID: 3, Op: []byte{4},
		Auth: [][]byte{{0xaa}, {0xbb}, {0xcc}, {0xdd}}}
	d := req.Digest()
	batch := []Request{req, {Client: "c2", ReqID: 4, Op: []byte{5}}}
	msgs := []any{
		req,
		authed,
		Batch{View: 1, Seq: 9, Digest: d, Reqs: []Request{req}},
		Batch{View: 1, Seq: 10, Digest: BatchDigest(batch), Reqs: batch},
		Prepare{View: 1, Seq: 9, Digest: d, Replica: "r2"},
		Commit{View: 1, Seq: 9, Digest: d, Replica: "r0"},
		Reply{View: 1, Client: "c1", ReqID: 7, Replica: "r3", Result: []byte{9}},
		Reply{View: 1, Client: "c1", ReqID: 8, Replica: "r3", Result: []byte{9}, ReadOnly: true},
		ReadOnly{Client: "c1", ReqID: 9, Op: []byte{7}},
		Checkpoint{Seq: 128, Digest: d, Replica: "r1"},
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

func TestRequestDigestMatchesEncoding(t *testing.T) {
	req := Request{Client: "c", ReqID: 3, Op: []byte("op")}
	if req.Digest() != auth.Digest(encodeRequest(req)) {
		t.Error("Digest() must hash the canonical encoding")
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
