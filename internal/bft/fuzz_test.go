package bft

import (
	"reflect"
	"testing"
)

// FuzzUnmarshal feeds Unmarshal what the network does — frames any
// process can send: it never panics, and whatever it accepts survives
// Marshal and a second Unmarshal as the same value.
func FuzzUnmarshal(f *testing.F) {
	req := Request{Client: "c1", ReqID: 7, Op: []byte{1, 2, 3}, Auth: [][]byte{{0xaa}, {0xbb}, {0xcc}, {0xdd}}, Group: "g"}
	window := Request{Client: "c2", ReqID: 8, Op: []byte{4}, Tail: make([][]byte, 31)}
	for i := range window.Tail {
		window.Tail[i] = []byte{byte(i), 5}
	}
	oversize := window
	oversize.Tail = make([][]byte, maxWindow)
	reqs := []Request{req, window}
	batch := Batch{View: 1, Seq: 9, Digest: BatchDigest(reqs), Reqs: reqs}
	d := req.Digest()
	for _, msg := range []any{
		req, window, oversize, batch,
		Prepare{View: 1, Seq: 9, Digest: d, Replica: "r2"},
		Commit{View: 1, Seq: 9, Digest: d, Replica: "r0"},
		Reply{View: 1, Client: "c1", ReqID: 7, Replica: "r3", Result: []byte{9}, Tentative: true, Group: "g", Attest: []byte{1}},
		Checkpoint{Seq: 128, View: 1, Digest: d, BaseLen: 70000, ChainLen: 300, Replica: "r1"},
		Checkpoint{Seq: 192, View: 1, Digest: d, BaseLen: maxCheckpointLen, Replica: "r1"},
		ViewChange{NewView: 2, LastStable: 64, Prepared: []Batch{batch}, Replica: "r2"},
		NewView{View: 2, Batches: []Batch{batch}, Replica: "r2"},
		StateRequest{Seq: 128, Replica: "r3"},
		StateResponse{Seq: 128, View: 2, Snapshot: []byte{4, 5}, Replica: "r1"},
		ReadOnly{Client: "c1", ReqID: 9, Op: []byte{7}},
		SeqRequest{Seq: 66, Replica: "r0"},
		ViewChangeAck{View: 2, Origin: "r1", Digest: d, Replica: "r3"},
	} {
		enc, err := Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return
		}
		enc, err := Marshal(msg)
		if err != nil {
			t.Fatalf("accepted %T does not marshal: %v", msg, err)
		}
		again, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-encoded %T rejected: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("round trip changed the value:\n first  %+v\n second %+v", msg, again)
		}
	})
}
