package space_test

import (
	"fmt"
	"math/rand"
	"testing"

	"peats/internal/space"
	"peats/internal/tuple"
)

func lockTuple(name string, holder tuple.Field) tuple.Tuple {
	return tuple.T(tuple.Str("LOCK"), tuple.Str(name), holder)
}

// TestSharedTagLookupCost pins the second index level by the length of
// the list a lookup walks, not by timing: with 4096 locks under one tag,
// every template that names a lock or a rare holder walks its matches
// only, and a churn of acquire/release cycles leaves that true because
// removal trims the list it walked and compaction bounds the rest.
func TestSharedTagLookupCost(t *testing.T) {
	const n = 4096
	st := space.NewIndexedStore()
	seq := uint64(0)
	insert := func(tu tuple.Tuple) {
		seq++
		st.Insert(tu, seq)
	}
	for i := 0; i < n; i++ {
		holder := fmt.Sprintf("c%d", i%2)
		if i == n/2 {
			holder = "solo"
		}
		insert(lockTuple(fmt.Sprintf("name%d", i), tuple.Str(holder)))
	}
	check := func(when string) {
		t.Helper()
		for _, tc := range []struct {
			tmpl    tuple.Tuple
			matches int
		}{
			{lockTuple("name7", tuple.Formal("h")), 1},
			{lockTuple("name7", tuple.Str("c1")), 1},
			{lockTuple("name7", tuple.Str("c0")), 0},
			{lockTuple("free", tuple.Formal("h")), 0},
			{tuple.T(tuple.Str("LOCK"), tuple.Any(), tuple.Str("solo")), 1},
		} {
			if got := space.Count(st, tc.tmpl); got != tc.matches {
				t.Fatalf("%s: %v matches %d tuples, want %d", when, tc.tmpl, got, tc.matches)
			}
			// A list at most SubIndexMin long is walked as it is.
			if got := space.CandidateLen(st, tc.tmpl); got > tc.matches && got > space.SubIndexMin {
				t.Errorf("%s: %v walks a list of %d for %d matches", when, tc.tmpl, got, tc.matches)
			}
		}
		// A common holder's posting list carries the dead records of
		// released locks until compaction, which keeps the dead at no
		// more than the live.
		byHolder := tuple.T(tuple.Str("LOCK"), tuple.Any(), tuple.Str("c0"))
		if got, bound := space.CandidateLen(st, byHolder), space.Count(st, byHolder)+st.Len(); got > bound {
			t.Errorf("%s: %v walks a list of %d, bound %d", when, byHolder, got, bound)
		}
	}
	check("after fill")
	if got := space.CandidateLen(st, lockTuple("name7", tuple.Formal("h"))); got != 1 {
		t.Errorf("fresh store: a named lock walks %d records, want exactly 1", got)
	}

	for i := 0; i < 3*n; i++ {
		name := fmt.Sprintf("cyc%d", i%256)
		if _, _, held := st.Find(lockTuple(name, tuple.Formal("h")), false); held {
			t.Fatalf("cycle %d: %s is held", i, name)
		}
		entry := lockTuple(name, tuple.Str("c0"))
		insert(entry)
		if _, _, ok := st.Find(entry, true); !ok {
			t.Fatalf("cycle %d: %s vanished", i, name)
		}
	}
	check("after churn")
	if st.Len() != n {
		t.Fatalf("len = %d, want %d", st.Len(), n)
	}
}

// TestSubIndexThreshold pins the no-knob rule: a first-field list is
// walked whole up to SubIndexMin records and through its postings
// beyond.
func TestSubIndexThreshold(t *testing.T) {
	st := space.NewIndexedStore()
	tmpl := tuple.T(tuple.Str("SEQ"), tuple.Int(0), tuple.Any())
	for i := 0; i <= space.SubIndexMin; i++ {
		if got := space.CandidateLen(st, tmpl); got != i {
			t.Fatalf("%d records: walks %d, want the whole list", i, got)
		}
		st.Insert(tuple.T(tuple.Str("SEQ"), tuple.Int(int64(i)), tuple.Str("inv")), uint64(i+1))
	}
	if got := space.CandidateLen(st, tmpl); got != 1 {
		t.Fatalf("%d records: walks %d, want 1 (the posting list)", space.SubIndexMin+1, got)
	}
}

// TestSharedTagConcurrentReads runs every read the store offers against
// a sub-indexed list from several goroutines at once, as the sharded
// space does under shared locks; under -race any write on a read path
// fails it.
func TestSharedTagConcurrentReads(t *testing.T) {
	st := space.NewIndexedStore()
	for i := 0; i < 512; i++ {
		st.Insert(lockTuple(fmt.Sprintf("name%d", i%400), tuple.Str(fmt.Sprintf("c%d", i%3))), uint64(i+1))
	}
	for i := 0; i < 100; i++ { // leave dead records in every list
		st.Find(lockTuple(fmt.Sprintf("name%d", i), tuple.Any()), true)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				byName := lockTuple(fmt.Sprintf("name%d", (i*7+w)%400), tuple.Formal("h"))
				byHolder := tuple.T(tuple.Str("LOCK"), tuple.Any(), tuple.Str(fmt.Sprintf("c%d", i%3)))
				st.Find(byName, false)
				space.FindAll(st, byName)
				space.Count(st, byHolder)
				st.Scan(byHolder, func(space.SeqTuple) bool { return false })
				next := st.Iter()
				next()
				st.Snapshot()
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// The fuzz program alphabet is small on purpose: three tags and eight
// values make first-field lists cross SubIndexMin in both directions,
// give every posting list duplicates and kind collisions (1 / true),
// and let removals outnumber the live records so compaction fires.
var (
	fuzzTags   = []tuple.Field{tuple.Str("LOCK"), tuple.Str("SEQ"), tuple.Int(0)}
	fuzzValues = []tuple.Field{
		tuple.Int(0), tuple.Int(1), tuple.Int(2), tuple.Str("a"), tuple.Str("b"),
		tuple.Bool(true), tuple.Bytes([]byte{0}), tuple.Bytes([]byte{1}),
	}
	fuzzArities = []int{3, 3, 2, 3, 1, 3, 2, 4}
)

// fuzzProgram decodes operations from fuzz input, one byte per choice;
// an exhausted input reads as zeros.
type fuzzProgram struct {
	data []byte
	pos  int
}

func (p *fuzzProgram) done() bool { return p.pos >= len(p.data) }

func (p *fuzzProgram) next() int {
	if p.done() {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return int(b)
}

func (p *fuzzProgram) entry() tuple.Tuple {
	fields := make([]tuple.Field, fuzzArities[p.next()%len(fuzzArities)])
	fields[0] = fuzzTags[p.next()%len(fuzzTags)]
	for i := 1; i < len(fields); i++ {
		fields[i] = fuzzValues[p.next()%len(fuzzValues)]
	}
	return tuple.T(fields...)
}

// template blanks each field of an entry with probability 1/2 (first
// field: 1/4), as a wildcard or a formal.
func (p *fuzzProgram) template() tuple.Tuple {
	fields := p.entry().Fields()
	for i := range fields {
		switch c := p.next() % 8; {
		case c == 0:
			fields[i] = tuple.Any()
		case c == 1:
			fields[i] = tuple.Formal("x")
		case c < 4 && i > 0:
			fields[i] = tuple.Any()
		}
	}
	return tuple.T(fields...)
}

// FuzzIndexedParity interprets the input as a program of store calls
// and runs it against the slice oracle and the indexed engine, failing
// on the first answer that differs.
//
//	go test ./internal/space -run '^$' -fuzz '^FuzzIndexedParity$' -fuzztime 30s -fuzzminimizetime 1s
func FuzzIndexedParity(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzIndexedParity) holds longer
	// programs; this one keeps the target meaningful without it.
	seed := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("program too long")
		}
		p := &fuzzProgram{data: data}
		ref, idx := space.NewSliceStore(), space.NewIndexedStore()
		seq := uint64(0)
		insert := func(n int) {
			batch := make([]space.SeqTuple, n)
			for i := range batch {
				seq++
				batch[i] = space.SeqTuple{Seq: seq, T: p.entry()}
			}
			if n == 1 {
				ref.Insert(batch[0].T, batch[0].Seq)
				idx.Insert(batch[0].T, batch[0].Seq)
				return
			}
			ref.InsertBatch(batch)
			idx.InsertBatch(batch)
		}
		find := func(step int, tmpl tuple.Tuple, remove bool) bool {
			a, as, aok := ref.Find(tmpl, remove)
			b, bs, bok := idx.Find(tmpl, remove)
			if aok != bok || as != bs || !a.Equal(b) {
				t.Fatalf("step %d Find(%v, %v): slice %v@%d/%v, indexed %v@%d/%v", step, tmpl, remove, a, as, aok, b, bs, bok)
			}
			return aok
		}
		same := func(step int, what string, as, bs []space.SeqTuple) {
			if len(as) != len(bs) {
				t.Fatalf("step %d %s: slice %d tuples, indexed %d", step, what, len(as), len(bs))
			}
			for i := range as {
				if as[i].Seq != bs[i].Seq || !as[i].T.Equal(bs[i].T) {
					t.Fatalf("step %d %s[%d]: slice %v, indexed %v", step, what, i, as[i], bs[i])
				}
			}
		}
		for step := 0; !p.done(); step++ {
			switch op := p.next() % 16; {
			case op < 5:
				insert(1)
			case op == 5:
				insert(2 + p.next()%14)
			case op < 9:
				find(step, p.template(), true)
			case op == 9:
				find(step, p.entry(), true)
			case op == 10:
				find(step, p.template(), false)
			case op == 11:
				tmpl := p.template()
				same(step, fmt.Sprintf("FindAll(%v)", tmpl), space.FindAll(ref, tmpl), space.FindAll(idx, tmpl))
			case op == 12:
				tmpl := p.template()
				if a, b := space.Count(ref, tmpl), space.Count(idx, tmpl); a != b {
					t.Fatalf("step %d Count(%v): slice %d, indexed %d", step, tmpl, a, b)
				}
			case op == 13:
				same(step, "Snapshot", ref.Snapshot(), idx.Snapshot())
			case op == 14: // drain a template's matches, oldest first
				for tmpl := p.template(); find(step, tmpl, true); {
				}
			default:
				if p.next()%4 == 0 {
					ref.Reset()
					idx.Reset()
				}
			}
			if ref.Len() != idx.Len() {
				t.Fatalf("step %d: slice holds %d, indexed %d", step, ref.Len(), idx.Len())
			}
		}
		same(-1, "final Snapshot", ref.Snapshot(), idx.Snapshot())
		var iterated []space.SeqTuple
		for next := idx.Iter(); ; {
			st, ok := next()
			if !ok {
				break
			}
			iterated = append(iterated, st)
		}
		same(-1, "Iter", ref.Snapshot(), iterated)
	})
}
