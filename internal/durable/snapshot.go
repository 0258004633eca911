package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"peats/internal/space"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// Snapshot files carry the full state as of a WAL position: the file
// snap-<N>.snap holds everything the segments below index N said, so
// recovery loads the highest valid snapshot and replays only the
// segments at or above its index. The layout is
//
//	8-byte magic | u32le CRC-32C of payload | payload
//
// with the payload carrying the covered unit sequence number, the
// space sequence counter, the replication layer's extra blob (its
// client table at the snapshot point), and the seq-sorted live tuples.
// Snapshots are written to a temp file and renamed into place, so a
// crash mid-snapshot leaves the previous snapshot (and the segments it
// needs) untouched.

var snapMagic = [8]byte{'P', 'T', 'S', 'N', 'A', 'P', '0', '1'}

// snapshotData is a decoded snapshot file.
type snapshotData struct {
	unitSeq uint64
	maxSeq  uint64
	extra   []byte
	tuples  []space.SeqTuple
}

// encodeSnapshot builds a snapshot file in one pass: state streams the
// live tuples, in sequence order, straight into a buffer sized from the
// previous snapshot (sizeHint), and the header — whose tuple count is
// only known once the stream ends — is written into the room left in
// front of them, so the bytes returned are written to disk as they are.
func encodeSnapshot(unitSeq, maxSeq uint64, extra []byte, state func(func(space.SeqTuple) bool), sizeHint int) []byte {
	room := len(snapMagic) + 4 + 4*binary.MaxVarintLen64 + len(extra)
	buf := make([]byte, room, room+sizeHint+sizeHint/8+1024)
	count := uint64(0)
	state(func(st space.SeqTuple) bool {
		buf = binary.AppendUvarint(buf, st.Seq)
		buf = tuple.Append(buf, st.T)
		count++
		return true
	})
	hdr := make([]byte, 0, room)
	hdr = binary.AppendUvarint(hdr, unitSeq)
	hdr = binary.AppendUvarint(hdr, maxSeq)
	hdr = binary.AppendUvarint(hdr, uint64(len(extra)))
	hdr = append(hdr, extra...)
	hdr = binary.AppendUvarint(hdr, count)
	payload := room - len(hdr)
	copy(buf[payload:], hdr)
	start := payload - 4 - len(snapMagic)
	copy(buf[start:], snapMagic[:])
	binary.LittleEndian.PutUint32(buf[payload-4:], crc32.Checksum(buf[payload:], crcTable))
	return buf[start:]
}

// maxSnapTuples bounds decoded snapshot sizes the same way the WAL
// decoder bounds mutation counts.
const maxSnapTuples = 1 << 26

func decodeSnapshot(b []byte) (snapshotData, error) {
	if len(b) < len(snapMagic)+4 || string(b[:len(snapMagic)]) != string(snapMagic[:]) {
		return snapshotData{}, fmt.Errorf("%w: bad snapshot header", errCorrupt)
	}
	sum := binary.LittleEndian.Uint32(b[len(snapMagic) : len(snapMagic)+4])
	payload := b[len(snapMagic)+4:]
	if crc32.Checksum(payload, crcTable) != sum {
		return snapshotData{}, fmt.Errorf("%w: snapshot checksum mismatch", errCorrupt)
	}
	r := wire.NewReader(payload)
	sd := snapshotData{unitSeq: r.Uvarint(), maxSeq: r.Uvarint(), extra: r.Bytes()}
	count := r.Uvarint()
	if count > maxSnapTuples {
		return snapshotData{}, fmt.Errorf("%w: snapshot with %d tuples", errCorrupt, count)
	}
	if count > 0 && r.Err() == nil {
		sd.tuples = make([]space.SeqTuple, 0, min(count, 4096))
		for i := uint64(0); i < count; i++ {
			st := space.SeqTuple{Seq: r.Uvarint()}
			st.T = r.Tuple()
			if r.Err() != nil {
				break
			}
			sd.tuples = append(sd.tuples, st)
		}
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return snapshotData{}, fmt.Errorf("%w: snapshot payload: %v", errCorrupt, err)
	}
	return sd, nil
}

// readSnapshotFile decodes a snapshot file and reports its length.
func readSnapshotFile(path string) (snapshotData, int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return snapshotData{}, 0, err
	}
	sd, err := decodeSnapshot(b)
	return sd, len(b), err
}

// writeSnapshotFile durably writes a snapshot: temp file, fsync,
// rename, directory fsync.
func writeSnapshotFile(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and unlinks are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
