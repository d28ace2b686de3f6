package rrset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary batch format (little-endian): magic "OPIMR3\n", int32 n,
// int64 count, int64 poolLen, int64 edgesExamined, count+1 int64 offsets,
// poolLen int32 node ids, count int64 per-set edges-examined values, then a
// uint32 CRC-32C of every byte between the magic and the trailer. A frame
// carries no index: it decodes into a Batch, which a collection indexes
// once when it Appends it.
//
// The per-set γ block is the state Repair needs to patch the cumulative
// edges-examined count exactly when individual RR sets are regenerated
// after a graph mutation. The CRC trailer catches what length checks
// cannot: an in-range bit flip in the pool, which matters because
// batches travel over a network between fleet workers and their
// coordinator. Session checkpoints carry no collection: they store the
// session's recipe and regenerate its sets. OPIMR3 is the only frame
// written or read.
const collectionMagic = "OPIMR3\n"

// crcTable is Castagnoli, hardware-accelerated on both amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadCollection reports a malformed serialized collection.
var ErrBadCollection = errors.New("rrset: bad collection format")

// batch is c's storage viewed as one Batch (its offsets start at 0).
func (c *Collection) batch() Batch {
	return Batch{N: c.n, Pool: c.pool, Offs: c.offs, Exam: c.exam}
}

// WriteCollection serializes c as an OPIMR3 frame.
func WriteCollection(w io.Writer, c *Collection) error { return WriteBatch(w, c.batch()) }

// WriteBatch writes the sets of batches (at least one, all sampled on one
// graph), in order, as one OPIMR3 frame: the frame a collection holding
// exactly those sets would write. A fleet worker answers a lease with
// SampleAt's batches this way, so the coordinator decodes one Batch per
// lease.
func WriteBatch(w io.Writer, batches ...Batch) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(collectionMagic); err != nil {
		return err
	}
	var sum uint32
	if err := encodeBody(batches, func(b []byte) error {
		sum = crc32.Update(sum, crcTable, b)
		_, err := bw.Write(b)
		return err
	}); err != nil {
		return err
	}
	if _, err := bw.Write(binary.LittleEndian.AppendUint32(nil, sum)); err != nil {
		return err
	}
	return bw.Flush()
}

// Checksum is the CRC-32C of c's OPIMR3 body — the trailer WriteCollection
// would write — computed without materializing the frame. Session
// checkpoints record it to verify that regeneration reproduced the
// collection they were saved from.
func (c *Collection) Checksum() uint32 {
	var sum uint32
	_ = encodeBody([]Batch{c.batch()}, func(b []byte) error { // emit never fails
		sum = crc32.Update(sum, crcTable, b)
		return nil
	})
	return sum
}

// encodeChunk is the size of the buffer encodeBody fills before each emit.
const encodeChunk = 64 << 10

// encodeBody streams the OPIMR3 body of batches' sets — header, offsets,
// pool, per-set γ, everything between magic and trailer — to emit in chunks
// of at most encodeChunk bytes, reusing one buffer. It stops at the first
// emit error.
func encodeBody(batches []Batch, emit func([]byte) error) error {
	var count, poolLen, gamma int64
	for _, b := range batches {
		count += int64(len(b.Exam))
		poolLen += int64(len(b.Pool))
		for _, e := range b.Exam {
			gamma += e
		}
	}
	buf := make([]byte, 0, encodeChunk)
	var err error
	room := func(n int) {
		if len(buf)+n > cap(buf) {
			if err == nil {
				err = emit(buf)
			}
			buf = buf[:0]
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(batches[0].N))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(count))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(poolLen))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(gamma))
	buf = binary.LittleEndian.AppendUint64(buf, 0) // first offset
	var base int64
	for _, b := range batches {
		for _, off := range b.Offs[1:] {
			room(8)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(base+off))
		}
		base += int64(len(b.Pool))
	}
	for _, b := range batches {
		for _, v := range b.Pool {
			room(4)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	for _, b := range batches {
		for _, e := range b.Exam {
			room(8)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e))
		}
	}
	if err != nil {
		return err
	}
	return emit(buf)
}

// ReadCollection decodes one OPIMR3 frame (see ReadBatch) into a new
// collection and indexes it.
func ReadCollection(r io.Reader) (*Collection, error) {
	b, err := ReadBatch(r)
	if err != nil {
		return nil, err
	}
	c := NewCollection(b.N)
	c.Append(1, b)
	return c, nil
}

// ReadBatch decodes one OPIMR3 frame into a Batch; a malformed frame, or a
// flipped bit anywhere between magic and trailer, is ErrBadCollection. It
// reads exactly the frame's bytes from r — the header, then the rest in one
// read whose buffer grows only with the bytes that arrive, so a forged
// header cannot force a large allocation — and so frames in one stream
// decode back to back. The fleet coordinator decodes each worker's lease
// response with it.
func ReadBatch(r io.Reader) (Batch, error) {
	var head [len(collectionMagic) + 28]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return Batch{}, fmt.Errorf("%w: short header: %v", ErrBadCollection, err)
	}
	if magic := head[:len(collectionMagic)]; string(magic) != collectionMagic {
		return Batch{}, fmt.Errorf("%w: magic %q", ErrBadCollection, magic)
	}
	hdr := head[len(collectionMagic):]
	n := int32(binary.LittleEndian.Uint32(hdr[0:4]))
	count := int64(binary.LittleEndian.Uint64(hdr[4:12]))
	poolLen := int64(binary.LittleEndian.Uint64(hdr[12:20]))
	gamma := int64(binary.LittleEndian.Uint64(hdr[20:28]))
	if n < 0 || n > 1<<28 || count < 0 || count > 1<<40 || poolLen < 0 || poolLen > 1<<40 || gamma < 0 {
		return Batch{}, fmt.Errorf("%w: implausible sizes n=%d count=%d pool=%d", ErrBadCollection, n, count, poolLen)
	}
	// Offsets, pool, per-set γ and the CRC trailer.
	size := 8*(count+1) + 4*poolLen + 8*count + 4
	var body bytes.Buffer
	body.Grow(int(min(size, 1<<20)) + bytes.MinRead)
	if _, err := io.CopyN(&body, r, size); err != nil {
		return Batch{}, fmt.Errorf("%w: short body: %v", ErrBadCollection, err)
	}
	raw := body.Bytes()

	b := Batch{N: n, Offs: make([]int64, count+1), Pool: make([]int32, poolLen), Exam: make([]int64, count)}
	for i := range b.Offs {
		b.Offs[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		if i == 0 && b.Offs[0] != 0 || i > 0 && b.Offs[i] < b.Offs[i-1] {
			return Batch{}, fmt.Errorf("%w: offsets not monotone from 0", ErrBadCollection)
		}
	}
	if b.Offs[count] != poolLen {
		return Batch{}, fmt.Errorf("%w: inconsistent offsets", ErrBadCollection)
	}
	pool := raw[8*(count+1):]
	for i := range b.Pool {
		v := int32(binary.LittleEndian.Uint32(pool[4*i:]))
		if v < 0 || v >= n {
			return Batch{}, fmt.Errorf("%w: node %d outside [0,%d)", ErrBadCollection, v, n)
		}
		b.Pool[i] = v
	}
	exam := pool[4*poolLen:]
	var total int64
	for i := range b.Exam {
		e := int64(binary.LittleEndian.Uint64(exam[8*i:]))
		if e < 0 {
			return Batch{}, fmt.Errorf("%w: negative per-set gamma %d", ErrBadCollection, e)
		}
		total += e
		b.Exam[i] = e
	}
	if total != gamma {
		return Batch{}, fmt.Errorf("%w: per-set gamma sums to %d, header says %d", ErrBadCollection, total, gamma)
	}
	want := crc32.Update(crc32.Update(0, crcTable, hdr), crcTable, raw[:size-4])
	if got := binary.LittleEndian.Uint32(raw[size-4:]); got != want {
		return Batch{}, fmt.Errorf("%w: CRC mismatch: stored %08x, computed %08x (corrupt payload)", ErrBadCollection, got, want)
	}
	return b, nil
}
