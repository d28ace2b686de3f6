package rrset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary collection format (little-endian): magic "OPIMR3\n", int32 n,
// int64 count, int64 poolLen, int64 edgesExamined, count+1 int64 offsets,
// poolLen int32 node ids, count int64 per-set edges-examined values, then a
// uint32 CRC-32C of every byte between the magic and the trailer. The
// inverted index is rebuilt on load.
//
// The per-set γ block is the state Repair needs to patch the cumulative
// edges-examined count exactly when individual RR sets are regenerated
// after a graph mutation. The CRC trailer catches what length checks
// cannot: an in-range bit flip in the pool, which matters because
// collections travel over a network between fleet workers and their
// coordinator. Session checkpoints carry no collection: they store the
// session's recipe and regenerate its sets. OPIMR3 is the only frame
// written or read.
const collectionMagic = "OPIMR3\n"

// crcTable is Castagnoli, hardware-accelerated on both amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadCollection reports a malformed serialized collection.
var ErrBadCollection = errors.New("rrset: bad collection format")

// WriteCollection serializes c as an OPIMR3 frame.
func WriteCollection(w io.Writer, c *Collection) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(collectionMagic); err != nil {
		return err
	}
	var sum uint32
	if err := c.encodeBody(func(b []byte) error {
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
	_ = c.encodeBody(func(b []byte) error { // emit never fails
		sum = crc32.Update(sum, crcTable, b)
		return nil
	})
	return sum
}

// encodeChunk is the size of the buffer encodeBody fills before each emit.
const encodeChunk = 64 << 10

// encodeBody streams c's OPIMR3 body — header, offsets, pool, per-set γ,
// everything between magic and trailer — to emit in chunks of at most
// encodeChunk bytes, reusing one buffer. It stops at the first emit error.
func (c *Collection) encodeBody(emit func([]byte) error) error {
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
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Count()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(c.pool)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.edgesExamined))
	for _, off := range c.offs {
		room(8)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
	}
	for _, v := range c.pool {
		room(4)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, e := range c.exam {
		room(8)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e))
	}
	if err != nil {
		return err
	}
	return emit(buf)
}

// ReadCollection deserializes an OPIMR3 frame, rebuilding the inverted
// index; a flipped bit anywhere between magic and trailer is
// ErrBadCollection. It reads exactly the collection's bytes from r beyond
// any internal buffering shared with the caller, so frames in one stream
// decode back to back. The fleet coordinator decodes each worker's lease
// response with it.
func ReadCollection(r io.Reader) (*Collection, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(collectionMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: short magic: %v", ErrBadCollection, err)
	}
	if string(magic) != collectionMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadCollection, magic)
	}
	sum := crc32.New(crcTable)
	body := io.TeeReader(br, sum)
	var hdr [28]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadCollection, err)
	}
	n := int32(binary.LittleEndian.Uint32(hdr[0:4]))
	count := int64(binary.LittleEndian.Uint64(hdr[4:12]))
	poolLen := int64(binary.LittleEndian.Uint64(hdr[12:20]))
	gamma := int64(binary.LittleEndian.Uint64(hdr[20:28]))
	if n < 0 || count < 0 || poolLen < 0 || gamma < 0 || n > 1<<28 {
		return nil, fmt.Errorf("%w: implausible sizes n=%d count=%d pool=%d", ErrBadCollection, n, count, poolLen)
	}

	// Grow incrementally so a forged header cannot force a huge up-front
	// allocation: capacity hints are clamped and appends track real bytes.
	clamp := func(v int64) int {
		if v > 1<<20 {
			return 1 << 20
		}
		return int(v)
	}
	c := &Collection{
		n:             n,
		offs:          make([]int64, 0, clamp(count+1)),
		pool:          make([]int32, 0, clamp(poolLen)),
		edgesExamined: gamma,
	}
	var b8 [8]byte
	for i := int64(0); i <= count; i++ {
		if _, err := io.ReadFull(body, b8[:]); err != nil {
			return nil, fmt.Errorf("%w: short offsets: %v", ErrBadCollection, err)
		}
		off := int64(binary.LittleEndian.Uint64(b8[:]))
		if i == 0 && off != 0 {
			return nil, fmt.Errorf("%w: first offset %d != 0", ErrBadCollection, off)
		}
		if i > 0 && off < c.offs[i-1] {
			return nil, fmt.Errorf("%w: offsets not monotone", ErrBadCollection)
		}
		c.offs = append(c.offs, off)
	}
	if c.offs[count] != poolLen {
		return nil, fmt.Errorf("%w: inconsistent offsets", ErrBadCollection)
	}
	var b4 [4]byte
	for i := int64(0); i < poolLen; i++ {
		if _, err := io.ReadFull(body, b4[:]); err != nil {
			return nil, fmt.Errorf("%w: short pool: %v", ErrBadCollection, err)
		}
		v := int32(binary.LittleEndian.Uint32(b4[:]))
		if v < 0 || v >= n {
			return nil, fmt.Errorf("%w: node %d outside [0,%d)", ErrBadCollection, v, n)
		}
		c.pool = append(c.pool, v)
	}
	c.exam = make([]int64, 0, clamp(count))
	var total int64
	for i := int64(0); i < count; i++ {
		if _, err := io.ReadFull(body, b8[:]); err != nil {
			return nil, fmt.Errorf("%w: short per-set gamma block: %v", ErrBadCollection, err)
		}
		e := int64(binary.LittleEndian.Uint64(b8[:]))
		if e < 0 {
			return nil, fmt.Errorf("%w: negative per-set gamma %d", ErrBadCollection, e)
		}
		total += e
		c.exam = append(c.exam, e)
	}
	if total != gamma {
		return nil, fmt.Errorf("%w: per-set gamma sums to %d, header says %d", ErrBadCollection, total, gamma)
	}
	want := sum.Sum32() // finalize before the trailer read (it is not CRC'd)
	if _, err := io.ReadFull(br, b4[:]); err != nil {
		return nil, fmt.Errorf("%w: short CRC trailer: %v", ErrBadCollection, err)
	}
	if got := binary.LittleEndian.Uint32(b4[:]); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch: stored %08x, computed %08x (corrupt payload)", ErrBadCollection, got, want)
	}
	// Rebuild the inverted index.
	c.index = make([][]int32, n)
	c.indexFrom(0, 1)
	return c, nil
}
