package graph

// OPIMG2: the binary graph format, and the one the mmap loader reads. An
// OPIMG2 file stores the Graph's frozen CSR arrays in their in-memory
// layout, little-endian, each section 8-byte aligned. On supported
// platforms LoadFile maps such a file read-only (mmap_unix.go) and the
// Graph's slices alias the mapping directly: loading is O(1) regardless
// of graph size, page-in is lazy, and N opimd processes serving the same
// dataset share one page-cache copy. ReadCSR is the portable copy decoder
// — the fallback for unsupported platforms, big-endian hosts and
// opim_nommap builds — and the validating authority on the format: it
// verifies canonical form (sorted, merged, no self-loops), probability
// ranges, that the in-adjacency is exactly the counting-sort derivative
// of the out-adjacency, and that inPSum matches bit for bit, so the
// fingerprint guarantee ("hashing the out side pins every edge") survives
// untrusted files. The mmap path checks header sanity (m bounded by the
// file size), section bounds and offset monotonicity only (O(n), no
// page-in of edge data); it is a cache format written by this package,
// and end-to-end corruption is caught by the graph fingerprint wherever
// one is recorded (catalog reloads, checkpoint resume). Both decoders are
// fuzzed (FuzzReadCSR, FuzzCSRFromMapping): neither may panic on any
// input.
//
// Layout (all little-endian, offsets from start of file):
//
//	0       magic "OPIMG2\n" + 1 zero pad byte
//	8       uint32 n, uint32 reserved (0), uint64 m
//	24      outOff  (n+1)×int64
//	…       outTo   m×int32, zero-padded to 8
//	…       outP    m×float32 bits, zero-padded to 8
//	…       inOff   (n+1)×int64
//	…       inFrom  m×int32, zero-padded to 8
//	…       inP     m×float32 bits, zero-padded to 8
//	…       inPSum  n×float32 bits, zero-padded to 8
//
// Section offsets are fully determined by (n, m), so there is no section
// table to trust. The text edge list (io.go) is the interchange format.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

const csrMagic = "OPIMG2\n"

// csrHeaderSize is the fixed prefix before the first section.
const csrHeaderSize = 24

// csrLayout holds the byte offset of every section for a given (n, m).
type csrLayout struct {
	outOff, outTo, outP    int64
	inOff, inFrom, inPSums int64
	inP                    int64
	total                  int64
}

func align8(v int64) int64 { return (v + 7) &^ 7 }

func layoutCSR(n int32, m int64) csrLayout {
	var l csrLayout
	off := int64(csrHeaderSize)
	l.outOff = off
	off += (int64(n) + 1) * 8
	l.outTo = off
	off = align8(off + m*4)
	l.outP = off
	off = align8(off + m*4)
	l.inOff = off
	off += (int64(n) + 1) * 8
	l.inFrom = off
	off = align8(off + m*4)
	l.inP = off
	off = align8(off + m*4)
	l.inPSums = off
	off = align8(off + int64(n)*4)
	l.total = off
	return l
}

// CSRSize returns the byte size of g's OPIMG2 encoding.
func CSRSize(g *Graph) int64 { return layoutCSR(g.n, g.m).total }

// WriteCSR writes g in the OPIMG2 CSR cache format.
func WriteCSR(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(csrMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(0); err != nil {
		return err
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(g.n))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.m))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := writeU64Section(bw, g.outOff); err != nil {
		return err
	}
	if err := writeI32Section(bw, g.outTo); err != nil {
		return err
	}
	if err := writeF32Section(bw, g.outP); err != nil {
		return err
	}
	if err := writeU64Section(bw, g.inOff); err != nil {
		return err
	}
	if err := writeI32Section(bw, g.inFrom); err != nil {
		return err
	}
	if err := writeF32Section(bw, g.inP); err != nil {
		return err
	}
	if err := writeF32Section(bw, g.inPSum); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveFileCSR writes g to path in the OPIMG2 format.
func SaveFileCSR(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSR(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var pad8 [8]byte

func writeU64Section(w *bufio.Writer, vals []int64) error {
	var rec [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(rec[:], uint64(v))
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
	}
	return nil
}

func writeI32Section(w *bufio.Writer, vals []int32) error {
	var rec [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(rec[:], uint32(v))
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
	}
	if len(vals)%2 != 0 {
		_, err := w.Write(pad8[:4])
		return err
	}
	return nil
}

func writeF32Section(w *bufio.Writer, vals []float32) error {
	var rec [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(rec[:], floatBits(v))
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
	}
	if len(vals)%2 != 0 {
		_, err := w.Write(pad8[:4])
		return err
	}
	return nil
}

// ReadCSR parses the OPIMG2 format from r (the copy path), fully validating
// the file: see the package comment above for the checks. The returned
// Graph owns freshly allocated arrays.
func ReadCSR(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(csrMagic)+1)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: short OPIMG2 magic: %v", ErrBadFormat, err)
	}
	if string(magic[:len(csrMagic)]) != csrMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic)
	}
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("%w: short OPIMG2 header: %v", ErrBadFormat, err)
	}
	n := int32(binary.LittleEndian.Uint32(hdr[0:4]))
	m := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	if n < 0 || n > MaxNodes || m < 0 {
		return nil, fmt.Errorf("%w: n=%d m=%d", ErrBadFormat, n, m)
	}
	g := &Graph{n: n, m: m}
	var err error
	if g.outOff, err = readU64Section(br, int64(n)+1, "outOff"); err != nil {
		return nil, err
	}
	if g.outTo, err = readI32Section(br, m, "outTo"); err != nil {
		return nil, err
	}
	if g.outP, err = readF32Section(br, m, "outP"); err != nil {
		return nil, err
	}
	if g.inOff, err = readU64Section(br, int64(n)+1, "inOff"); err != nil {
		return nil, err
	}
	if g.inFrom, err = readI32Section(br, m, "inFrom"); err != nil {
		return nil, err
	}
	if g.inP, err = readF32Section(br, m, "inP"); err != nil {
		return nil, err
	}
	if g.inPSum, err = readF32Section(br, int64(n), "inPSum"); err != nil {
		return nil, err
	}
	if err := validateCSROffsets(g); err != nil {
		return nil, err
	}
	if err := validateCSRContents(g); err != nil {
		return nil, err
	}
	return g, nil
}

// chunked section readers: data is appended in bounded chunks so a forged
// header over a truncated file errors out early instead of forcing a
// multi-gigabyte allocation.
// Each chunk's element count is clamped to the buffer before it is scaled
// to bytes, so a forged count cannot overflow the product.

const csrReadChunk = 1 << 20 // elements per allocation step

func readU64Section(br *bufio.Reader, count int64, what string) ([]int64, error) {
	out := make([]int64, 0, min64(count, csrReadChunk))
	buf := make([]byte, 1<<16)
	for int64(len(out)) < count {
		want := min64(count-int64(len(out)), int64(len(buf))/8) * 8
		if _, err := io.ReadFull(br, buf[:want]); err != nil {
			return nil, fmt.Errorf("%w: short %s section: %v", ErrBadFormat, what, err)
		}
		for i := int64(0); i < want; i += 8 {
			out = append(out, int64(binary.LittleEndian.Uint64(buf[i:i+8])))
		}
	}
	return out, nil
}

func readI32Section(br *bufio.Reader, count int64, what string) ([]int32, error) {
	out := make([]int32, 0, min64(count, csrReadChunk))
	buf := make([]byte, 1<<16)
	for int64(len(out)) < count {
		want := min64(count-int64(len(out)), int64(len(buf))/4) * 4
		if _, err := io.ReadFull(br, buf[:want]); err != nil {
			return nil, fmt.Errorf("%w: short %s section: %v", ErrBadFormat, what, err)
		}
		for i := int64(0); i < want; i += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[i:i+4])))
		}
	}
	if count%2 != 0 {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("%w: short %s padding: %v", ErrBadFormat, what, err)
		}
	}
	return out, nil
}

func readF32Section(br *bufio.Reader, count int64, what string) ([]float32, error) {
	out := make([]float32, 0, min64(count, csrReadChunk))
	buf := make([]byte, 1<<16)
	for int64(len(out)) < count {
		want := min64(count-int64(len(out)), int64(len(buf))/4) * 4
		if _, err := io.ReadFull(br, buf[:want]); err != nil {
			return nil, fmt.Errorf("%w: short %s section: %v", ErrBadFormat, what, err)
		}
		for i := int64(0); i < want; i += 4 {
			out = append(out, floatFromBits(binary.LittleEndian.Uint32(buf[i:i+4])))
		}
	}
	if count%2 != 0 {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("%w: short %s padding: %v", ErrBadFormat, what, err)
		}
	}
	return out, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// validateCSROffsets checks both offset arrays for shape: first element 0,
// nondecreasing, last element m. O(n); run by both load paths.
func validateCSROffsets(g *Graph) error {
	for _, s := range []struct {
		name string
		offs []int64
	}{{"outOff", g.outOff}, {"inOff", g.inOff}} {
		if int64(len(s.offs)) != int64(g.n)+1 {
			return fmt.Errorf("%w: %s has %d entries, want %d", ErrBadFormat, s.name, len(s.offs), g.n+1)
		}
		if s.offs[0] != 0 {
			return fmt.Errorf("%w: %s[0] = %d", ErrBadFormat, s.name, s.offs[0])
		}
		for i := 1; i < len(s.offs); i++ {
			if s.offs[i] < s.offs[i-1] {
				return fmt.Errorf("%w: %s decreases at %d", ErrBadFormat, s.name, i)
			}
		}
		if s.offs[len(s.offs)-1] != g.m {
			return fmt.Errorf("%w: %s ends at %d, want m=%d", ErrBadFormat, s.name, s.offs[len(s.offs)-1], g.m)
		}
	}
	return nil
}

// validateCSRContents performs the copy path's full O(n+m) verification:
// canonical out-adjacency (strictly ascending targets per row — Builder
// merges duplicates — in range, no self-loops), probabilities in [0,1] and
// not NaN, the in-adjacency exactly equal to the counting-sort derivative
// of the out-adjacency, and inPSum bit-identical to its deterministic
// recomputation. Together these guarantee a ReadCSR graph is one Build
// could have produced, so the fingerprint's "out side pins everything"
// property holds even for hand-crafted files.
func validateCSRContents(g *Graph) error {
	n := g.n
	for u := int32(0); u < n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		prev := int32(-1)
		for i := lo; i < hi; i++ {
			to := g.outTo[i]
			if to < 0 || to >= n {
				return fmt.Errorf("%w: outTo[%d] = %d outside [0,%d)", ErrBadFormat, i, to, n)
			}
			if to == u {
				return fmt.Errorf("%w: self-loop at node %d", ErrBadFormat, u)
			}
			if to <= prev {
				return fmt.Errorf("%w: outTo row %d not strictly ascending (non-canonical)", ErrBadFormat, u)
			}
			prev = to
			if p := g.outP[i]; p < 0 || p > 1 || p != p {
				return fmt.Errorf("%w: outP[%d] = %v", ErrBadFormat, i, p)
			}
		}
	}
	// Derive the in-adjacency from the out side (the same counting sort
	// Build runs) and require bit-identical agreement.
	cursor := make([]int64, n)
	copy(cursor, g.inOff[:n])
	for u := int32(0); u < n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		for i := lo; i < hi; i++ {
			to := g.outTo[i]
			pos := cursor[to]
			if pos >= g.inOff[to+1] {
				return fmt.Errorf("%w: in-adjacency of node %d shorter than out-adjacency implies", ErrBadFormat, to)
			}
			cursor[to]++
			if g.inFrom[pos] != u || floatBits(g.inP[pos]) != floatBits(g.outP[i]) {
				return fmt.Errorf("%w: in-adjacency of node %d disagrees with out-adjacency at slot %d", ErrBadFormat, to, pos)
			}
		}
	}
	for v := int32(0); v < n; v++ {
		if cursor[v] != g.inOff[v+1] {
			return fmt.Errorf("%w: in-adjacency of node %d longer than out-adjacency implies", ErrBadFormat, v)
		}
		var sum float64
		for i := g.inOff[v]; i < g.inOff[v+1]; i++ {
			sum += float64(g.inP[i])
		}
		if floatBits(float32(sum)) != floatBits(g.inPSum[v]) {
			return fmt.Errorf("%w: inPSum[%d] = %v, recomputed %v", ErrBadFormat, v, g.inPSum[v], float32(sum))
		}
	}
	return nil
}
