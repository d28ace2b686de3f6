//go:build (linux || darwin) && !opim_nommap

package graph

// mmap load path for the OPIMG2 CSR cache format (csr.go). The file is
// mapped read-only with MAP_SHARED and the Graph's CSR slices alias the
// mapping directly via unsafe.Slice — no copy, no parse beyond the 24-byte
// header and an O(n) offset-monotonicity check — so load time is
// independent of graph size, pages fault in lazily as sampling touches
// them, and any number of processes serving the same file share one
// page-cache copy.
//
// Lifetime: munmap is tied to the Graph's GC lifetime via a finalizer, so
// the serving catalog can drop a graph reference without coordinating with
// in-flight readers — memory a live *Graph can still reach is never
// unmapped. Close releases eagerly for callers that cycle many graphs and
// know no reader remains. The one sharp edge: a raw slice obtained from an
// accessor (OutNeighbors etc.) does not keep the mapping alive on its own;
// hold the *Graph for as long as any such view is in use.
//
// The OPIMG2 sections are little-endian; aliasing is only correct on a
// little-endian host, so mmapSupported is a runtime byte-order probe and
// big-endian builds transparently use the ReadCSR copy decoder (which
// byte-swaps element-wise). The opim_nommap build tag forces the copy
// path on any platform.

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// mmapSupported reports whether LoadFile may use the aliasing mmap path:
// requires a little-endian host because OPIMG2 sections alias memory
// directly.
var mmapSupported = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mmapCSRFile maps f (an OPIMG2 file) and returns a Graph aliasing the
// mapping. If the mmap syscall itself fails (e.g. a filesystem without
// mapping support), it falls back to the ReadCSR copy decoder; a malformed
// file is an error on either path.
func mmapCSRFile(f *os.File) (*Graph, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < csrHeaderSize {
		return nil, fmt.Errorf("%w: OPIMG2 file shorter than header", ErrBadFormat)
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("%w: OPIMG2 file too large to map", ErrBadFormat)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		if _, serr := f.Seek(0, 0); serr != nil {
			return nil, serr
		}
		return ReadCSR(f)
	}
	g, err := csrFromMapping(data)
	if err != nil {
		syscall.Munmap(data)
		return nil, err
	}
	// Idempotent release shared by Close and the finalizer: whichever runs
	// first wins, the other is a no-op.
	var once sync.Once
	g.unmap = func() { once.Do(func() { _ = syscall.Munmap(data) }) }
	runtime.SetFinalizer(g, func(g *Graph) { _ = g.Close() })
	return g, nil
}

// csrFromMapping builds a Graph whose slices alias data (a full OPIMG2
// file image). Validation is structural only — header sanity, section
// bounds, offset monotonicity; see the csr.go package comment for why the
// copy path is the deep-validation authority.
func csrFromMapping(data []byte) (*Graph, error) {
	if string(data[:len(csrMagic)]) != csrMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, data[:len(csrMagic)])
	}
	n := int32(leU32(data[8:12]))
	m := int64(leU64(data[16:24]))
	// Every edge takes 16 bytes across outTo, outP, inFrom and inP; bounding
	// m by the file size first keeps layoutCSR's arithmetic from overflowing.
	if n < 0 || n > MaxNodes || m < 0 || m > int64(len(data))/16 {
		return nil, fmt.Errorf("%w: n=%d m=%d", ErrBadFormat, n, m)
	}
	l := layoutCSR(n, m)
	if l.total > int64(len(data)) {
		return nil, fmt.Errorf("%w: OPIMG2 file truncated: have %d bytes, layout needs %d", ErrBadFormat, len(data), l.total)
	}
	g := &Graph{
		n:      n,
		m:      m,
		outOff: aliasI64(data, l.outOff, int64(n)+1),
		outTo:  aliasI32(data, l.outTo, m),
		outP:   aliasF32(data, l.outP, m),
		inOff:  aliasI64(data, l.inOff, int64(n)+1),
		inFrom: aliasI32(data, l.inFrom, m),
		inP:    aliasF32(data, l.inP, m),
		inPSum: aliasF32(data, l.inPSums, int64(n)),
	}
	if err := validateCSROffsets(g); err != nil {
		return nil, err
	}
	return g, nil
}

// The alias helpers reinterpret an 8-aligned byte range of the mapping as a
// typed slice. Alignment holds by construction: mmap bases are page-aligned
// and every OPIMG2 section offset is 8-aligned (layoutCSR).

func aliasI64(data []byte, off, count int64) []int64 {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&data[off])), count)
}

func aliasI32(data []byte, off, count int64) []int32 {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&data[off])), count)
}

func aliasF32(data []byte, off, count int64) []float32 {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&data[off])), count)
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}
