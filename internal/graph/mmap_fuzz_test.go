//go:build (linux || darwin) && !opim_nommap

package graph

import (
	"bytes"
	"testing"
	"unsafe"
)

// FuzzCSRFromMapping checks the mmap decoder never panics on a file image
// and that every row of a graph it accepts is readable. The input is copied
// into an 8-byte-aligned buffer, as a page-aligned mapping would be.
func FuzzCSRFromMapping(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteCSR(&buf, mustLine(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(make([]byte, csrHeaderSize))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < csrHeaderSize {
			return // mmapCSRFile rejects these before mapping
		}
		words := make([]uint64, (len(in)+7)/8)
		data := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(in))
		copy(data, in)
		g, err := csrFromMapping(data)
		if err != nil {
			return
		}
		readRows(g)
	})
}
