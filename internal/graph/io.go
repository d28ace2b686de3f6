package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Text format: one edge per line, "from to [prob]", '#'-prefixed comment
// lines ignored, whitespace separated. If prob is omitted the edge gets
// probability 0 and the caller is expected to Reweight. It is the
// interchange format; OPIMG2 (csr.go) is the binary one.

// MaxNodes bounds node ids accepted by the file decoders (2^28 ≈ 268M —
// comfortably above the largest published social graphs). The limit exists
// so corrupt or hostile files cannot force multi-gigabyte allocations
// through a forged node id or header.
const MaxNodes = 1 << 28

// ReadText parses the text edge-list format from r.
func ReadText(r io.Reader) (*Graph, error) {
	b := &Builder{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
		from, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad from node: %v", lineNo, err)
		}
		to, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad to node: %v", lineNo, err)
		}
		if from >= MaxNodes || to >= MaxNodes {
			return nil, fmt.Errorf("graph: line %d: node id beyond MaxNodes = %d", lineNo, MaxNodes)
		}
		var p float64
		if len(fields) == 3 {
			p, err = strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad probability: %v", lineNo, err)
			}
		}
		b.AddEdge(int32(from), int32(to), float32(p))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return b.Build()
}

// WriteText writes g in the text edge-list format.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N(), g.M())
	var err error
	g.Edges(func(e Edge) bool {
		_, err = fmt.Fprintf(bw, "%d %d %g\n", e.From, e.To, e.P)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ErrBadFormat reports a malformed OPIMG2 stream.
var ErrBadFormat = errors.New("graph: bad binary format")

// LoadFile reads a graph from path, dispatching on the leading magic:
// OPIMG2 files (the CSR format, csr.go) load via mmap on supported
// platforms — the ReadCSR copy decoder when mapping is unavailable or the
// build carries the opim_nommap tag — and anything else is parsed as a
// text edge list. The graph fingerprint is computed from the CSR arrays
// and therefore identical across every path.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if peek, err := br.Peek(len(csrMagic)); err == nil && string(peek) == csrMagic {
		if mmapSupported {
			return mmapCSRFile(f)
		}
		return ReadCSR(br)
	}
	return ReadText(br)
}

// MmapAvailable reports whether this build and platform support the
// aliasing mmap path for OPIMG2 files (little-endian unix, not compiled
// with the opim_nommap tag).
func MmapAvailable() bool { return mmapSupported }

func floatBits(f float32) uint32     { return math.Float32bits(f) }
func floatFromBits(b uint32) float32 { return math.Float32frombits(b) }
