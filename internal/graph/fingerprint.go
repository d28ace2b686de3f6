package graph

// Content addressing: a Graph's Fingerprint is a deterministic hash of its
// canonical CSR form, so two graphs fingerprint identically exactly when
// every algorithm in this library would behave identically on them. The
// fingerprint is what makes graphs first-class resources in a multi-graph
// daemon: session checkpoints record it (core's OPIMS6 format), and a
// checkpoint resumed against a different graph — same dataset reweighted,
// wrong file, wrong scale — is refused instead of silently reporting
// guarantees that hold for nothing.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// fingerprintDomain seeds the hash so a graph fingerprint can never
// collide with a hash of the raw file bytes or a future fingerprint
// version computed over different fields.
const fingerprintDomain = "OPIM-graph-fp-v1\n"

// Fingerprint returns the graph's content fingerprint: the hex SHA-256 of
// (n, m, out-CSR offsets, edge targets, probability bits), streamed in
// canonical order. Because Builder.Build canonicalizes edges (sorted by
// ⟨from,to⟩, duplicates merged), the fingerprint is independent of edge
// insertion order, load path (text, binary, generated) and worker count —
// it depends only on the influence instance itself. Changing the node
// count, any edge's endpoints or direction, or a single probability bit
// changes the fingerprint.
//
// The first call computes the hash in O(n+m); the result is cached on the
// immutable Graph, so every later call (checkpoint writes, /status
// payloads, event logs) is a pointer load. Safe for concurrent use.
func (g *Graph) Fingerprint() string {
	if fp := g.fp.Load(); fp != nil {
		return *fp
	}
	h := sha256.New()
	h.Write([]byte(fingerprintDomain))

	// Header: node and edge counts.
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(g.n))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(g.m))
	h.Write(hdr[:])

	// Stream the CSR arrays through one reusable chunk buffer; the
	// in-adjacency is derived from the out-adjacency, so hashing the out
	// side alone already pins every edge and probability.
	buf := make([]byte, 0, 1<<15)
	flush := func() {
		if len(buf) > 0 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	for _, off := range g.outOff {
		if len(buf)+8 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
	}
	flush()
	for _, to := range g.outTo {
		if len(buf)+4 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(to))
	}
	flush()
	for _, p := range g.outP {
		if len(buf)+4 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint32(buf, floatBits(p))
	}
	flush()

	fp := hex.EncodeToString(h.Sum(nil))
	// A concurrent first call may race this store; both goroutines computed
	// the same value over the same immutable arrays, so either wins.
	g.fp.Store(&fp)
	return fp
}
