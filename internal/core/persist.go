package core

// Session persistence: an Online session can be saved to disk and resumed
// later — the natural complement to the online-processing paradigm, where
// a user may pause for hours between quality checks. Because RR-set
// generation derives stream i of each half from Split(i) of a seed-keyed
// source, a resumed session continues the exact sample stream the original
// would have produced: save → load → Advance is byte-identical to a
// never-paused session.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
)

// sessionMagic is the OPIMS5 format, the only one written or read. After
// the magic: the fixed header (n, k, δ, variant, seed, workers, union
// flag, query count), the Exact flag and base-seed set, the graph-identity
// block (content fingerprint, spec, catalog name), the epoch block (epoch
// and lineage on the graph's mutation chain), one length-prefixed opaque
// extension blob, then the two RR collections (OPIMR3). The blob is owned
// by the embedding application (opimd stores per-session learner state
// there — Beta posteriors and the campaign round machine); core
// round-trips it without interpretation, so the learning subsystem can
// evolve without another container version.
const sessionMagic = "OPIMS5\n"

// maxSessionExt bounds the OPIMS5 extension blob (64 MiB): far beyond any
// realistic posterior table, small enough that a corrupted length field
// cannot drive the loader into a multi-gigabyte allocation.
const maxSessionExt = 64 << 20

// ErrBadSession reports a malformed serialized session.
var ErrBadSession = errors.New("core: bad session format")

// ErrGraphMismatch reports a session whose recorded graph fingerprint
// does not match the sampler's graph — the same dataset
// reweighted, a different scale, or simply the wrong file. Resuming would
// silently produce guarantees that hold for nothing, so loading refuses.
var ErrGraphMismatch = errors.New("core: session graph fingerprint mismatch")

// SessionMeta is the graph-identity header of a serialized session,
// readable without deserializing the RR collections. LoadSessionResolve
// hands it to the caller so a multi-graph server can pick (or register)
// the right sampler before committing to the expensive part of the load.
type SessionMeta struct {
	// N is the node count recorded in the header.
	N int32
	// GraphFingerprint is graph.Fingerprint() at save time.
	GraphFingerprint string
	// GraphSpec is the cliutil.GraphSpec string the graph was loaded from;
	// empty for sessions without SetGraphIdentity.
	GraphSpec string
	// GraphName is the catalog name the session referenced; empty outside
	// a catalog.
	GraphName string
	// Epoch is the graph's mutation-batch count at save time, and Lineage
	// its epoch-chain hash (graph.EpochLineage).
	Epoch   int64
	Lineage string
	// Ext is the opaque extension blob (nil for sessions without one). It
	// is also restored onto the loaded Online
	// (Extension); the meta copy lets a resolver inspect application state
	// before committing to the load.
	Ext []byte

	// AcceptStale is set by the LoadSessionResolve resolver (never by the
	// decoder) to accept a sampler whose graph content differs from the
	// file's because mutation batches were applied after the save. The
	// resolver takes on the obligation to verify — through the graph's
	// epoch chain — that the sampler's graph descends from the recorded
	// (fingerprint, epoch), and to call RepairForMutations with the missed
	// batches after the load. With AcceptStale the fingerprint check is
	// skipped and the node count may have grown (node adds); without it a
	// content mismatch is still the hard ErrGraphMismatch.
	AcceptStale bool
}

// SaveSession serializes o in OPIMS5 form, recording the sampler graph's
// content fingerprint, epoch and lineage plus the session's
// SetGraphIdentity labels and extension blob.
// LoadSession must be given a sampler equivalent to the original (same
// graph, same model); the fingerprint makes "same graph" checkable instead
// of trusted.
func SaveSession(w io.Writer, o *Online) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(sessionMagic); err != nil {
		return err
	}
	var hdr [45]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(o.sampler.Graph().N()))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(o.opts.K))
	binary.LittleEndian.PutUint64(hdr[12:20], math.Float64bits(o.opts.Delta))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(o.opts.Variant))
	binary.LittleEndian.PutUint64(hdr[24:32], o.opts.Seed)
	binary.LittleEndian.PutUint32(hdr[32:36], uint32(o.opts.Workers))
	if o.opts.UnionBudget {
		hdr[36] = 1
	}
	binary.LittleEndian.PutUint64(hdr[37:45], uint64(o.queries))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	// Exact flag + base-seed set. Without these a resumed
	// augmentation session would silently report non-residual σˡ/σᵘ/α and a
	// resumed Exact session would fall back to martingale bounds.
	var ext [5]byte
	if o.opts.Exact {
		ext[0] = 1
	}
	binary.LittleEndian.PutUint32(ext[1:5], uint32(len(o.opts.BaseSeeds)))
	if _, err := bw.Write(ext[:]); err != nil {
		return err
	}
	for _, v := range o.opts.BaseSeeds {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	// The graph-identity block. The fingerprint is recomputed from the live
	// sampler; name and spec are whatever SetGraphIdentity recorded,
	// possibly empty.
	for _, s := range []string{o.sampler.Graph().Fingerprint(), o.graphSpec, o.graphName} {
		if err := writeString16(bw, s); err != nil {
			return err
		}
	}
	// The epoch block, read straight off the sampler's graph — a session
	// repaired onto epoch k checkpoints as epoch k.
	var eb [8]byte
	binary.LittleEndian.PutUint64(eb[:], uint64(o.sampler.Graph().Epoch()))
	if _, err := bw.Write(eb[:]); err != nil {
		return err
	}
	if err := writeString16(bw, o.sampler.Graph().EpochLineage()); err != nil {
		return err
	}
	// The opaque application blob (length 0 when unset).
	if len(o.ext) > maxSessionExt {
		return fmt.Errorf("core: session extension of %d bytes exceeds format limit", len(o.ext))
	}
	var xl [4]byte
	binary.LittleEndian.PutUint32(xl[:], uint32(len(o.ext)))
	if _, err := bw.Write(xl[:]); err != nil {
		return err
	}
	if _, err := bw.Write(o.ext); err != nil {
		return err
	}
	if err := rrset.WriteCollection(bw, o.r1); err != nil {
		return err
	}
	if err := rrset.WriteCollection(bw, o.r2); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadSession restores a session saved by SaveSession onto sampler, which
// must be built over the same graph and diffusion model as the original:
// a sampler over a graph with a different fingerprint is refused with
// ErrGraphMismatch.
func LoadSession(r io.Reader, sampler *rrset.Sampler) (*Online, error) {
	o, _, err := LoadSessionResolve(r, func(*SessionMeta) (*rrset.Sampler, error) {
		return sampler, nil
	})
	return o, err
}

// LoadSessionResolve restores a serialized session, letting the caller
// choose the sampler after seeing the file's graph identity: resolve
// receives the SessionMeta (node count, graph fingerprint/spec/name,
// epoch/lineage) and returns the sampler to load onto — this is how a
// multi-graph server routes each checkpoint to its own graph, or registers
// a missing one from the recorded spec. An error from resolve aborts the
// load unchanged.
//
// After resolution the sampler's graph is checked against the recorded
// node count (ErrBadSession) and content fingerprint (ErrGraphMismatch,
// unless the resolver set AcceptStale) — a reweighted or re-scaled graph
// loads as a hard error, never as silently wrong guarantees.
func LoadSessionResolve(r io.Reader, resolve func(*SessionMeta) (*rrset.Sampler, error)) (*Online, *SessionMeta, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(sessionMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, fmt.Errorf("%w: short magic: %v", ErrBadSession, err)
	}
	if string(magic) != sessionMagic {
		return nil, nil, fmt.Errorf("%w: magic %q", ErrBadSession, magic)
	}
	meta := &SessionMeta{}
	var hdr [45]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: short header: %v", ErrBadSession, err)
	}
	n := int32(binary.LittleEndian.Uint32(hdr[0:4]))
	meta.N = n
	opts := Options{
		K:           int(binary.LittleEndian.Uint64(hdr[4:12])),
		Delta:       math.Float64frombits(binary.LittleEndian.Uint64(hdr[12:20])),
		Variant:     Variant(binary.LittleEndian.Uint32(hdr[20:24])),
		Seed:        binary.LittleEndian.Uint64(hdr[24:32]),
		Workers:     int(int32(binary.LittleEndian.Uint32(hdr[32:36]))),
		UnionBudget: hdr[36] == 1,
	}
	queries := int(binary.LittleEndian.Uint64(hdr[37:45]))
	var ext [5]byte
	if _, err := io.ReadFull(br, ext[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: short base-seed header: %v", ErrBadSession, err)
	}
	opts.Exact = ext[0] == 1
	nBase := binary.LittleEndian.Uint32(ext[1:5])
	if int64(nBase) > int64(n) {
		return nil, nil, fmt.Errorf("%w: %d base seeds on a graph of n=%d", ErrBadSession, nBase, n)
	}
	if nBase > 0 {
		raw := make([]byte, 4*nBase)
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, nil, fmt.Errorf("%w: short base-seed block: %v", ErrBadSession, err)
		}
		opts.BaseSeeds = make([]int32, nBase)
		for i := range opts.BaseSeeds {
			opts.BaseSeeds[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
	var err error
	if meta.GraphFingerprint, err = readString16(br, "graph fingerprint"); err != nil {
		return nil, nil, err
	}
	if meta.GraphSpec, err = readString16(br, "graph spec"); err != nil {
		return nil, nil, err
	}
	if meta.GraphName, err = readString16(br, "graph name"); err != nil {
		return nil, nil, err
	}
	var eb [8]byte
	if _, err := io.ReadFull(br, eb[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: short epoch block: %v", ErrBadSession, err)
	}
	meta.Epoch = int64(binary.LittleEndian.Uint64(eb[:]))
	if meta.Lineage, err = readString16(br, "epoch lineage"); err != nil {
		return nil, nil, err
	}
	if meta.Epoch < 0 {
		return nil, nil, fmt.Errorf("%w: negative epoch %d", ErrBadSession, meta.Epoch)
	}
	var xl [4]byte
	if _, err := io.ReadFull(br, xl[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: short extension length: %v", ErrBadSession, err)
	}
	extLen := binary.LittleEndian.Uint32(xl[:])
	if extLen > maxSessionExt {
		return nil, nil, fmt.Errorf("%w: extension blob of %d bytes exceeds format limit", ErrBadSession, extLen)
	}
	if extLen > 0 {
		meta.Ext = make([]byte, extLen)
		if _, err := io.ReadFull(br, meta.Ext); err != nil {
			return nil, nil, fmt.Errorf("%w: short extension blob: %v", ErrBadSession, err)
		}
	}

	sampler, err := resolve(meta)
	if err != nil {
		return nil, meta, err
	}
	if got := sampler.Graph().N(); got != n && !(meta.AcceptStale && got > n) {
		return nil, meta, fmt.Errorf("%w: session is for n=%d, sampler has n=%d", ErrBadSession, n, got)
	}
	if !meta.AcceptStale {
		if got := sampler.Graph().Fingerprint(); got != meta.GraphFingerprint {
			return nil, meta, fmt.Errorf("%w: session was saved on graph %s, sampler has %s",
				ErrGraphMismatch, meta.GraphFingerprint, got)
		}
	}
	if err := opts.validate(n); err != nil {
		return nil, meta, fmt.Errorf("%w: %v", ErrBadSession, err)
	}

	r1, err := rrset.ReadCollection(br)
	if err != nil {
		return nil, meta, err
	}
	r2, err := rrset.ReadCollection(br)
	if err != nil {
		return nil, meta, err
	}
	if r1.N() != n || r2.N() != n {
		return nil, meta, fmt.Errorf("%w: collections sized for a different graph", ErrBadSession)
	}

	root := rng.New(opts.Seed)
	return &Online{
		sampler:   sampler,
		opts:      opts,
		r1:        r1,
		r2:        r2,
		base1:     root.Split(1),
		base2:     root.Split(2),
		queries:   queries,
		start:     time.Now(),
		scratch:   newSnapScratch(),
		graphName: meta.GraphName,
		graphSpec: meta.GraphSpec,
		ext:       meta.Ext,
	}, meta, nil
}

// writeString16 writes a uint16-length-prefixed string (the graph-identity
// block's encoding; 64KB is far beyond any fingerprint, spec or name).
func writeString16(w io.Writer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("core: identity string of %d bytes exceeds format limit", len(s))
	}
	var lb [2]byte
	binary.LittleEndian.PutUint16(lb[:], uint16(len(s)))
	if _, err := w.Write(lb[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// readString16 reads a uint16-length-prefixed string, labeling errors with
// what the string was supposed to be.
func readString16(r io.Reader, what string) (string, error) {
	var lb [2]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return "", fmt.Errorf("%w: short %s length: %v", ErrBadSession, what, err)
	}
	n := binary.LittleEndian.Uint16(lb[:])
	if n == 0 {
		return "", nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("%w: short %s: %v", ErrBadSession, what, err)
	}
	return string(buf), nil
}
