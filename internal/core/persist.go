package core

// Session persistence: an Online session can be saved to disk and resumed
// later — the natural complement to the online-processing paradigm, where
// a user may pause for hours between quality checks. Set i of each half
// is a pure function of the session seed, i and the graph (RR generation
// derives stream i from Split(i) of a seed-keyed source), so a checkpoint
// records the recipe — options, query counter, graph identity, |R1| and
// |R2| — rather than the samples, and a load regenerates both halves:
// save → load → Advance is byte-identical to a never-paused session.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/reprolab/opim/internal/rrset"
)

// sessionMagic is the OPIMS6 format, the only one written or read: the
// magic, one JSON-encoded SessionMeta, then a uint32 CRC-32C of the JSON.
// The extension blob rides base64-encoded inside the JSON. The blob is
// owned by the embedding application (opimd stores each session's serving
// spec and learner state there); core round-trips it without
// interpretation.
const sessionMagic = "OPIMS6\n"

// maxSessionFrame bounds an OPIMS6 frame (128 MiB): far beyond any
// realistic posterior table, small enough that a corrupted or hostile file
// cannot drive the loader into a multi-gigabyte read.
const maxSessionFrame = 128 << 20

// crcTable is Castagnoli, hardware-accelerated on both amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadSession reports a malformed serialized session.
var ErrBadSession = errors.New("core: bad session format")

// ErrGraphMismatch reports a session whose recorded graph fingerprint
// does not match the sampler's graph — the same dataset
// reweighted, a different scale, or simply the wrong file. Resuming would
// silently produce guarantees that hold for nothing, so loading refuses.
var ErrGraphMismatch = errors.New("core: session graph fingerprint mismatch")

// SessionMeta is a serialized session: the recipe a load regenerates the
// session from. LoadSessionResolve hands it to the caller before any
// sampling, so a multi-graph server can pick (or register) the right
// sampler first.
type SessionMeta struct {
	// N is the node count of the graph at save time.
	N int32 `json:"n"`
	// Options are the session's options (Events, OnRound and Generator
	// are not persisted).
	Options Options `json:"options"`
	// Queries is the snapshot counter behind the UnionBudget schedule.
	Queries int `json:"queries"`
	// GraphFingerprint is graph.Fingerprint() at save time.
	GraphFingerprint string `json:"graph_fingerprint"`
	// GraphSpec is the cliutil.GraphSpec string the graph was loaded from;
	// empty for sessions without SetGraphIdentity.
	GraphSpec string `json:"graph_spec,omitempty"`
	// GraphName is the catalog name the session referenced; empty outside
	// a catalog.
	GraphName string `json:"graph_name,omitempty"`
	// Epoch is the graph's mutation-batch count at save time, and Lineage
	// its epoch-chain hash (graph.EpochLineage).
	Epoch   int64  `json:"epoch"`
	Lineage string `json:"lineage"`
	// Ext is the opaque extension blob (nil for sessions without one). It
	// is also restored onto the loaded Online (Extension); the meta copy
	// lets a resolver inspect application state before committing to the
	// load.
	Ext []byte `json:"ext,omitempty"`
	// Theta1 and Theta2 are |R1| and |R2|; Checksum1 and Checksum2 their
	// rrset.Collection checksums, which a load on the recorded graph
	// content must reproduce.
	Theta1    int64  `json:"theta1"`
	Theta2    int64  `json:"theta2"`
	Checksum1 uint32 `json:"checksum1"`
	Checksum2 uint32 `json:"checksum2"`
}

// SaveSession serializes o in OPIMS6 form: its recipe, the sampler graph's
// content fingerprint, epoch and lineage, the session's SetGraphIdentity
// labels and extension blob, and a checksum of each half. The bytes are
// small and cost O(Σ|R|) only for the checksums; LoadSession pays for the
// sampling again.
func SaveSession(w io.Writer, o *Online) error {
	g := o.sampler.Graph()
	body, err := json.Marshal(SessionMeta{
		N:                g.N(),
		Options:          o.opts,
		Queries:          o.queries,
		GraphFingerprint: g.Fingerprint(),
		GraphSpec:        o.graphSpec,
		GraphName:        o.graphName,
		Epoch:            g.Epoch(),
		Lineage:          g.EpochLineage(),
		Ext:              o.ext,
		Theta1:           int64(o.r1.Count()),
		Theta2:           int64(o.r2.Count()),
		Checksum1:        o.r1.Checksum(),
		Checksum2:        o.r2.Checksum(),
	})
	if err != nil {
		return err
	}
	if n := len(sessionMagic) + len(body) + 4; n > maxSessionFrame {
		return fmt.Errorf("core: session frame of %d bytes exceeds format limit", n)
	}
	frame := append([]byte(sessionMagic), body...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body, crcTable))
	_, err = w.Write(frame)
	return err
}

// LoadSession restores a session saved by SaveSession onto sampler, which
// must be built over the same graph and diffusion model as the original:
// a sampler over a graph with a different node count is ErrBadSession, one
// with a different fingerprint ErrGraphMismatch. The load regenerates every
// RR set, so it costs about what the original sampling did.
func LoadSession(r io.Reader, sampler *rrset.Sampler) (*Online, error) {
	o, _, err := LoadSessionResolve(r, func(meta *SessionMeta) (*rrset.Sampler, error) {
		g := sampler.Graph()
		if g.N() != meta.N {
			return nil, fmt.Errorf("%w: session is for n=%d, sampler has n=%d", ErrBadSession, meta.N, g.N())
		}
		if fp := g.Fingerprint(); fp != meta.GraphFingerprint {
			return nil, fmt.Errorf("%w: session was saved on graph %s, sampler has %s",
				ErrGraphMismatch, meta.GraphFingerprint, fp)
		}
		return sampler, nil
	})
	return o, err
}

// LoadSessionResolve restores a serialized session, letting the caller
// choose the sampler after seeing the file's recipe: resolve receives the
// validated SessionMeta (options, graph fingerprint/spec/name,
// epoch/lineage, θ₁/θ₂) and returns the sampler to load onto — this is how
// a multi-graph server routes each checkpoint to its own graph, or
// registers a missing one from the recorded spec. An error from resolve
// aborts the load unchanged, before any sampling.
//
// The load then regenerates θ₁ sets of R1 and θ₂ of R2 on the resolved
// sampler, in-process. When that sampler's graph has the recorded content
// fingerprint both halves must reproduce the recorded checksums
// (ErrBadSession otherwise — a different diffusion model, say). A sampler
// on different content is the resolver's decision: a server hands the
// current epoch of the checkpoint's mutation chain, and the regenerated
// session is then exactly the one a repair would have produced. Its node
// count may exceed the recorded one (node adds), never fall below it.
func LoadSessionResolve(r io.Reader, resolve func(*SessionMeta) (*rrset.Sampler, error)) (*Online, *SessionMeta, error) {
	meta, err := readSessionFrame(r, maxSessionFrame)
	if err != nil {
		return nil, nil, err
	}
	sampler, err := resolve(meta)
	if err != nil {
		return nil, meta, err
	}
	if got := sampler.Graph().N(); got < meta.N {
		return nil, meta, fmt.Errorf("%w: session is for n=%d, sampler has n=%d", ErrBadSession, meta.N, got)
	}
	o := newOnline(sampler, meta.Options)
	o.queries = meta.Queries
	o.graphName, o.graphSpec = meta.GraphName, meta.GraphSpec
	o.ext = meta.Ext
	o.resample(sampler, int(meta.Theta1), int(meta.Theta2))
	if sampler.Graph().Fingerprint() == meta.GraphFingerprint &&
		(o.r1.Checksum() != meta.Checksum1 || o.r2.Checksum() != meta.Checksum2) {
		return nil, meta, fmt.Errorf("%w: RR sets regenerated on graph %.12s do not match the recorded checksums (different diffusion model?)",
			ErrBadSession, meta.GraphFingerprint)
	}
	return o, meta, nil
}

// readSessionFrame reads and validates one OPIMS6 frame of at most limit
// bytes: magic, size, CRC before the JSON is decoded, then the recipe's
// options, epoch, query counter and θ₁/θ₂ — everything LoadSessionResolve
// checks before it resolves a sampler or samples anything.
func readSessionFrame(r io.Reader, limit int) (*SessionMeta, error) {
	frame, err := io.ReadAll(io.LimitReader(r, int64(limit)+1))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSession, err)
	}
	if len(frame) > limit {
		return nil, fmt.Errorf("%w: frame exceeds the %d-byte limit", ErrBadSession, limit)
	}
	if len(frame) < len(sessionMagic)+4 || !bytes.HasPrefix(frame, []byte(sessionMagic)) {
		return nil, fmt.Errorf("%w: missing %q magic or short frame (%d bytes)", ErrBadSession, sessionMagic[:6], len(frame))
	}
	body := frame[len(sessionMagic) : len(frame)-4]
	if got, want := binary.LittleEndian.Uint32(frame[len(frame)-4:]), crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch: stored %08x, computed %08x (corrupt or truncated)", ErrBadSession, got, want)
	}
	meta := &SessionMeta{}
	if err := json.Unmarshal(body, meta); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSession, err)
	}
	if err := meta.Options.validate(meta.N); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSession, err)
	}
	if meta.Epoch < 0 || meta.Queries < 0 {
		return nil, fmt.Errorf("%w: negative epoch %d or query count %d", ErrBadSession, meta.Epoch, meta.Queries)
	}
	if meta.Theta1 < 0 || meta.Theta2 < 0 || meta.Theta1 > math.MaxInt32-meta.Theta2 {
		return nil, fmt.Errorf("%w: θ₁=%d, θ₂=%d outside [0, 2³¹)", ErrBadSession, meta.Theta1, meta.Theta2)
	}
	return meta, nil
}
