package server

// The mutation journal: the durable record of a graph's epoch chain.
//
// Every applied mutation batch is appended — and fsynced — to
// CheckpointDir/graph-<name>.mutlog BEFORE the in-memory graph swap, so
// session checkpoints can never reference an epoch the journal does not
// record (write-ahead ordering). The file is JSONL: a header line naming
// the graph and its base (epoch-0) content fingerprint, then one entry per
// batch carrying the resulting epoch, the chained lineage hash, and the
// batch's ops in wire form. The server owns every replay: Resume replays
// the default graph's journal, registration every other graph's, and a
// graph reloaded under MaxLoadedGraphs replays its own. replayMutationLog
// re-derives the current-epoch graph by re-applying every batch to the
// freshly loaded base graph, verifying each step against the recorded
// lineage — an edited journal, a swapped dataset, or a divergent replay
// all fail loudly. The journal is the only record of the batches: memory
// keeps one lineage hash per epoch.
//
// A crash mid-append leaves a torn final line. That line is dropped on
// replay: the batch it described was never applied in memory (the apply
// strictly follows the fsync), no session checkpoint can be ahead of it,
// and the client that posted it never received a success response. The
// epoch chain is what makes this detectable rather than assumed — a
// partially recorded batch cannot chain-hash to a valid lineage.
//
// Compaction bounds the journal by the graph's size: once a batch leaves
// the journal larger than the new graph's OPIMG2 encoding — past that
// point a replay reads more than loading the snapshot would — the current
// graph is written to an OPIMG2 snapshot (graph-<name>.e<epoch>.snap) and
// the journal is atomically rewritten to a single header line referencing
// it. The header keeps the lineages back to the oldest epoch any session
// checkpoint on disk records, so compaction never strands a checkpoint.
// Replay then starts from the snapshot — verified against the recorded
// fingerprint and stamped with the recorded (epoch, lineage) — instead of
// the epoch-0 base. The crash orderings are all safe: the snapshot is
// written before the header that references it (an orphan snapshot under
// the old header is simply unused), snapshot files are epoch-suffixed so
// a new snapshot can never clobber the one the current header points at,
// and the header rewrite goes through fsutil.WriteAtomic (a crash between
// its renames leaves the previous journal generation at .prev, which
// replay falls back to and puts back in place for the next append).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"github.com/reprolab/opim/internal/fsutil"
	"github.com/reprolab/opim/internal/graph"
)

// MutationLogPath returns where the named graph's mutation journal lives
// under a checkpoint directory.
func MutationLogPath(dir, name string) string {
	return filepath.Join(dir, "graph-"+name+".mutlog")
}

// MutationSnapshotPath returns where a compaction snapshot of the named
// graph at the given epoch lives under a checkpoint directory. Epoch-
// suffixed so writing a new snapshot can never clobber the one the
// current journal header references.
func MutationSnapshotPath(dir, name string, epoch int64) string {
	return filepath.Join(dir, fmt.Sprintf("graph-%s.e%d.snap", name, epoch))
}

// mutlogHeader is the journal's first line. BaseFingerprint always
// anchors the epoch-0 dataset; the Snapshot fields are set by compaction
// and redirect replay to start from the referenced OPIMG2 snapshot
// instead of the base graph. KeptLineages are the lineages of the epochs
// just before SnapshotEpoch, oldest first, that compaction kept because a
// session checkpoint records one of them.
type mutlogHeader struct {
	Graph           string   `json:"graph"`
	BaseFingerprint string   `json:"base_fingerprint"`
	SnapshotEpoch   int64    `json:"snapshot_epoch,omitempty"`
	SnapshotLineage string   `json:"snapshot_lineage,omitempty"`
	SnapshotFP      string   `json:"snapshot_fingerprint,omitempty"`
	KeptLineages    []string `json:"kept_lineages,omitempty"`
}

// mutlogEntry is one journal line after the header: the batch that
// advanced the graph to Epoch, whose lineage must chain-hash to Lineage.
type mutlogEntry struct {
	Epoch   int64         `json:"epoch"`
	Lineage string        `json:"lineage"`
	Updates []GraphUpdate `json:"updates"`
}

// replayMutationLog applies the journal for the named graph (if any) to
// g — a freshly loaded base (epoch-0) graph — and returns the
// current-epoch graph plus its verified epoch chain: the lineages of
// consecutive epochs ending at the returned graph's. Each replayed batch
// must reproduce the recorded lineage, so any divergence between the
// journal and the dataset on disk is a hard error, never a silently
// different graph. A torn final line (crash mid-append) is dropped with a
// log line; a torn or unparsable line anywhere else is corruption and
// fails the replay. With no checkpoint dir or no journal, g is returned
// unchanged with a one-epoch chain. A journal rewritten by compaction
// redirects replay to its snapshot; a missing journal with a .prev
// generation beside it (a crash between WriteAtomic's renames) falls back
// to the previous generation and renames it back into place. Lines are
// read without a length cap: the journal is the server's own file, and
// one learning round over a large graph journals an entry of tens of
// megabytes.
func replayMutationLog(dir, name string, g *graph.Graph) (*graph.Graph, []string, error) {
	chain := []string{g.EpochLineage()}
	if dir == "" {
		return g, chain, nil
	}
	path := MutationLogPath(dir, name)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if data, err = os.ReadFile(path + fsutil.PrevSuffix); errors.Is(err, os.ErrNotExist) {
			return g, chain, nil
		} else if err == nil {
			log.Printf("server: mutation journal %s missing; replaying previous generation %s (crash between compaction renames)", path, path+fsutil.PrevSuffix)
			// Put it back, so the next batch extends the history it holds
			// instead of starting a journal without it.
			err = os.Rename(path+fsutil.PrevSuffix, path)
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("server: mutation journal %s: %w", path, err)
	}
	var lines [][]byte
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) > 0 {
			lines = append(lines, line)
		}
	}
	if len(lines) == 0 {
		return g, chain, nil
	}

	var hdr mutlogHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, nil, fmt.Errorf("server: mutation journal %s: bad header: %w", path, err)
	}
	if hdr.BaseFingerprint != g.Fingerprint() {
		return nil, nil, fmt.Errorf("server: mutation journal %s was recorded for base graph %s, but graph %q on disk fingerprints %s",
			path, hdr.BaseFingerprint, name, g.Fingerprint())
	}
	if hdr.SnapshotLineage != "" {
		// Compacted journal: replay starts from the snapshot, not the base.
		snapPath := MutationSnapshotPath(dir, name, hdr.SnapshotEpoch)
		snap, err := readGraphSnapshot(snapPath, hdr.SnapshotFP)
		if err != nil {
			return nil, nil, err
		}
		if err := snap.AdoptEpochIdentity(hdr.SnapshotEpoch, hdr.SnapshotLineage); err != nil {
			return nil, nil, fmt.Errorf("server: journal snapshot %s: %w", snapPath, err)
		}
		g = snap
		chain = append(hdr.KeptLineages, hdr.SnapshotLineage)
	}

	for i, line := range lines[1:] {
		var e mutlogEntry
		if err := json.Unmarshal(line, &e); err != nil {
			if i == len(lines)-2 {
				// Torn tail: the crash interrupted the append before the
				// fsync completed, so the batch was never applied and no
				// checkpoint references its epoch. Drop it.
				log.Printf("server: mutation journal %s: dropping torn final entry (crash mid-append): %v", path, err)
				break
			}
			return nil, nil, fmt.Errorf("server: mutation journal %s: entry %d corrupt: %w", path, i+1, err)
		}
		ms, err := updatesToMutations(e.Updates)
		if err != nil {
			return nil, nil, fmt.Errorf("server: mutation journal %s: entry %d: %w", path, i+1, err)
		}
		ng, err := g.WithMutations(ms)
		if err != nil {
			return nil, nil, fmt.Errorf("server: mutation journal %s: entry %d does not apply: %w", path, i+1, err)
		}
		if ng.Epoch() != e.Epoch || ng.EpochLineage() != e.Lineage {
			return nil, nil, fmt.Errorf("server: mutation journal %s: entry %d replays to epoch %d lineage %s, journal records epoch %d lineage %s (journal edited, or dataset changed)",
				path, i+1, ng.Epoch(), ng.EpochLineage(), e.Epoch, e.Lineage)
		}
		g = ng
		chain = append(chain, e.Lineage)
	}
	return g, chain, nil
}

// appendMutationLog durably records one applied batch: open (creating
// with the header when new), append the entry line, fsync. It returns the
// journal's size after the append. The caller applies the batch in memory
// only after this returns nil — write-ahead order is what makes
// crash-mid-mutation detectable rather than silent.
func appendMutationLog(dir, name, baseFP string, e mutlogEntry) (int64, error) {
	path := MutationLogPath(dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("server: opening mutation journal %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	var buf []byte
	if st.Size() == 0 {
		hdr, err := json.Marshal(mutlogHeader{Graph: name, BaseFingerprint: baseFP})
		if err != nil {
			return 0, err
		}
		buf = append(append(buf, hdr...), '\n')
	}
	line, err := json.Marshal(e)
	if err != nil {
		return 0, err
	}
	buf = append(append(buf, line...), '\n')
	if _, err := f.Write(buf); err != nil {
		return 0, fmt.Errorf("server: appending to mutation journal %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("server: syncing mutation journal %s: %w", path, err)
	}
	if st.Size() == 0 {
		// First write also created the file; make the directory entry
		// durable so a crash cannot lose the whole journal while session
		// checkpoints already reference its epochs.
		if d, derr := os.Open(dir); derr == nil {
			d.Sync() //nolint:errcheck // best effort; some filesystems refuse dir fsync
			d.Close()
		}
	}
	return st.Size() + int64(len(buf)), nil
}

// readGraphSnapshot loads a compaction snapshot and verifies its content
// against the fingerprint the journal header recorded — a snapshot edited
// or swapped on disk fails loudly, never replays silently different.
func readGraphSnapshot(path, wantFP string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: opening journal snapshot %s: %w", path, err)
	}
	defer f.Close()
	g, err := graph.ReadCSR(f)
	if err != nil {
		return nil, fmt.Errorf("server: reading journal snapshot %s: %w", path, err)
	}
	if fp := g.Fingerprint(); fp != wantFP {
		return nil, fmt.Errorf("server: journal snapshot %s fingerprints %s, journal header recorded %s (snapshot edited or swapped?)", path, fp, wantFP)
	}
	return g, nil
}

// compactMutationLog rewrites the named graph's journal to start from g:
// g is written to an epoch-suffixed OPIMG2 snapshot, then the journal is
// atomically replaced with a single header line referencing it and
// carrying kept, the lineages of the epochs just before g's. Write order
// makes every crash point safe — the snapshot lands before any header
// mentions it, and the journal swap is WriteAtomic (old generation kept
// at .prev). Snapshots from earlier compactions are removed best-effort
// afterwards; a leftover one is just disk, never read.
func compactMutationLog(dir, name, baseFP string, g *graph.Graph, kept []string) error {
	snapPath := MutationSnapshotPath(dir, name, g.Epoch())
	if _, err := fsutil.WriteAtomic(snapPath, func(w io.Writer) error {
		return graph.WriteCSR(w, g)
	}); err != nil {
		return fmt.Errorf("server: writing journal snapshot %s: %w", snapPath, err)
	}
	hdr, err := json.Marshal(mutlogHeader{
		Graph:           name,
		BaseFingerprint: baseFP,
		SnapshotEpoch:   g.Epoch(),
		SnapshotLineage: g.EpochLineage(),
		SnapshotFP:      g.Fingerprint(),
		KeptLineages:    kept,
	})
	if err != nil {
		return err
	}
	path := MutationLogPath(dir, name)
	if _, err := fsutil.WriteAtomic(path, func(w io.Writer) error {
		_, werr := w.Write(append(hdr, '\n'))
		return werr
	}); err != nil {
		return fmt.Errorf("server: rewriting mutation journal %s: %w", path, err)
	}
	for _, old := range graphSnapshotPaths(dir, name) {
		if old != snapPath {
			os.Remove(old) //nolint:errcheck // best effort; an orphan snapshot is never read
		}
	}
	return nil
}

// graphSnapshotPaths lists the named graph's compaction snapshots (any
// epoch) under dir, for cleanup.
func graphSnapshotPaths(dir, name string) []string {
	paths, _ := filepath.Glob(filepath.Join(dir, "graph-"+name+".e*.snap"))
	return paths
}

// updatesToMutations converts wire-form updates into graph mutations,
// validating the op names (graph.WithMutations validates everything else).
func updatesToMutations(ups []GraphUpdate) ([]graph.Mutation, error) {
	ms := make([]graph.Mutation, 0, len(ups))
	for i, u := range ups {
		op, err := graph.ParseMutOp(u.Op)
		if err != nil {
			return nil, fmt.Errorf("update %d: %w", i, err)
		}
		ms = append(ms, graph.Mutation{Op: op, From: u.From, To: u.To, P: u.P})
	}
	return ms, nil
}

// mutationsToUpdates is updatesToMutations' inverse, for journaling.
func mutationsToUpdates(ms []graph.Mutation) []GraphUpdate {
	ups := make([]GraphUpdate, 0, len(ms))
	for _, m := range ms {
		ups = append(ups, GraphUpdate{Op: m.Op.String(), From: m.From, To: m.To, P: m.P})
	}
	return ups
}
