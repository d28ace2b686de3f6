// Package rrset implements reverse influence sampling (RIS) [Borgs et al.
// 2014], the substrate of every algorithm in the paper: random
// reverse-reachable (RR) set generation under the IC and LT models
// (Appendix A), and an indexed Collection that supports the coverage
// queries of Algorithm 1 and the bound computations of §§4–5.
//
// Collection construction is sharded: one shard loop samples RR sets on
// parallel workers into index-free Batches, and Append merges their pools,
// offsets and the inverted node→set index with parallel phase barriers, so
// there is no single-threaded merge loop between sampling and selection.
// The layout is byte-identical for every worker count and for every split
// of the ids into batches (see Generate and Append), which is the invariant
// the determinism and persistence guarantees of the whole library rest on.
package rrset

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rng"
)

// Generation metrics (obs.Default(), see docs/OBSERVABILITY.md). Updated
// once per Generate or Append call / per sampling or index shard — never per
// RR set — so the cost is a handful of atomics per batch.
var (
	mGenerated      = obs.Default().Counter("rrset_generated_total")
	mNodes          = obs.Default().Counter("rrset_nodes_total")
	mEdgesExamined  = obs.Default().Counter("rrset_edges_examined_total")
	mGenerateTime   = obs.Default().Timer("rrset_generate_seconds")
	mWorkerTime     = obs.Default().Timer("rrset_worker_seconds")
	mIndexBuildTime = obs.Default().Timer("rrset_index_build_seconds")
	mIndexShardTime = obs.Default().Timer("rrset_index_shard_seconds")
	mIndexShards    = obs.Default().Counter("rrset_index_shards_total")
)

// TriggeringDistribution samples triggering sets [Kempe et al. 2003] for
// the nodes of one graph; see the trigger package, whose Distribution
// implementations satisfy this interface. It lets every RIS-based algorithm
// in this library run on any triggering model, the generality under which
// the paper states Theorem 6.4.
type TriggeringDistribution interface {
	// SampleTriggering appends a triggering set for v to buf and returns
	// the extended slice; members must be in-neighbors of v, no duplicates.
	SampleTriggering(v int32, src *rng.Source, buf []int32) []int32
}

// Sampler draws random RR sets on one graph under one diffusion model.
// A Sampler is immutable and safe for concurrent use; per-goroutine mutable
// state lives in Scratch.
type Sampler struct {
	g     *graph.Graph
	model diffusion.Model
	lt    *graph.LTSampler       // non-nil iff model == LT
	dist  TriggeringDistribution // non-nil iff built by NewSamplerTriggering
	hops  int32                  // > 0 limits reverse traversal depth
}

// NewSampler builds a Sampler for g under model. For LT it precomputes the
// per-node alias tables (O(n+m)).
func NewSampler(g *graph.Graph, model diffusion.Model) *Sampler {
	s := &Sampler{g: g, model: model}
	if model == diffusion.LT {
		s.lt = graph.NewLTSampler(g)
	}
	return s
}

// NewSamplerHops builds a Sampler whose RR sets only contain nodes within
// maxHops reverse steps of the root, so n·Λ/θ estimates the HOP-LIMITED
// spread σ_h(S) (the objective of the hop-based heuristics line the paper
// surveys in §7). All OPIM machinery applies to σ_h unchanged — it is
// monotone submodular like σ. maxHops ≤ 0 means unlimited.
func NewSamplerHops(g *graph.Graph, model diffusion.Model, maxHops int) *Sampler {
	s := NewSampler(g, model)
	if maxHops > 0 {
		s.hops = int32(maxHops)
	}
	return s
}

// NewSamplerTriggering builds a Sampler over an arbitrary triggering
// distribution. The reported edges-examined count for each RR set is the
// total size of the triggering sets drawn (the work the distribution
// exposes); Model() reports IC as a placeholder and should not be
// interpreted for such samplers.
func NewSamplerTriggering(g *graph.Graph, dist TriggeringDistribution) *Sampler {
	return &Sampler{g: g, dist: dist}
}

// Graph returns the sampler's graph.
func (s *Sampler) Graph() *graph.Graph { return s.g }

// Model returns the sampler's diffusion model.
func (s *Sampler) Model() diffusion.Model { return s.model }

// Scratch holds the per-goroutine buffers of RR-set generation.
type Scratch struct {
	mark  []uint32
	epoch uint32
	buf   []int32
	tbuf  []int32 // triggering-set buffer for generic samplers
	depth []int32 // BFS depth per queue slot, used by hop-limited samplers
}

// NewScratch returns a Scratch sized for s's graph.
func (s *Sampler) NewScratch() *Scratch {
	return &Scratch{
		mark: make([]uint32, s.g.N()),
		buf:  make([]int32, 0, 256),
	}
}

func (sc *Scratch) nextEpoch() {
	sc.epoch++
	if sc.epoch == 0 {
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		sc.epoch = 1
	}
}

// Sample draws one random RR set using src, returning the member nodes and
// the number of edges examined during construction (the γ quantity that
// Borgs et al.'s OPIM algorithm monitors). The returned slice aliases
// sc.buf and is only valid until the next Sample call on sc.
func (s *Sampler) Sample(src *rng.Source, sc *Scratch) (nodes []int32, edgesExamined int64) {
	root := src.Int31n(s.g.N())
	return s.SampleFrom(root, src, sc)
}

// SampleFrom draws one RR set rooted at the given node. Exposed for tests
// and for stratified sampling experiments.
func (s *Sampler) SampleFrom(root int32, src *rng.Source, sc *Scratch) (nodes []int32, edgesExamined int64) {
	if s.dist != nil {
		return s.sampleTriggering(root, src, sc)
	}
	switch s.model {
	case diffusion.IC:
		return s.sampleIC(root, src, sc)
	case diffusion.LT:
		return s.sampleLT(root, src, sc)
	}
	panic(fmt.Sprintf("rrset: unknown model %d", int(s.model)))
}

// sampleTriggering reverse-traverses sampled triggering sets from root —
// Appendix A's construction in its general triggering-model form.
func (s *Sampler) sampleTriggering(root int32, src *rng.Source, sc *Scratch) ([]int32, int64) {
	sc.nextEpoch()
	q := sc.buf[:0]
	q = append(q, root)
	sc.mark[root] = sc.epoch
	var examined int64
	for head := 0; head < len(q); head++ {
		v := q[head]
		sc.tbuf = s.dist.SampleTriggering(v, src, sc.tbuf[:0])
		examined += int64(len(sc.tbuf))
		for _, u := range sc.tbuf {
			if sc.mark[u] == sc.epoch {
				continue
			}
			sc.mark[u] = sc.epoch
			q = append(q, u)
		}
	}
	sc.buf = q
	return q, examined
}

// sampleIC performs the stochastic reverse BFS of Appendix A: starting from
// root, each incoming edge ⟨w,u⟩ is traversed with probability p(w,u). In
// the common unlimited-hops case no per-node depth bookkeeping is done; the
// random draws are identical to the hop-limited variant's, so the two paths
// produce the same RR sets when hops is effectively unlimited.
func (s *Sampler) sampleIC(root int32, src *rng.Source, sc *Scratch) ([]int32, int64) {
	if s.hops > 0 {
		return s.sampleICHops(root, src, sc)
	}
	sc.nextEpoch()
	q := sc.buf[:0]
	q = append(q, root)
	sc.mark[root] = sc.epoch
	var examined int64
	for head := 0; head < len(q); head++ {
		from, p := s.g.InNeighbors(q[head])
		examined += int64(len(from))
		for i, w := range from {
			if sc.mark[w] == sc.epoch {
				continue
			}
			if src.Float64() < float64(p[i]) {
				sc.mark[w] = sc.epoch
				q = append(q, w)
			}
		}
	}
	sc.buf = q
	return q, examined
}

// sampleICHops is sampleIC with per-queue-slot depth tracking, used only
// when the sampler is hop-limited.
func (s *Sampler) sampleICHops(root int32, src *rng.Source, sc *Scratch) ([]int32, int64) {
	sc.nextEpoch()
	q := sc.buf[:0]
	q = append(q, root)
	sc.mark[root] = sc.epoch
	depth := sc.depth[:0]
	depth = append(depth, 0)
	var examined int64
	for head := 0; head < len(q); head++ {
		u := q[head]
		if depth[head] >= s.hops {
			continue
		}
		from, p := s.g.InNeighbors(u)
		examined += int64(len(from))
		for i, w := range from {
			if sc.mark[w] == sc.epoch {
				continue
			}
			if src.Float64() < float64(p[i]) {
				sc.mark[w] = sc.epoch
				q = append(q, w)
				depth = append(depth, depth[head]+1)
			}
		}
	}
	sc.buf = q
	sc.depth = depth
	return q, examined
}

// sampleLT performs the reverse random walk of Appendix A: at each node the
// walk stops with probability 1 − Σp(·,u), otherwise it moves to one
// in-neighbor drawn via the alias table; it also stops upon revisiting a
// node already in the set (a cycle adds nothing under LT).
func (s *Sampler) sampleLT(root int32, src *rng.Source, sc *Scratch) ([]int32, int64) {
	sc.nextEpoch()
	set := sc.buf[:0]
	set = append(set, root)
	sc.mark[root] = sc.epoch
	var examined int64
	u := root
	for steps := int32(0); s.hops <= 0 || steps < s.hops; steps++ {
		w, ok := s.lt.SampleInNeighbor(u, src)
		if !ok {
			break
		}
		examined++ // alias sampling inspects O(1) edges per step
		if sc.mark[w] == sc.epoch {
			break // walked into a cycle
		}
		sc.mark[w] = sc.epoch
		set = append(set, w)
		u = w
	}
	sc.buf = set
	return set, examined
}

// Collection stores RR sets in pooled form with an inverted node→set index,
// supporting the coverage computations of Algorithm 1. The zero value is an
// empty collection for a graph with 0 nodes; use NewCollection.
//
// A Collection is safe for concurrent reads; writes (Add, Append, Generate,
// Repair) must not overlap with each other or with reads.
type Collection struct {
	n    int32
	offs []int64 // len = Count()+1; set i occupies pool[offs[i]:offs[i+1]]
	pool []int32

	// index[v] lists the ids of RR sets containing node v, ascending.
	index [][]int32

	edgesExamined int64

	// exam[id] is the edges-examined count of set id — the per-set γ that
	// Repair needs to keep the cumulative edgesExamined byte-identical to a
	// from-scratch resample after replacing individual sets.
	// len(exam) == Count() always.
	exam []int64

	// covPool recycles CoverageScratch values for the allocation-free
	// Coverage compatibility wrapper; CoverageWith is the explicit form.
	covPool sync.Pool
}

// NewCollection returns an empty Collection for a graph with n nodes.
func NewCollection(n int32) *Collection {
	return &Collection{
		n:     n,
		offs:  []int64{0},
		index: make([][]int32, n),
	}
}

// N returns the node-universe size.
func (c *Collection) N() int32 { return c.n }

// Count returns the number of RR sets stored.
func (c *Collection) Count() int { return len(c.offs) - 1 }

// TotalSize returns Σ|R| over all stored sets.
func (c *Collection) TotalSize() int64 { return int64(len(c.pool)) }

// EdgesExamined returns the cumulative γ of every stored set.
func (c *Collection) EdgesExamined() int64 { return c.edgesExamined }

// Add appends one RR set (copying nodes) and credits edgesExamined to γ.
// It returns the new set's id.
func (c *Collection) Add(nodes []int32, edgesExamined int64) int32 {
	id := int32(c.Count())
	c.exam = append(c.exam, edgesExamined)
	c.pool = append(c.pool, nodes...)
	c.offs = append(c.offs, int64(len(c.pool)))
	for _, v := range nodes {
		c.index[v] = append(c.index[v], id)
	}
	c.edgesExamined += edgesExamined
	return id
}

// Set returns the member nodes of set id. The slice aliases internal
// storage and must not be modified.
func (c *Collection) Set(id int32) []int32 {
	return c.pool[c.offs[id]:c.offs[id+1]]
}

// SetsCovering returns the ids of sets containing v, ascending. The slice
// is a copy the caller owns: mutating it cannot corrupt the index, and it
// stays valid across later Add/Append/Generate/Repair calls. Hot paths
// that query coverage lists in inner loops should use SetsCoveringShared
// instead.
func (c *Collection) SetsCovering(v int32) []int32 {
	ids := c.index[v]
	if len(ids) == 0 {
		return nil
	}
	out := make([]int32, len(ids))
	copy(out, ids)
	return out
}

// SetsCoveringShared is the allocation-free form of SetsCovering for hot
// read paths (the greedy kernels in maxcover). The returned slice aliases
// the live index: it is strictly read-only — writing through it corrupts
// the collection — and it is invalidated by the next write to c (Add,
// Append, Generate, Repair); repair never mutates the array a previously
// returned slice points at, so a stale reference still reads the
// pre-repair ids rather than garbage.
func (c *Collection) SetsCoveringShared(v int32) []int32 { return c.index[v] }

// Degree returns the number of stored sets containing v, i.e. Λ({v}).
func (c *Collection) Degree(v int32) int32 { return int32(len(c.index[v])) }

// CoverageScratch is the reusable state of the epoch-marked coverage
// kernel: one mark word per RR-set id, invalidated by bumping an epoch
// counter instead of clearing, so repeated Λ(S) queries (OPIM-C's
// per-round bound checks, the Oracle's candidate scoring) cost zero
// allocations after the first call. A CoverageScratch may be reused across
// collections and across collection growth; it is not safe for concurrent
// use — keep one per goroutine.
type CoverageScratch struct {
	mark  []uint32
	epoch uint32
}

// NewCoverageScratch returns an empty scratch; it sizes itself lazily on
// first use.
func NewCoverageScratch() *CoverageScratch { return &CoverageScratch{} }

// CoverageWith returns Λ(S) like Coverage, accumulating into sc instead of
// allocating. It runs in O(Σ_{v∈S} |SetsCovering(v)|) with no allocation
// once sc has grown to the collection's set count.
func (c *Collection) CoverageWith(sc *CoverageScratch, seeds []int32) int64 {
	if count := c.Count(); len(sc.mark) < count {
		// Stale marks never collide: the epoch bump below invalidates the
		// old region and fresh zeros can never equal a live epoch.
		grown := make([]uint32, count)
		copy(grown, sc.mark)
		sc.mark = grown
	}
	sc.epoch++
	if sc.epoch == 0 {
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		sc.epoch = 1
	}
	var covered int64
	for _, v := range seeds {
		for _, id := range c.index[v] {
			if sc.mark[id] != sc.epoch {
				sc.mark[id] = sc.epoch
				covered++
			}
		}
	}
	return covered
}

// Coverage returns Λ(S): the number of stored sets intersecting the seed
// set. It is the allocation-compatible wrapper over the epoch-marked
// kernel (CoverageWith), drawing scratch from an internal pool so it stays
// safe for concurrent readers; hot paths should hold their own
// CoverageScratch instead.
func (c *Collection) Coverage(seeds []int32) int64 {
	sc, _ := c.covPool.Get().(*CoverageScratch)
	if sc == nil {
		sc = NewCoverageScratch()
	}
	covered := c.CoverageWith(sc, seeds)
	c.covPool.Put(sc)
	return covered
}

// Batch is a run of sampled RR sets that no collection indexes yet: the
// unit in which sets travel from the shard loop, or over the wire as one
// OPIMR3 frame, into a collection (Append). Set j occupies
// Pool[Offs[j]:Offs[j+1]] (Offs[0] == 0) and examined Exam[j] edges; N is
// the node count of the graph it was sampled on. Offsets are int64 — a
// batch whose pooled nodes exceed 2^31 must rebase without truncation
// (regression: these were int32 once, silently corrupting large shards).
type Batch struct {
	N    int32
	Pool []int32
	Offs []int64
	Exam []int64
}

// Set returns the member nodes of set j; the slice aliases b.Pool.
func (b Batch) Set(j int) []int32 { return b.Pool[b.Offs[j]:b.Offs[j+1]] }

// Generate draws count RR sets with s and appends them to c, splitting work
// across workers (≤ 0 means GOMAXPROCS). RR set i of the call is driven by
// the split stream base.Split(c.Count()+i) and shard outputs are merged at
// deterministic positions, so the resulting collection — pool bytes,
// offsets, and inverted index — is byte-identical for any worker count,
// growing a collection incrementally matches generating it in one shot,
// and the same ids sampled anywhere else (SampleAt) append to the same
// bytes.
func Generate(c *Collection, s *Sampler, count int, base *rng.Source, workers int) {
	if count <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t0 := time.Now()
	nodesBefore, edgesBefore := c.TotalSize(), c.EdgesExamined()
	startID := uint64(c.Count())
	if workers == 1 || count < 64 {
		// One shard Adds each set as it is drawn: no batch copy, and no
		// counting build, whose n-entry array a small batch need not pay.
		sc := s.NewScratch()
		for i := 0; i < count; i++ {
			c.Add(s.Sample(base.Split(startID+uint64(i)), sc))
		}
		mWorkerTime.Observe(time.Since(t0))
	} else {
		c.Append(workers, SampleAt(s, count, base, startID, workers)...)
	}
	mGenerated.Add(int64(count))
	mNodes.Add(c.TotalSize() - nodesBefore)
	mEdgesExamined.Add(c.EdgesExamined() - edgesBefore)
	mGenerateTime.Observe(time.Since(t0))
}

// SampleAt draws count RR sets with s, set i driven by
// base.Split(startID+i), on up to workers shards (≤ 0 means GOMAXPROCS),
// and returns each shard's sets as one Batch, in id order. It builds no
// index. It is the primitive distributed generation builds on: a fleet
// worker samples the ids [lo, hi) of a coordinator's Generate with
// startID+lo, and the coordinator Appends the leases' batches in id
// order, yielding bytes identical to a local Generate.
func SampleAt(s *Sampler, count int, base *rng.Source, startID uint64, workers int) []Batch {
	return sampleShards(s, base, count, workers, func(i int) uint64 { return startID + uint64(i) })
}

// sampleShards is the one sampling loop: it draws count RR sets on up to
// workers shards (≤ 0 means GOMAXPROCS), set i from base.Split(id(i)), each
// shard a contiguous run of i with no shared state and no locks.
func sampleShards(s *Sampler, base *rng.Source, count, workers int, id func(i int) uint64) []Batch {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, count))
	batches := make([]Batch, workers)
	runShards(workers, func(w int) {
		t0 := time.Now()
		lo, hi := count*w/workers, count*(w+1)/workers
		sc := s.NewScratch()
		b := Batch{N: s.g.N(), Offs: make([]int64, 1, hi-lo+1), Exam: make([]int64, 0, hi-lo)}
		for i := lo; i < hi; i++ {
			nodes, examined := s.Sample(base.Split(id(i)), sc)
			b.Pool = append(b.Pool, nodes...)
			b.Offs = append(b.Offs, int64(len(b.Pool)))
			b.Exam = append(b.Exam, examined)
		}
		batches[w] = b
		mWorkerTime.Observe(time.Since(t0))
	})
	return batches
}

// Append adds the sets of batches to c in order, as sequential Add calls
// would, and indexes them with a counting build on up to workers shards
// (≤ 0 means GOMAXPROCS). Pool, offsets, index and γ come out
// byte-identical however the ids were split into batches and whichever
// process sampled each one. Apart from Add it is the only way sets join a
// collection: Generate's parallel path, ReadCollection and the fleet
// coordinator's merge all go through it. A batch sampled for another node
// count is a caller's bug and panics.
func (c *Collection) Append(workers int, batches ...Batch) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	poolBase := make([]int64, len(batches)+1)
	setBase := make([]int, len(batches)+1)
	for i, b := range batches {
		if b.N != c.n {
			panic(fmt.Sprintf("rrset: appending a batch for n=%d onto n=%d", b.N, c.n))
		}
		poolBase[i+1] = poolBase[i] + int64(len(b.Pool))
		setBase[i+1] = setBase[i] + len(b.Exam)
	}
	oldPoolLen, oldCount := int64(len(c.pool)), c.Count()

	// Pool and offsets: grow once, then copy each batch into its disjoint
	// extent in parallel.
	c.pool = growInt32(c.pool, poolBase[len(batches)])
	c.offs = growInt64(c.offs, int64(setBase[len(batches)]))
	par := min(workers, len(batches))
	runShards(par, func(w int) {
		for i := w; i < len(batches); i += par {
			copy(c.pool[oldPoolLen+poolBase[i]:], batches[i].Pool)
			rebaseOffsets(c.offs[1+oldCount+setBase[i]:], oldPoolLen+poolBase[i], batches[i].Offs)
		}
	})
	for _, b := range batches {
		c.exam = append(c.exam, b.Exam...)
		for _, e := range b.Exam {
			c.edgesExamined += e
		}
	}

	// Inverted index.
	it0 := time.Now()
	for _, d := range c.indexFrom(oldCount, workers) {
		mIndexShardTime.Observe(d)
		mIndexShards.Inc()
	}
	mIndexBuildTime.Observe(time.Since(it0))
}

// indexFrom adds sets [from, Count()) to the inverted index with a
// two-pass counting build on up to par shards, each owning a contiguous id
// range: (1) per-shard node occurrence counts, (2) per-node prefix sums
// and one slice growth over a node partition, (3) parallel fill at the
// pre-computed positions. Shard order inside each node's list equals id
// order, so the index matches sequential Add calls exactly. Each shard
// costs an n-entry count array. It returns each shard's fill time.
func (c *Collection) indexFrom(from, par int) []time.Duration {
	count := c.Count()
	if from >= count {
		return nil
	}
	par = min(par, count-from)
	first := func(w int) int { return from + (count-from)*w/par }
	counts := make([][]int32, par)
	runShards(par, func(w int) {
		cnt := make([]int32, c.n)
		for _, v := range c.pool[c.offs[first(w)]:c.offs[first(w+1)]] {
			cnt[v]++
		}
		counts[w] = cnt
	})
	n := int64(c.n)
	runShards(par, func(r int) {
		lo, hi := n*int64(r)/int64(par), n*int64(r+1)/int64(par)
		for v := lo; v < hi; v++ {
			var add int32
			for w := range counts {
				add += counts[w][v]
			}
			if add == 0 {
				continue
			}
			old := c.index[v]
			oldLen := len(old)
			need := oldLen + int(add)
			if cap(old) < need {
				grown := make([]int32, oldLen, need)
				copy(grown, old)
				old = grown
			}
			c.index[v] = old[:need]
			pos := int32(oldLen)
			for w := range counts {
				next := pos + counts[w][v]
				counts[w][v] = pos
				pos = next
			}
		}
	})
	fill := make([]time.Duration, par)
	runShards(par, func(w int) {
		st0 := time.Now()
		cnt := counts[w]
		for id := first(w); id < first(w+1); id++ {
			for _, v := range c.Set(int32(id)) {
				c.index[v][cnt[v]] = int32(id)
				cnt[v]++
			}
		}
		fill[w] = time.Since(st0)
	})
	return fill
}

// rebaseOffsets writes the global end-offset of each batch set into dst:
// dst[i] = base + local[i+1], where local are batch-local offsets starting
// at 0 and base is the batch's global pool start. All arithmetic is int64;
// batches whose pooled nodes exceed 2^31 rebase without truncation.
func rebaseOffsets(dst []int64, base int64, local []int64) {
	for i, o := range local[1:] {
		dst[i] = base + o
	}
}

// growInt32 extends s by extra elements (contents undefined), reallocating
// with amortized doubling so repeated batch appends stay linear.
func growInt32(s []int32, extra int64) []int32 {
	need := int64(len(s)) + extra
	if int64(cap(s)) < need {
		newCap := 2 * int64(cap(s))
		if newCap < need {
			newCap = need
		}
		grown := make([]int32, len(s), newCap)
		copy(grown, s)
		s = grown
	}
	return s[:need]
}

// growInt64 is growInt32 for []int64.
func growInt64(s []int64, extra int64) []int64 {
	need := int64(len(s)) + extra
	if int64(cap(s)) < need {
		newCap := 2 * int64(cap(s))
		if newCap < need {
			newCap = need
		}
		grown := make([]int64, len(s), newCap)
		copy(grown, s)
		s = grown
	}
	return s[:need]
}

// runShards invokes f(w) for w in [0, par) on par goroutines and waits for
// all of them — the phase-barrier primitive of sharded construction.
func runShards(par int, f func(w int)) {
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}
