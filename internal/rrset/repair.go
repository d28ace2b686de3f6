package rrset

// Incremental RR maintenance under graph mutations (the dynamic-IM repair
// of Peng: fix only the samples whose traces touch a changed edge).
//
// The dependency rule: an RR set's sampled trace consumes randomness only
// from the in-edge data of its member nodes. Under IC the reverse BFS
// examines every in-edge of every dequeued node, and only members are
// dequeued; under LT each walk step draws from the alias table (and
// stopping probability) of the current node, and the walk's positions are
// exactly the members. So a mutation of edge ⟨u,v⟩ — insert, delete or
// reweight, each of which perturbs v's in-row content or order — can change
// the outcome of set R iff v ∈ R, and the inverted index locates those sets
// in O(|index[v]|). Adding a node changes the root draw Int31n(n) of every
// set, so a node add invalidates everything. Invalidation is exact, not
// just conservative: a set no batch touches resamples to identical bytes
// on the mutated graph.
//
// Because set id i of a collection built through Generate is driven by
// base.Split(i) — a position-independent stream — an invalidated set is
// lazily regenerated from its original seed position against the mutated
// graph, and the repaired collection (pool, offsets, index, cumulative γ)
// is byte-identical to a from-scratch resample of every id with the same
// base. That identity is what keeps checkpoints, fleet chunk merges and
// bound derivations oblivious to whether a collection was repaired or
// rebuilt; rrset's property tests pin it across models and worker counts.

import (
	"math/bits"
	"runtime"
	"slices"
	"time"

	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rng"
)

// Repair metrics (obs.Default(), see docs/OBSERVABILITY.md). A batch
// invalidating f% of θ sets resamples f·θ sets — rrset_regenerated_total
// advances by f·θ, not θ — plus, when any set changed, one memory-bound
// O(Σ|R|) pass that splices the pool and rebuilds the inverted index.
var (
	mInvalidated = obs.Default().Counter("rrset_invalidated_total")
	mRegenerated = obs.Default().Counter("rrset_regenerated_total")
	mRepairTime  = obs.Default().Timer("rrset_repair_seconds")
	// mRepairUnchanged counts regenerated sets whose bytes came out
	// identical, so only their γ was refreshed.
	mRepairUnchanged = obs.Default().Counter("rrset_repair_unchanged_total")
)

// InvalidatedBy returns the ascending ids of every stored set whose trace
// could depend on any mutation in the batch — the sets Repair must
// regenerate after the batch is applied to the sampling graph. A node add
// widens to every id.
func (c *Collection) InvalidatedBy(ms []graph.Mutation) []int32 {
	count := c.Count()
	if count == 0 {
		return nil
	}
	for _, m := range ms {
		if m.Op == graph.OpAddNode {
			return c.allIDs()
		}
	}
	words := make([]uint64, (count+63)/64)
	marked := 0
	for _, m := range ms {
		if m.To < 0 || m.To >= c.n {
			continue // edge into a node no stored set can contain
		}
		for _, id := range c.index[m.To] {
			w, b := id>>6, uint64(1)<<(uint(id)&63)
			if words[w]&b == 0 {
				words[w] |= b
				marked++
			}
		}
	}
	if marked == 0 {
		return nil
	}
	out := make([]int32, 0, marked)
	for w, word := range words {
		for word != 0 {
			out = append(out, int32(w)<<6+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out
}

// Repair regenerates the given sets (ascending, unique ids) against s —
// a sampler over the mutated graph — drawing set id from base.Split(id),
// the same stream position Generate used when the set was first sampled.
// base must be the source the collection was generated from (set ids
// starting at 0). One path serves every batch kind: the node universe
// follows s's graph (a node add grows the index), and the result — pool,
// offsets, index, per-set and cumulative γ — is byte-identical to a
// from-scratch resample of every id.
//
// A regenerated set whose bytes come back identical only refreshes its γ.
// When no set changed, the pool and every index slice stay as they are.
// Otherwise the pool is spliced into a fresh array (each run of untouched
// sets moves with one copy) and the inverted index is rebuilt into fresh
// slices, so arrays previously handed out via SetsCoveringShared are never
// written.
//
// Sampling work is O(len(invalid)·cost-per-set) across workers (≤ 0 means
// GOMAXPROCS); the splice and index rebuild are O(Σ|R|). Returns the number
// of sets regenerated.
func (c *Collection) Repair(s *Sampler, base *rng.Source, invalid []int32, workers int) int {
	t0 := time.Now()
	defer func() { mRepairTime.Observe(time.Since(t0)) }()
	mInvalidated.Add(int64(len(invalid)))

	// The node universe tracks the sampler's graph (node adds only grow it).
	if newN := s.Graph().N(); newN > c.n {
		grown := make([][]int32, newN)
		copy(grown, c.index)
		c.index = grown
		c.n = newN
	}
	if len(invalid) == 0 {
		return 0
	}
	mRegenerated.Add(int64(len(invalid)))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// γ refreshes for every regenerated set; only sets whose bytes differ
	// move the pool and index. changed[j] is such a set's id, fresh[j] its
	// resampled members, ascending like invalid.
	var changed []int32
	var fresh [][]int32
	k := 0
	for _, b := range sampleShards(s, base, len(invalid), workers, func(i int) uint64 { return uint64(invalid[i]) }) {
		for j, e := range b.Exam {
			id := invalid[k]
			k++
			c.edgesExamined += e - c.exam[id]
			c.exam[id] = e
			if set := b.Set(j); !slices.Equal(c.Set(id), set) {
				changed = append(changed, id)
				fresh = append(fresh, set)
			}
		}
	}
	mRepairUnchanged.Add(int64(len(invalid) - len(changed)))
	if len(changed) == 0 {
		return len(invalid)
	}

	// Splice: the untouched run before each changed set moves with one
	// copy, its offsets shifted by the size change of the sets before it.
	size := int64(len(c.pool))
	for j, id := range changed {
		size += int64(len(fresh[j])) - (c.offs[id+1] - c.offs[id])
	}
	pool := make([]int32, 0, size)
	offs := make([]int64, len(c.offs))
	var shift int64
	lo := int32(0) // first set of the pending untouched run
	moveRun := func(hi int32) {
		pool = append(pool, c.pool[c.offs[lo]:c.offs[hi]]...)
		for j := lo; j <= hi; j++ {
			offs[j] = c.offs[j] + shift
		}
	}
	for j, id := range changed {
		moveRun(id)
		pool = append(pool, fresh[j]...)
		shift = int64(len(pool)) - c.offs[id+1]
		lo = id + 1
	}
	moveRun(int32(c.Count()))
	c.pool, c.offs = pool, offs

	c.index = make([][]int32, c.n)
	c.indexFrom(0, workers)
	return len(invalid)
}

// allIDs returns the full id range of c, the widest invalidation set.
func (c *Collection) allIDs() []int32 {
	ids := make([]int32, c.Count())
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}
