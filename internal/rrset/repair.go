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
	"time"

	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rng"
)

// Repair metrics (obs.Default(), see docs/OBSERVABILITY.md). A mutation
// invalidating f% of θ sets costs O(f·θ) sampling work:
// rrset_regenerated_total advances by f·θ, not θ.
var (
	mInvalidated = obs.Default().Counter("rrset_invalidated_total")
	mRegenerated = obs.Default().Counter("rrset_regenerated_total")
	mRepairTime  = obs.Default().Timer("rrset_repair_seconds")
	// mRepairUnchanged counts regenerated sets whose bytes came out
	// identical, so the weight-only path touched neither pool nor index
	// for them.
	mRepairUnchanged = obs.Default().Counter("rrset_repair_unchanged_total")
)

// InvalidatedBy returns the ascending ids of every stored set whose trace
// could depend on any mutation in the given batches — the sets Repair must
// regenerate after the batches are applied to the sampling graph. Batches
// are the ones applied since this collection was last consistent; computing
// the union against the current (pre-repair) membership is exact even
// across multiple batches, because a set's membership only changes when
// some batch invalidates it. Any node-add widens to every id.
func (c *Collection) InvalidatedBy(batches ...[]graph.Mutation) []int32 {
	count := c.Count()
	if count == 0 {
		return nil
	}
	for _, ms := range batches {
		for _, m := range ms {
			if m.Op == graph.OpAddNode {
				return c.allIDs()
			}
		}
	}
	words := make([]uint64, (count+63)/64)
	marked := 0
	for _, ms := range batches {
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
// starting at 0). The node universe follows s's graph (a node add grows
// the index), pool/offsets/γ are rebuilt so the collection is
// byte-identical to a from-scratch resample, and the inverted index is
// repaired incrementally: only nodes appearing in an old or new version of
// a regenerated set get a freshly allocated list — arrays previously
// handed out via SetsCoveringShared are never written.
//
// Sampling work is O(len(invalid)·cost-per-set) across workers (≤ 0 means
// GOMAXPROCS). Returns the number of sets regenerated.
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
	count := c.Count()
	if len(invalid) == 0 {
		return 0
	}
	mRegenerated.Add(int64(len(invalid)))

	// Per-node removal lists from the old membership, captured before the
	// pool is rebuilt. Ids append in ascending order by construction.
	rem := make(map[int32][]int32)
	for _, id := range invalid {
		for _, v := range c.Set(id) {
			rem[v] = append(rem[v], id)
		}
	}

	// Resample the invalidated ids on parallel shards; shard outputs
	// concatenate to (regenPool, regenOffs, regenExam) in invalid order.
	regenPool, regenOffs, regenExam := resampleIDs(s, base, invalid, workers)

	// Per-node addition lists from the new membership (ascending ids).
	add := make(map[int32][]int32)
	for k, id := range invalid {
		for _, v := range regenPool[regenOffs[k]:regenOffs[k+1]] {
			add[v] = append(add[v], id)
		}
	}

	// Rebuild pool, offsets and γ: valid sets keep their bytes, regenerated
	// sets splice in at their id position — the layout a from-scratch
	// resample of all ids would produce.
	var invalidOldSize int64
	for _, id := range invalid {
		invalidOldSize += c.offs[id+1] - c.offs[id]
	}
	newPool := make([]int32, 0, int64(len(c.pool))-invalidOldSize+int64(len(regenPool)))
	newOffs := make([]int64, 1, count+1)
	k := 0
	for id := int32(0); int(id) < count; id++ {
		if k < len(invalid) && id == invalid[k] {
			newPool = append(newPool, regenPool[regenOffs[k]:regenOffs[k+1]]...)
			c.edgesExamined += regenExam[k] - c.exam[id]
			c.exam[id] = regenExam[k]
			k++
		} else {
			newPool = append(newPool, c.pool[c.offs[id]:c.offs[id+1]]...)
		}
		newOffs = append(newOffs, int64(len(newPool)))
	}
	c.pool, c.offs = newPool, newOffs

	c.mergeIndexDeltas(rem, add)
	return len(invalid)
}

// mergeIndexDeltas repairs the inverted index from per-node removal and
// addition lists: for each node whose coverage list changed, merge (old
// minus removals) with additions into a fresh slice. Removal and addition
// lists are ascending and — after removals — disjoint, so a linear merge
// reproduces the ascending id order of a from-scratch index build. Nodes
// in neither map keep their existing (possibly shared) slices untouched.
func (c *Collection) mergeIndexDeltas(rem, add map[int32][]int32) {
	touched := make(map[int32]struct{}, len(rem)+len(add))
	for v := range rem {
		touched[v] = struct{}{}
	}
	for v := range add {
		touched[v] = struct{}{}
	}
	for v := range touched {
		old, rm, ad := c.index[v], rem[v], add[v]
		merged := make([]int32, 0, len(old)-len(rm)+len(ad))
		i, j, k := 0, 0, 0
		for i < len(old) || k < len(ad) {
			// Skip removed ids from the old list; the skip can exhaust
			// both inputs, so re-check before indexing.
			for i < len(old) && j < len(rm) && old[i] == rm[j] {
				i++
				j++
			}
			if i == len(old) && k == len(ad) {
				break
			}
			switch {
			case i == len(old):
				merged = append(merged, ad[k])
				k++
			case k == len(ad):
				merged = append(merged, old[i])
				i++
			case old[i] < ad[k]:
				merged = append(merged, old[i])
				i++
			default:
				merged = append(merged, ad[k])
				k++
			}
		}
		if len(merged) == 0 {
			merged = nil
		}
		c.index[v] = merged
	}
}

// RepairWeightOnly is Repair specialized to weight-only mutation batches
// (graph.IsWeightOnly): the node universe and the edge set are unchanged,
// so the index never grows, and any invalidated set that resamples to the
// exact bytes it already holds — the common case when a learning round
// nudges thousands of weights by a little — leaves the pool bytes and the
// inverted-index lists of its nodes completely untouched. Only sets whose
// membership actually changed pay the splice-and-merge of the general
// path. The repaired collection is byte-identical to what Repair (and a
// from-scratch resample of every id) produces; the weight-only property
// test pins this across models and worker counts.
//
// The caller is responsible for only routing weight-only batches here; a
// batch with a node add or edge insert/delete must go through Repair.
// Returns the number of sets regenerated.
func (c *Collection) RepairWeightOnly(s *Sampler, base *rng.Source, invalid []int32, workers int) int {
	t0 := time.Now()
	defer func() { mRepairTime.Observe(time.Since(t0)) }()
	mInvalidated.Add(int64(len(invalid)))
	count := c.Count()
	if len(invalid) == 0 {
		return 0
	}
	mRegenerated.Add(int64(len(invalid)))

	regenPool, regenOffs, regenExam := resampleIDs(s, base, invalid, workers)

	// Partition the regenerated ids: a set whose new bytes equal its stored
	// bytes needs no pool or index work at all (its trace, and therefore its
	// members in trace order, came out identical).
	changed := make([]bool, len(invalid))
	numChanged := 0
	for k, id := range invalid {
		if !equalInt32(c.pool[c.offs[id]:c.offs[id+1]], regenPool[regenOffs[k]:regenOffs[k+1]]) {
			changed[k] = true
			numChanged++
		}
	}
	mRepairUnchanged.Add(int64(len(invalid) - numChanged))

	// γ always refreshes from the regenerated counts (for an unchanged set
	// the trace is identical, so this is a no-op in value).
	for k, id := range invalid {
		c.edgesExamined += regenExam[k] - c.exam[id]
		c.exam[id] = regenExam[k]
	}
	if numChanged == 0 {
		// Every invalidated set resampled to its existing bytes: the pool,
		// offsets and index are already exactly what a from-scratch resample
		// would produce. Nothing moves.
		return len(invalid)
	}

	// Removal lists from the old membership of changed sets only, captured
	// before the pool is rebuilt.
	rem := make(map[int32][]int32)
	for k, id := range invalid {
		if !changed[k] {
			continue
		}
		for _, v := range c.Set(id) {
			rem[v] = append(rem[v], id)
		}
	}

	// Splice the pool: valid and unchanged sets keep their bytes, changed
	// sets substitute their regenerated bytes at their id position.
	var oldSz, newSz int64
	for k, id := range invalid {
		if changed[k] {
			oldSz += c.offs[id+1] - c.offs[id]
			newSz += regenOffs[k+1] - regenOffs[k]
		}
	}
	newPool := make([]int32, 0, int64(len(c.pool))-oldSz+newSz)
	newOffs := make([]int64, 1, count+1)
	k := 0
	for id := int32(0); int(id) < count; id++ {
		if k < len(invalid) && id == invalid[k] {
			if changed[k] {
				newPool = append(newPool, regenPool[regenOffs[k]:regenOffs[k+1]]...)
			} else {
				newPool = append(newPool, c.pool[c.offs[id]:c.offs[id+1]]...)
			}
			k++
		} else {
			newPool = append(newPool, c.pool[c.offs[id]:c.offs[id+1]]...)
		}
		newOffs = append(newOffs, int64(len(newPool)))
	}
	c.pool, c.offs = newPool, newOffs

	// Addition lists from the new membership of changed sets; unchanged
	// sets contribute to neither map, so their nodes' index slices (possibly
	// shared with callers via SetsCoveringShared) are never reallocated.
	add := make(map[int32][]int32)
	for k, id := range invalid {
		if !changed[k] {
			continue
		}
		for _, v := range regenPool[regenOffs[k]:regenOffs[k+1]] {
			add[v] = append(add[v], id)
		}
	}
	c.mergeIndexDeltas(rem, add)
	return len(invalid)
}

// equalInt32 reports whether two int32 slices hold identical elements.
func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resampleIDs regenerates the given set ids on parallel shards, each id
// driven by base.Split(id) — the stream position Generate used originally.
// Outputs concatenate in invalid order: regenOffs[k]..regenOffs[k+1] frames
// id invalid[k]'s nodes in regenPool, regenExam[k] its examined-edge count.
func resampleIDs(s *Sampler, base *rng.Source, invalid []int32, workers int) (regenPool []int32, regenOffs, regenExam []int64) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(invalid) {
		workers = len(invalid)
	}
	shards := make([]chunk, workers)
	runShards(workers, func(w int) {
		lo, hi := len(invalid)*w/workers, len(invalid)*(w+1)/workers
		sc := s.NewScratch()
		sh := chunk{offs: make([]int64, 1, hi-lo+1)}
		for _, id := range invalid[lo:hi] {
			src := base.Split(uint64(id))
			nodes, examined := s.Sample(src, sc)
			sh.pool = append(sh.pool, nodes...)
			sh.offs = append(sh.offs, int64(len(sh.pool)))
			sh.exam = append(sh.exam, examined)
			sh.examined += examined
		}
		shards[w] = sh
	})
	regenOffs = make([]int64, 1, len(invalid)+1)
	regenExam = make([]int64, 0, len(invalid))
	for _, sh := range shards {
		off := int64(len(regenPool))
		regenPool = append(regenPool, sh.pool...)
		for _, o := range sh.offs[1:] {
			regenOffs = append(regenOffs, off+o)
		}
		regenExam = append(regenExam, sh.exam...)
	}
	return regenPool, regenOffs, regenExam
}

// allIDs returns the full id range of c, the widest invalidation set.
func (c *Collection) allIDs() []int32 {
	ids := make([]int32, c.Count())
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}
