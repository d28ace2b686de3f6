// Package maxcover implements Algorithm 1 of the paper — the greedy
// maximum-coverage seed selection over a collection of RR sets — together
// with the per-prefix coverage traces that §5's tightened upper bounds
// need:
//
//   - Λ1(S_i*) for every greedy prefix S_i* (i = 0 … k),
//   - Λ1ᵘ(S°) of eq. (10): min_i ( Λ1(S_i*) + Σ_{v∈maxMC(S_i*,k)} Λ1(v|S_i*) ),
//   - Λ1⋄(S°), the Leskovec-style bound used by the OPIM′ variant.
//
// Two selection kernels produce provably identical Results (bitset.go):
// the counting variant maintains the marginal coverage of every node and,
// when a node is selected, walks the newly covered RR sets decrementing
// their members' marginals — O(Σ_{R∈R1} |R|) total; on dense collections a
// packed-bitset kernel instead updates marginals word-parallel via
// popcounts over per-node membership rows. ChooseKernel picks per run
// (density-gated, memory-capped).
//
// Both kernels share one greedy loop. It sorts the nodes once per run by
// their initial marginal cov₀ (an O(n + max cov₀) counting sort); coverage
// is submodular, so every later marginal is at most cov₀, and both the
// argmax and each maxMC top-k sum stop scanning as soon as cov₀ alone
// rules the remaining nodes out. The O(kn) term of Table 1 is therefore a
// worst case, paid only when the marginals are flat.
//
// All selection state (marginal arrays, epoch-marked covered/chosen flags,
// the node order, the top-k heap) lives in a reusable Scratch so a
// long-lived session pays zero selection allocations per snapshot beyond
// the returned Result. The package-level functions are compatibility
// wrappers that allocate a fresh Scratch per call.
package maxcover

import (
	"slices"

	"github.com/reprolab/opim/internal/rrset"
)

// Result carries the greedy seed set and every coverage statistic the
// bound computations consume.
type Result struct {
	// Seeds is S* in selection order (size min(k, n)).
	Seeds []int32
	// Coverage is Λ1(S*), the number of RR sets covered by the full seed set.
	Coverage int64
	// PrefixCoverage[i] is Λ1(S_i*), i = 0 … len(Seeds); PrefixCoverage[0] = 0.
	PrefixCoverage []int64
	// LambdaU is Λ1ᵘ(S°) per eq. (10); 0 unless computed with WithBounds.
	LambdaU int64
	// LambdaDiamond is Λ1⋄(S°) (Leskovec bound); 0 unless WithBounds.
	LambdaDiamond int64
	// HasBounds reports whether LambdaU/LambdaDiamond were computed.
	HasBounds bool
}

// boundsMode selects which §5 upper bounds run computes alongside the
// greedy selection.
type boundsMode int

const (
	boundsNone    boundsMode = iota // plain Algorithm 1
	boundsAll                       // Λ1ᵘ (eq. 10, O(kn) worst case) and Λ1⋄
	boundsDiamond                   // Λ1⋄ only (O(n) extra) — Table 1's OPIM′ row
)

// Scratch holds the reusable buffers of greedy selection. The covered and
// chosen flags are epoch-marked, so reuse costs one counter bump instead
// of clearing count- and n-sized arrays; the marginal and order arrays are
// overwritten in full each run. A Scratch adapts to whatever collection
// size and node count it is handed (growing monotonically) and may be
// reused across collections; it is not safe for concurrent use — keep one
// per goroutine or session.
type Scratch struct {
	cov     []int64  // marginal coverage per node
	covered []uint32 // epoch mark per RR-set id
	chosen  []uint32 // epoch mark per node
	order   []int32  // nodes by descending initial marginal, ties by id
	cov0    []int64  // cov0[j] = initial marginal of order[j]
	bucket  []int32  // counting-sort histogram over initial marginals
	heap    []int64  // size-k min-heap of topKSum
	epoch   uint32

	// Packed-bitset kernel state (bitset.go); sized lazily, only when
	// ChooseKernel routes a run to the word-parallel path. rows is cached
	// across runs keyed on (rowsC, rowsN): a same-pointer collection that
	// grew since the last run only encodes its new sets (Collections are
	// append-only), which also pins rowsC against address reuse.
	kernel    Kernel            // sticky preference; KernelAuto decides per run
	rows      []uint64          // n × stride packed RR-membership rows
	rowsC     *rrset.Collection // collection rows currently mirror (nil = cold)
	rowsN     int               // node count rows were laid out for
	rowsCount int               // sets encoded in rows
	stride    int               // words per row (power of two ≥ needed words)
	uncov     []uint64          // uncovered-set bitset, words long
	dbuf      []uint64          // newly-covered word deltas of the latest selection
	dnz       []int32           // indices of nonzero dbuf words
}

// NewScratch returns an empty Scratch; buffers are sized lazily on first
// use.
func NewScratch() *Scratch { return &Scratch{} }

// reset sizes the buffers for a run over n nodes and count sets and opens
// a fresh epoch. Freshly allocated zero marks can never equal a live epoch,
// so growth needs no copying of stale marks.
func (sc *Scratch) reset(n, count int) {
	if len(sc.cov) < n {
		sc.cov = make([]int64, n)
		sc.chosen = make([]uint32, n)
		sc.order = make([]int32, n)
		sc.cov0 = make([]int64, n)
	}
	if len(sc.covered) < count {
		sc.covered = make([]uint32, count)
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.covered)
		clear(sc.chosen)
		sc.epoch = 1
	}
}

// Greedy runs Algorithm 1 on c for a size-k seed set. Ties are broken by
// smallest node id, so the result is deterministic.
func Greedy(c *rrset.Collection, k int) *Result {
	return NewScratch().Greedy(c, k)
}

// GreedyWithBounds runs Algorithm 1 and additionally computes the §5 upper
// bounds Λ1ᵘ(S°) (eq. 10) and Λ1⋄(S°). The eq. (10) sums cost O(kn) in
// the worst case (flat marginals), exactly as Table 1 states; skewed
// marginals prune most of it.
func GreedyWithBounds(c *rrset.Collection, k int) *Result {
	return NewScratch().GreedyWithBounds(c, k)
}

// GreedyWithDiamond runs Algorithm 1 and computes only the Leskovec-style
// bound Λ1⋄(S°) (one O(n) top-k selection at the final prefix), matching
// Table 1's O(n + Σ|R|) complexity for the OPIM′ variant. LambdaU is left 0.
func GreedyWithDiamond(c *rrset.Collection, k int) *Result {
	return NewScratch().GreedyWithDiamond(c, k)
}

// Greedy is the scratch-reusing form of the package-level Greedy.
func (sc *Scratch) Greedy(c *rrset.Collection, k int) *Result {
	return sc.run(c, k, boundsNone)
}

// GreedyWithBounds is the scratch-reusing form of GreedyWithBounds.
func (sc *Scratch) GreedyWithBounds(c *rrset.Collection, k int) *Result {
	return sc.run(c, k, boundsAll)
}

// GreedyWithDiamond is the scratch-reusing form of GreedyWithDiamond.
func (sc *Scratch) GreedyWithDiamond(c *rrset.Collection, k int) *Result {
	return sc.run(c, k, boundsDiamond)
}

func (sc *Scratch) run(c *rrset.Collection, k int, mode boundsMode) *Result {
	kern := sc.kernel
	if kern == KernelAuto {
		kern = ChooseKernel(c, k)
	}
	if kern == KernelBitset {
		return sc.runBitset(c, k, mode)
	}
	n := int(c.N())
	count := c.Count()
	sc.reset(n, count)

	// cov[v] = Λ1(v | S_i*): marginal coverage given the current prefix.
	cov := sc.cov[:n]
	for v := range cov {
		cov[v] = int64(c.Degree(int32(v)))
	}
	return sc.greedy(cov, clampK(k, n), mode, int64(count), func(best int32) {
		sc.coverCounting(c, best, cov)
	})
}

// coverCounting marks best's uncovered sets covered and decrements the
// marginal of every member of each — the counting kernel's update.
func (sc *Scratch) coverCounting(c *rrset.Collection, best int32, cov []int64) {
	for _, id := range c.SetsCoveringShared(best) {
		if sc.covered[id] == sc.epoch {
			continue
		}
		sc.covered[id] = sc.epoch
		for _, w := range c.Set(id) {
			cov[w]--
		}
	}
}

func clampK(k, n int) int {
	return max(0, min(k, n))
}

// greedy is the selection loop every kernel shares. cov holds the initial
// marginals cov₀ on entry; after each pick, update(best) must lower cov to
// the marginals given the grown prefix (the picked node's own marginal
// drops to 0, as do all already-chosen nodes'). universe caps the bounds:
// no seed set covers more than the sets left to cover.
func (sc *Scratch) greedy(cov []int64, k int, mode boundsMode, universe int64, update func(best int32)) *Result {
	sc.orderNodes(cov)
	res := &Result{
		Seeds:          make([]int32, 0, k),
		PrefixCoverage: make([]int64, 1, k+1),
	}
	if mode != boundsNone {
		res.HasBounds = true
		res.LambdaU = int64(1) << 62
	}

	var total int64
	for i := 0; i < k; i++ {
		if mode == boundsAll {
			// Bound candidate for prefix S_i* (before selecting node i+1):
			// Λ1(S_i*) + Σ of the k largest marginals.
			res.LambdaU = min(res.LambdaU, total+sc.topKSum(cov, k))
		}
		best, gain := sc.argmax(cov)
		if best < 0 {
			break
		}
		sc.chosen[best] = sc.epoch
		res.Seeds = append(res.Seeds, best)
		total += gain
		update(best)
		res.PrefixCoverage = append(res.PrefixCoverage, total)
	}
	res.Coverage = total

	if mode != boundsNone {
		// Final prefix S_k* contributes both the last eq. (10) candidate and
		// the Leskovec bound Λ1⋄(S°); Λ1(S°) can never exceed the universe.
		final := total + sc.topKSum(cov, k)
		res.LambdaU = min(res.LambdaU, final, universe)
		res.LambdaDiamond = min(final, universe)
		if mode == boundsDiamond {
			res.LambdaU = 0 // not computed in the O(n + Σ|R|) mode
		}
	}
	return res
}

// orderNodes fills sc.order with the nodes sorted by descending cov — the
// run's initial marginals cov₀ — ties by ascending id, and sc.cov0 with
// the matching values, by an O(n + max cov₀) counting sort. Coverage is
// submodular, so every later marginal satisfies cov_i[v] ≤ cov₀[v]: the
// order lets argmax and topKSum stop once cov₀ rules the rest out.
func (sc *Scratch) orderNodes(cov []int64) {
	var hi int64
	for _, c := range cov {
		hi = max(hi, c)
	}
	// bucket[hi-c] counts, then locates, the nodes of marginal c.
	sc.bucket = slices.Grow(sc.bucket[:0], int(hi)+1)[:hi+1]
	bucket := sc.bucket
	clear(bucket)
	for _, c := range cov {
		bucket[hi-c]++
	}
	var pos int32
	for i, b := range bucket {
		bucket[i] = pos
		pos += b
	}
	order, cov0 := sc.order[:len(cov)], sc.cov0[:len(cov)]
	for v, c := range cov {
		j := bucket[hi-c]
		bucket[hi-c]++
		order[j], cov0[j] = int32(v), c
	}
}

// argmax returns the unchosen node of largest marginal, smallest id on
// ties, and its marginal; best is -1 when every node is chosen. It scans
// in cov₀ order and stops at the first node whose cov₀ can neither beat
// the best so far nor tie it with a smaller id (ids ascend within a cov₀
// bucket), so it agrees with a full scan of all n nodes.
func (sc *Scratch) argmax(cov []int64) (best int32, bestCov int64) {
	best, bestCov = -1, -1
	chosen, epoch, cov0 := sc.chosen, sc.epoch, sc.cov0
	for j, v := range sc.order[:len(cov)] {
		if c0 := cov0[j]; c0 < bestCov || c0 == bestCov && v > best {
			break
		}
		if chosen[v] == epoch {
			continue
		}
		if c := cov[v]; c > bestCov || c == bestCov && v < best {
			best, bestCov = v, c
		}
	}
	return best, bestCov
}

// topKSum returns the sum of the k largest marginals in cov — the maxMC
// term of eq. (10). It keeps a size-k min-heap over the cov₀ order and
// stops once the heap is full and cov₀ cannot beat its minimum; the sum
// does not depend on how ties fall. k ≥ len(cov) sums everything.
func (sc *Scratch) topKSum(cov []int64, k int) int64 {
	var sum int64
	if k <= 0 {
		return 0
	}
	if k >= len(cov) {
		for _, c := range cov {
			sum += c
		}
		return sum
	}
	order, cov0 := sc.order[:len(cov)], sc.cov0[:len(cov)]
	h := sc.heap[:0]
	for _, v := range order[:k] {
		h = append(h, cov[v])
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for j := k; j < len(order) && cov0[j] > h[0]; j++ {
		if c := cov[order[j]]; c > h[0] {
			h[0] = c
			siftDown(h, 0)
		}
	}
	sc.heap = h
	for _, c := range h {
		sum += c
	}
	return sum
}

// siftDown restores the min-heap property of h below index i.
func siftDown(h []int64, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}
