package maxcover

import (
	"math/bits"

	"github.com/reprolab/opim/internal/rrset"
)

// Packed-bitset coverage kernel. On dense RR collections — sets that each
// touch a large fraction of the nodes — the counting greedy's marginal
// maintenance is Σ|R| scattered read-modify-writes over the cov array. This
// kernel instead materializes per-node RR membership as packed bitset rows
// (one bit per RR-set id) and performs marginal updates word-parallel:
// selecting a node computes the newly-covered word deltas
// D = row[best] AND uncovered once, then every node's marginal drops by
// popcount(row[v] AND D), 64 sets per instruction, touching only the words
// where D is nonzero. Dense collections saturate coverage after a handful
// of selections, so the per-round nonzero-delta region collapses quickly
// and total update work is far below Σ|R|.
//
// The row matrix is cached on the Scratch and keyed on the collection:
// when the same collection comes back grown (the session-snapshot and
// OPIM-C-round pattern — Collections are append-only), only the new sets
// are encoded, so across a session's lifetime the build does O(total Σ|R|)
// work once rather than per snapshot. A different collection, node count,
// or a word-stride overflow triggers a full rebuild.
//
// The kernel is selection-identical to the counting greedy by construction:
// both maintain the exact marginal vector cov[v] = Λ1(v|S_i*) at every
// prefix (the bitset path derives the same integer decrements via
// popcounts), and the shared greedy loop — argmax with its smallest-id
// tie-break, and the §5 bound traces (PrefixCoverage, Λ1ᵘ via topKSum,
// Λ1⋄) — runs on those identical cov arrays. TestKernelsIdenticalProperty
// pins Result equality across models, densities and k.

// Kernel selects the marginal-coverage engine behind the greedy.
type Kernel int

const (
	// KernelAuto picks per run via ChooseKernel (the default).
	KernelAuto Kernel = iota
	// KernelCounting forces the counting greedy (O(Σ|R|) walks).
	KernelCounting
	// KernelBitset forces the packed-bitset word-parallel kernel.
	KernelBitset
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelCounting:
		return "counting"
	case KernelBitset:
		return "bitset"
	}
	return "unknown"
}

// BitsetMaxBytes caps the packed row matrix (n rows × row stride words).
// Beyond it ChooseKernel always answers KernelCounting, so huge sparse
// instances never trade their working set for a quadratic bitmap.
const BitsetMaxBytes = 256 << 20

// bitsetCostRatio is the measured steady-state advantage of one sequential
// 64-bit popcount word op over one scattered counting update (a
// data-dependent cov[w]-- through the inverted index), folding in how
// coverage saturation shrinks the per-round nonzero-delta region on dense
// inputs. Calibrated against BenchmarkGreedyKernels* sweeps — see
// docs/PERFORMANCE.md, "Measuring the density threshold".
const bitsetCostRatio = 4

// ChooseKernel reports which kernel KernelAuto resolves to for a greedy
// run over c with seed-set size k. The rule compares steady-state
// selection cost — (k+1) marginal-update passes of n·words sequential
// word operations against the counting walk's Σ|R| scattered updates at
// the measured cost ratio — and requires the row matrix to fit
// BitsetMaxBytes. Equivalently, the collection's density Σ|R|/(n·count)
// must exceed ≈ (k+1)/(64·bitsetCostRatio).
//
// The rule deliberately ignores the one-time row build (O(Σ|R|), amortized
// across a session's snapshots by the Scratch row cache): a one-shot caller
// on a dense instance pays it once, repeated callers — the hot path — do
// not. See docs/PERFORMANCE.md for the measurement behind the constant.
func ChooseKernel(c *rrset.Collection, k int) Kernel {
	n := int64(c.N())
	count := int64(c.Count())
	if n == 0 || count == 0 || k <= 0 {
		return KernelCounting
	}
	words := (count + 63) / 64
	if n*nextPow2(words) > BitsetMaxBytes/8 {
		return KernelCounting
	}
	updateOps := (int64(k) + 1) * n * words
	countingOps := c.TotalSize()
	if updateOps < countingOps*bitsetCostRatio {
		return KernelBitset
	}
	return KernelCounting
}

// SetKernel fixes the kernel used by this Scratch's Greedy* methods.
// KernelAuto (the default) re-evaluates ChooseKernel on every run, which is
// what long-lived sessions want as their collections grow and densify;
// explicit values exist for tests, ablations and benchmarks.
func (sc *Scratch) SetKernel(k Kernel) { sc.kernel = k }

// nextPow2 rounds v up to a power of two (row-stride planning: a stride
// with slack means collection growth extends rows in place instead of
// relayouting the whole matrix).
func nextPow2(v int64) int64 {
	p := int64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// prepareRows brings sc.rows in sync with c: bit id of row v ⇔ set id
// contains v. If the cached matrix already mirrors a prefix of this exact
// collection (same pointer, same n, stride still fits — Collections are
// append-only, so a grown same-pointer collection is a strict superset),
// only sets [cached, count) are encoded; otherwise the matrix is rebuilt
// from the inverted index, row by row so each row's writes stay in cache.
func (sc *Scratch) prepareRows(c *rrset.Collection, n, count, words int) {
	if sc.rowsC == c && sc.rowsN == n && words <= sc.stride && count >= sc.rowsCount {
		stride := sc.stride
		rows := sc.rows
		for id := sc.rowsCount; id < count; id++ {
			w := int(uint(id) >> 6)
			bit := uint64(1) << (uint(id) & 63)
			for _, v := range c.Set(int32(id)) {
				rows[int(v)*stride+w] |= bit
			}
		}
		sc.rowsCount = count
		return
	}
	stride := int(nextPow2(int64(words)))
	need := n * stride
	if cap(sc.rows) < need {
		sc.rows = make([]uint64, need)
	} else {
		sc.rows = sc.rows[:need]
		clear(sc.rows)
	}
	rows := sc.rows
	for v := 0; v < n; v++ {
		row := rows[v*stride : v*stride+words]
		for _, id := range c.SetsCoveringShared(int32(v)) {
			row[id>>6] |= uint64(1) << (uint(id) & 63)
		}
	}
	sc.rowsC, sc.rowsN, sc.rowsCount, sc.stride = c, n, count, stride
}

// resetBitset sizes the uncovered bitset (all count bits set) and the
// delta buffers for one run.
func (sc *Scratch) resetBitset(count, words int) {
	if cap(sc.uncov) < words {
		sc.uncov = make([]uint64, words)
		sc.dbuf = make([]uint64, words)
		sc.dnz = make([]int32, 0, words)
	}
	sc.uncov = sc.uncov[:words]
	sc.dbuf = sc.dbuf[:words]
	for w := range sc.uncov {
		sc.uncov[w] = ^uint64(0)
	}
	if tail := uint(count) & 63; tail != 0 {
		sc.uncov[words-1] = (uint64(1) << tail) - 1
	}
}

// runBitset is run() on the packed-bitset kernel: the same cov
// initialization and the same shared greedy loop, with only the marginal
// update after each selection replaced.
func (sc *Scratch) runBitset(c *rrset.Collection, k int, mode boundsMode) *Result {
	n := int(c.N())
	count := c.Count()
	sc.reset(n, count)
	words := (count + 63) / 64
	sc.prepareRows(c, n, count, words)
	sc.resetBitset(count, words)
	rows, stride, uncov := sc.rows, sc.stride, sc.uncov

	// cov[v] = Λ1(v | S_i*), exactly as in the counting path.
	cov := sc.cov[:n]
	for v := range cov {
		cov[v] = int64(c.Degree(int32(v)))
	}

	return sc.greedy(cov, clampK(k, n), mode, int64(count), func(best int32) {
		// D = row[best] AND uncovered: the newly covered sets, as word
		// deltas. Clear them from uncovered and remember the nonzero words
		// so the marginal update skips silent regions.
		row := rows[int(best)*stride : int(best)*stride+words]
		dnz := sc.dnz[:0]
		dbuf := sc.dbuf
		for w := 0; w < words; w++ {
			if d := row[w] & uncov[w]; d != 0 {
				dbuf[w] = d
				uncov[w] &^= d
				dnz = append(dnz, int32(w))
			}
		}
		sc.dnz = dnz

		// Word-parallel marginal update: cov[v] -= |row[v] ∩ D|. This is
		// the same integer the counting walk subtracts one decrement at a
		// time (each newly covered set containing v lowers its marginal by
		// exactly one), so cov stays byte-identical between kernels — which
		// also keeps the bound traces identical.
		if len(dnz) > 0 {
			for v, base := 0, 0; v < n; v, base = v+1, base+stride {
				vrow := rows[base : base+words : base+words]
				var dec int
				for _, w := range dnz {
					dec += bits.OnesCount64(vrow[w] & dbuf[w])
				}
				cov[v] -= int64(dec)
			}
		}
	})
}
