package maxcover

import "github.com/reprolab/opim/internal/rrset"

// GreedyAugment runs Algorithm 1 on the RESIDUAL coverage function given a
// base seed set that is already committed: it returns the k nodes that
// greedily maximize Λ(base ∪ S) − Λ(base). The residual of a monotone
// submodular function is itself monotone submodular, so the (1−1/e)
// guarantee — and therefore the whole OPIM bound machinery — applies to
// the augmentation problem unchanged. This is the "grow an existing
// campaign" workflow: the base nodes are excluded from selection and their
// covered RR sets contribute nothing to marginals.
//
// The returned Result's Coverage and bound fields are all with respect to
// the residual function; PrefixCoverage[0] = 0 still.
func GreedyAugment(c *rrset.Collection, base []int32, k int) *Result {
	return NewScratch().GreedyAugment(c, base, k)
}

// GreedyAugmentWithBounds additionally computes the residual-function
// versions of Λ1ᵘ (eq. 10) and Λ1⋄.
func GreedyAugmentWithBounds(c *rrset.Collection, base []int32, k int) *Result {
	return NewScratch().GreedyAugmentWithBounds(c, base, k)
}

// GreedyAugment is the scratch-reusing form of the package-level
// GreedyAugment.
func (sc *Scratch) GreedyAugment(c *rrset.Collection, base []int32, k int) *Result {
	return sc.runAugment(c, base, k, boundsNone)
}

// GreedyAugmentWithBounds is the scratch-reusing form of
// GreedyAugmentWithBounds.
func (sc *Scratch) GreedyAugmentWithBounds(c *rrset.Collection, base []int32, k int) *Result {
	return sc.runAugment(c, base, k, boundsAll)
}

func (sc *Scratch) runAugment(c *rrset.Collection, base []int32, k int, mode boundsMode) *Result {
	n := int(c.N())
	count := c.Count()
	sc.reset(n, count)

	// Commit the base: mark its sets covered and its nodes unselectable.
	free := n
	for _, v := range base {
		if sc.chosen[v] != sc.epoch {
			sc.chosen[v] = sc.epoch
			free--
		}
		for _, id := range c.SetsCoveringShared(v) {
			sc.covered[id] = sc.epoch
		}
	}

	// cov[v] = residual marginal coverage of v; these are the cov₀ the
	// shared loop orders by.
	cov := sc.cov[:n]
	for v := range cov {
		cov[v] = 0
		if sc.chosen[v] == sc.epoch {
			continue
		}
		for _, id := range c.SetsCoveringShared(int32(v)) {
			if sc.covered[id] != sc.epoch {
				cov[v]++
			}
		}
	}

	residualUniverse := int64(0)
	for id := 0; id < count; id++ {
		if sc.covered[id] != sc.epoch {
			residualUniverse++
		}
	}
	return sc.greedy(cov, clampK(k, free), mode, residualUniverse, func(best int32) {
		sc.coverCounting(c, best, cov)
	})
}
