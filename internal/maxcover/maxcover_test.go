package maxcover

import (
	"math"
	"sort"
	"testing"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
)

// collect builds a Collection over n nodes from explicit sets.
func collect(n int32, sets [][]int32) *rrset.Collection {
	c := rrset.NewCollection(n)
	for _, s := range sets {
		c.Add(s, 0)
	}
	return c
}

func TestGreedyPicksLargestFirst(t *testing.T) {
	c := collect(4, [][]int32{{0, 1}, {0}, {1, 2}, {3}})
	r := Greedy(c, 2)
	if len(r.Seeds) != 2 {
		t.Fatalf("seeds = %v", r.Seeds)
	}
	if r.Seeds[0] != 0 { // node 0 covers 2 sets
		t.Fatalf("first seed = %d, want 0", r.Seeds[0])
	}
	// After covering {0,1} and {0}, marginals: 1→1 (set {1,2}), 2→1, 3→1.
	// Smallest id wins the tie.
	if r.Seeds[1] != 1 {
		t.Fatalf("second seed = %d, want 1", r.Seeds[1])
	}
	if r.Coverage != 3 {
		t.Fatalf("coverage = %d, want 3", r.Coverage)
	}
}

func TestGreedyPrefixCoverage(t *testing.T) {
	c := collect(3, [][]int32{{0}, {0}, {1}, {2}})
	r := Greedy(c, 3)
	want := []int64{0, 2, 3, 4}
	if len(r.PrefixCoverage) != len(want) {
		t.Fatalf("PrefixCoverage = %v", r.PrefixCoverage)
	}
	for i := range want {
		if r.PrefixCoverage[i] != want[i] {
			t.Fatalf("PrefixCoverage[%d] = %d, want %d", i, r.PrefixCoverage[i], want[i])
		}
	}
	if r.Coverage != r.PrefixCoverage[len(r.PrefixCoverage)-1] {
		t.Fatal("Coverage != last prefix")
	}
}

func TestGreedyKLargerThanN(t *testing.T) {
	c := collect(3, [][]int32{{0}, {1}})
	r := Greedy(c, 10)
	if len(r.Seeds) != 3 {
		t.Fatalf("seeds = %v, want all 3 nodes", r.Seeds)
	}
	if r.Coverage != 2 {
		t.Fatalf("coverage = %d", r.Coverage)
	}
}

func TestGreedyKZero(t *testing.T) {
	c := collect(3, [][]int32{{0}})
	r := Greedy(c, 0)
	if len(r.Seeds) != 0 || r.Coverage != 0 {
		t.Fatalf("k=0 gave %v / %d", r.Seeds, r.Coverage)
	}
	if len(r.PrefixCoverage) != 1 || r.PrefixCoverage[0] != 0 {
		t.Fatalf("PrefixCoverage = %v", r.PrefixCoverage)
	}
}

func TestGreedyEmptyCollection(t *testing.T) {
	c := rrset.NewCollection(5)
	r := Greedy(c, 3)
	if r.Coverage != 0 {
		t.Fatalf("coverage = %d on empty collection", r.Coverage)
	}
	if len(r.Seeds) != 3 {
		// Zero-gain nodes are still selected, matching Algorithm 1 which
		// always returns a size-k set.
		t.Fatalf("seeds = %v, want 3 (zero-marginal) seeds", r.Seeds)
	}
}

func TestGreedyDeterministicTieBreak(t *testing.T) {
	c := collect(4, [][]int32{{2}, {1}, {3}})
	r := Greedy(c, 2)
	if r.Seeds[0] != 1 || r.Seeds[1] != 2 {
		t.Fatalf("tie-break order = %v, want [1 2]", r.Seeds)
	}
}

// bruteForceOpt computes the true optimal coverage over all size-k subsets
// of a tiny universe.
func bruteForceOpt(c *rrset.Collection, k int) int64 {
	n := int(c.N())
	var best int64
	idx := make([]int32, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			if cov := c.Coverage(idx); cov > best {
				best = cov
			}
			return
		}
		for v := start; v < n; v++ {
			idx[depth] = int32(v)
			rec(v+1, depth+1)
		}
	}
	rec(0, 0)
	return best
}

func TestGreedyApproximationOnRandomInstances(t *testing.T) {
	// Λ1(S*) ≥ (1−1/e)·Λ1(S°) on every instance (eq. 6), and the eq. (10)
	// bound sandwiches the true optimum: Λ1(S°) ≤ Λ1ᵘ(S°) ≤ Λ1(S*)/(1−1/e)
	// (Lemmas 5.1 and 5.2).
	src := rng.New(33)
	for trial := 0; trial < 50; trial++ {
		n := int32(4 + src.Intn(5))
		numSets := 1 + src.Intn(12)
		sets := make([][]int32, numSets)
		for i := range sets {
			size := 1 + src.Intn(3)
			seen := map[int32]bool{}
			for len(seen) < size {
				seen[src.Int31n(n)] = true
			}
			for v := range seen {
				sets[i] = append(sets[i], v)
			}
			sort.Slice(sets[i], func(a, b int) bool { return sets[i][a] < sets[i][b] })
		}
		k := 1 + src.Intn(3)
		c := collect(n, sets)
		r := GreedyWithBounds(c, k)
		opt := bruteForceOpt(c, min(k, int(n)))
		if float64(r.Coverage) < (1-1/math.E)*float64(opt)-1e-9 {
			t.Fatalf("trial %d: greedy %d below (1−1/e)·OPT=%v", trial, r.Coverage, float64(opt)*(1-1/math.E))
		}
		if r.LambdaU < opt {
			t.Fatalf("trial %d: Λ1ᵘ = %d < OPT = %d (Lemma 5.1 violated)", trial, r.LambdaU, opt)
		}
		kk := min(k, int(n))
		ub := float64(r.Coverage) / (1 - math.Pow(1-1/float64(kk), float64(kk)))
		if float64(r.LambdaU) > ub+1e-9 {
			t.Fatalf("trial %d: Λ1ᵘ = %d exceeds Λ1(S*)/(1−(1−1/k)^k) = %v (Lemma 5.2 violated)", trial, r.LambdaU, ub)
		}
		if r.LambdaDiamond < r.Coverage {
			t.Fatalf("trial %d: Λ1⋄ = %d below greedy coverage %d", trial, r.LambdaDiamond, r.Coverage)
		}
	}
}

func TestLambdaUAtMostDiamond(t *testing.T) {
	// Λ1ᵘ minimizes over all prefixes including the final one, whose
	// candidate equals Λ1⋄, so Λ1ᵘ ≤ Λ1⋄ always.
	g, _ := gen.PreferentialAttachment(400, 5, 0.1, 3)
	g, _ = graph.Reweight(g, graph.WeightedCascade, 0, 1)
	s := rrset.NewSampler(g, diffusion.IC)
	c := rrset.NewCollection(g.N())
	rrset.Generate(c, s, 2000, rng.New(4), 4)
	r := GreedyWithBounds(c, 10)
	if r.LambdaU > r.LambdaDiamond {
		t.Fatalf("Λ1ᵘ = %d > Λ1⋄ = %d", r.LambdaU, r.LambdaDiamond)
	}
	if !r.HasBounds {
		t.Fatal("HasBounds not set")
	}
}

func TestBoundsCappedByCollectionSize(t *testing.T) {
	c := collect(3, [][]int32{{0}, {1}})
	r := GreedyWithBounds(c, 3)
	if r.LambdaU > int64(c.Count()) {
		t.Fatalf("Λ1ᵘ = %d exceeds |R| = %d", r.LambdaU, c.Count())
	}
	if r.LambdaDiamond > int64(c.Count()) {
		t.Fatalf("Λ1⋄ = %d exceeds |R| = %d", r.LambdaDiamond, c.Count())
	}
}

func TestGreedyMatchesCollectionCoverage(t *testing.T) {
	g, _ := gen.PreferentialAttachment(300, 5, 0.1, 5)
	g, _ = graph.Reweight(g, graph.WeightedCascade, 0, 1)
	s := rrset.NewSampler(g, diffusion.LT)
	c := rrset.NewCollection(g.N())
	rrset.Generate(c, s, 1500, rng.New(6), 4)
	r := Greedy(c, 8)
	if got := c.Coverage(r.Seeds); got != r.Coverage {
		t.Fatalf("greedy reports Λ = %d, Collection.Coverage = %d", r.Coverage, got)
	}
}

func TestGreedyNoDuplicateSeeds(t *testing.T) {
	c := rrset.NewCollection(4) // empty: all marginals zero
	r := Greedy(c, 4)
	seen := map[int32]bool{}
	for _, v := range r.Seeds {
		if seen[v] {
			t.Fatalf("duplicate seed %d in %v", v, r.Seeds)
		}
		seen[v] = true
	}
}

func BenchmarkGreedyK50(b *testing.B) {
	g, _ := gen.PreferentialAttachment(20000, 15, 0.1, 1)
	g, _ = graph.Reweight(g, graph.WeightedCascade, 0, 1)
	s := rrset.NewSampler(g, diffusion.IC)
	c := rrset.NewCollection(g.N())
	rrset.Generate(c, s, 8000, rng.New(2), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(c, 50)
	}
}

func BenchmarkGreedyWithBoundsK50(b *testing.B) {
	g, _ := gen.PreferentialAttachment(20000, 15, 0.1, 1)
	g, _ = graph.Reweight(g, graph.WeightedCascade, 0, 1)
	s := rrset.NewSampler(g, diffusion.IC)
	c := rrset.NewCollection(g.N())
	rrset.Generate(c, s, 8000, rng.New(2), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyWithBounds(c, 50)
	}
}

func TestGreedyWithDiamondMatchesFullBounds(t *testing.T) {
	g, _ := gen.PreferentialAttachment(400, 5, 0.1, 7)
	g, _ = graph.Reweight(g, graph.WeightedCascade, 0, 1)
	s := rrset.NewSampler(g, diffusion.IC)
	c := rrset.NewCollection(g.N())
	rrset.Generate(c, s, 2000, rng.New(8), 4)
	full := GreedyWithBounds(c, 10)
	diamond := GreedyWithDiamond(c, 10)
	if diamond.LambdaDiamond != full.LambdaDiamond {
		t.Fatalf("Λ1⋄ differs: %d vs %d", diamond.LambdaDiamond, full.LambdaDiamond)
	}
	if diamond.Coverage != full.Coverage {
		t.Fatalf("coverage differs: %d vs %d", diamond.Coverage, full.Coverage)
	}
	if diamond.LambdaU != 0 {
		t.Fatalf("diamond mode computed Λ1ᵘ = %d", diamond.LambdaU)
	}
	if !diamond.HasBounds {
		t.Fatal("HasBounds not set in diamond mode")
	}
	for i := range full.Seeds {
		if full.Seeds[i] != diamond.Seeds[i] {
			t.Fatalf("seed %d differs", i)
		}
	}
}
