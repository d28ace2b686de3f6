package maxcover

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
)

// refGreedy is the unpruned greedy the package's early exits must agree
// with: every argmax scans all n nodes (smallest id wins ties) and every
// eq. (10) top-k sum sorts all n marginals. A nil base and mode cover
// Greedy, GreedyWithBounds and GreedyWithDiamond; a base covers the
// GreedyAugment forms, whose bounds are capped by the residual universe.
func refGreedy(c *rrset.Collection, base []int32, k int, mode boundsMode) *Result {
	n, count := int(c.N()), c.Count()
	chosen := make([]bool, n)
	covered := make([]bool, count)
	free := n
	for _, v := range base {
		if !chosen[v] {
			chosen[v] = true
			free--
		}
		for _, id := range c.SetsCoveringShared(v) {
			covered[id] = true
		}
	}
	cov := make([]int64, n)
	for v := range cov {
		for _, id := range c.SetsCoveringShared(int32(v)) {
			if !chosen[v] && !covered[id] {
				cov[v]++
			}
		}
	}
	var universe int64
	for _, done := range covered {
		if !done {
			universe++
		}
	}
	k = max(0, min(k, free))

	res := &Result{Seeds: make([]int32, 0, k), PrefixCoverage: make([]int64, 1, k+1)}
	if mode != boundsNone {
		res.HasBounds = true
		res.LambdaU = int64(1) << 62
	}
	var total int64
	for i := 0; i < k; i++ {
		if mode == boundsAll {
			res.LambdaU = min(res.LambdaU, total+sortedTopKSum(cov, k))
		}
		best, bestCov := -1, int64(-1)
		for v := 0; v < n; v++ {
			if !chosen[v] && cov[v] > bestCov {
				best, bestCov = v, cov[v]
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		res.Seeds = append(res.Seeds, int32(best))
		total += bestCov
		for _, id := range c.SetsCoveringShared(int32(best)) {
			if !covered[id] {
				covered[id] = true
				for _, w := range c.Set(id) {
					cov[w]--
				}
			}
		}
		res.PrefixCoverage = append(res.PrefixCoverage, total)
	}
	res.Coverage = total
	if mode != boundsNone {
		final := total + sortedTopKSum(cov, k)
		res.LambdaU = min(res.LambdaU, final, universe)
		res.LambdaDiamond = min(final, universe)
		if mode == boundsDiamond {
			res.LambdaU = 0
		}
	}
	return res
}

// sortedTopKSum sums the k largest values by sorting a copy.
func sortedTopKSum(vals []int64, k int) int64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	var sum int64
	for i := 0; i < k && i < len(s); i++ {
		sum += s[len(s)-1-i]
	}
	return sum
}

// tiedCollection builds count sets over n nodes drawn from a random pool
// of `active` nodes, so the other n−active nodes form an all-zero tail
// scattered among small ids, and small set sizes over a small pool make
// many nodes share each degree.
func tiedCollection(r *rand.Rand, n int32, active, count int) *rrset.Collection {
	pool := r.Perm(int(n))[:active]
	c := rrset.NewCollection(n)
	for i := 0; i < count; i++ {
		set := map[int32]bool{}
		for size := 1 + r.Intn(3); len(set) < min(size, active); {
			set[int32(pool[r.Intn(active)])] = true
		}
		nodes := make([]int32, 0, len(set))
		for v := range set {
			nodes = append(nodes, v)
		}
		slices.Sort(nodes)
		c.Add(nodes, 0)
	}
	return c
}

type entryPoint struct {
	name string
	run  func(sc *Scratch, c *rrset.Collection, base []int32, k int) *Result
	mode boundsMode
	aug  bool
}

var entryPoints = []entryPoint{
	{"Greedy", func(sc *Scratch, c *rrset.Collection, _ []int32, k int) *Result { return sc.Greedy(c, k) }, boundsNone, false},
	{"GreedyWithBounds", func(sc *Scratch, c *rrset.Collection, _ []int32, k int) *Result { return sc.GreedyWithBounds(c, k) }, boundsAll, false},
	{"GreedyWithDiamond", func(sc *Scratch, c *rrset.Collection, _ []int32, k int) *Result { return sc.GreedyWithDiamond(c, k) }, boundsDiamond, false},
	{"GreedyAugment", (*Scratch).GreedyAugment, boundsNone, true},
	{"GreedyAugmentWithBounds", (*Scratch).GreedyAugmentWithBounds, boundsAll, true},
}

// requireMatchesReference runs all five entry points through each of the
// given scratches and compares every Result with refGreedy.
func requireMatchesReference(t *testing.T, ctx string, scratches []*Scratch, c *rrset.Collection, base []int32, k int) {
	t.Helper()
	for _, ep := range entryPoints {
		b := []int32(nil)
		if ep.aug {
			b = base
		}
		want := refGreedy(c, b, k, ep.mode)
		for _, sc := range scratches {
			if got := ep.run(sc, c, b, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s kernel=%v: pruned selection diverged\n got %+v\nwant %+v",
					ctx, ep.name, sc.kernel, got, want)
			}
		}
	}
}

func forcedScratches() []*Scratch {
	counting, bitset := NewScratch(), NewScratch()
	counting.SetKernel(KernelCounting)
	bitset.SetKernel(KernelBitset)
	return []*Scratch{counting, bitset}
}

// TestPrunedSelectionMatchesReference pins the early exits of argmax and
// topKSum against the unpruned algorithm on every entry point under both
// forced kernels. TestKernelsIdenticalProperty cannot catch a pruning bug
// on its own, since both kernels share the pruned loop.
func TestPrunedSelectionMatchesReference(t *testing.T) {
	scratches := forcedScratches()
	r := rand.New(rand.NewSource(12))

	t.Run("ties-and-zero-tails", func(t *testing.T) {
		for trial := 0; trial < 60; trial++ {
			n := int32(1 + r.Intn(70))
			active := 1 + r.Intn(int(n))
			c := tiedCollection(r, n, active, r.Intn(150))
			base := []int32{int32(r.Intn(int(n))), int32(r.Intn(int(n))), int32(r.Intn(int(n)))}
			for _, k := range []int{0, 1, 3, int(n) - 1, int(n), int(n) + 1} {
				ctx := fmt.Sprintf("trial=%d n=%d active=%d count=%d k=%d", trial, n, active, c.Count(), k)
				requireMatchesReference(t, ctx, scratches, c, base, k)
			}
		}
	})

	g, err := gen.PreferentialAttachment(300, 6, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.Reweight(g, graph.WeightedCascade, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := int(g.N())
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		t.Run("sampled-"+model.String(), func(t *testing.T) {
			s := rrset.NewSampler(g, model)
			c := rrset.NewCollection(g.N())
			rrset.Generate(c, s, 3000, rng.New(3), 2)
			for _, k := range []int{0, 1, 10, 50, n - 1, n, n + 1} {
				requireMatchesReference(t, fmt.Sprintf("k=%d", k), scratches, c, []int32{0, 5, 5}, k)
			}
		})
	}

	// One scratch pair across a growing collection: the bitset kernel
	// extends its cached rows in place, and every order, bucket and heap
	// buffer is reused at a new size.
	t.Run("grown-collection-same-scratch", func(t *testing.T) {
		s := rrset.NewSampler(g, diffusion.IC)
		c := rrset.NewCollection(g.N())
		grown := forcedScratches()
		for _, add := range []int{100, 400, 1500} {
			rrset.Generate(c, s, add, rng.New(uint64(add)), 2)
			for _, k := range []int{1, 10, 50} {
				requireMatchesReference(t, fmt.Sprintf("count=%d k=%d", c.Count(), k), grown, c, []int32{1, 2}, k)
			}
		}
	})
}

// topKSumOf runs Scratch.topKSum over cov with the node order built from
// cov0, which must dominate cov pointwise as submodularity guarantees.
func topKSumOf(cov0, cov []int64, k int) int64 {
	sc := NewScratch()
	sc.reset(len(cov0), 0)
	sc.orderNodes(cov0)
	return sc.topKSum(cov, k)
}

// decayed lowers each cov0 value by a pseudo-random amount, never below 0.
func decayed(cov0 []int64, dec []uint8) []int64 {
	cov := slices.Clone(cov0)
	for i := range cov {
		if i < len(dec) {
			cov[i] -= min(cov[i], int64(dec[i]%8))
		}
	}
	return cov
}

func TestTopKSumAgainstSort(t *testing.T) {
	f := func(raw []uint8, dec []uint8, kRaw uint8) bool {
		cov0 := make([]int64, len(raw))
		for i, r := range raw {
			cov0[i] = int64(r % 24) // few distinct values: heavy ties
		}
		cov := decayed(cov0, dec)
		k := int(kRaw%16) + 1
		return topKSumOf(cov0, cov, k) == sortedTopKSum(cov, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKSumEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		cov0, cov []int64
		k         int
		want      int64
	}{
		{nil, nil, 3, 0},
		{[]int64{5, 2, 9}, []int64{5, 2, 9}, 0, 0},
		{[]int64{5, 2, 9}, []int64{5, 2, 9}, 10, 16},
		{[]int64{7, 7, 7, 7}, []int64{7, 7, 7, 7}, 2, 14},
		// The largest cov₀ decayed to nothing; the scan must go past it.
		{[]int64{9, 8, 7, 1}, []int64{0, 8, 2, 1}, 2, 10},
		{[]int64{0, 0, 0, 0}, []int64{0, 0, 0, 0}, 2, 0},
	} {
		if got := topKSumOf(tc.cov0, tc.cov, tc.k); got != tc.want {
			t.Errorf("topKSum(cov0=%v, cov=%v, k=%d) = %d, want %d", tc.cov0, tc.cov, tc.k, got, tc.want)
		}
	}
}

// TestArgmaxAgainstScan checks the early-exit argmax against a full scan
// with smallest-id ties, over decayed marginals and random chosen marks.
func TestArgmaxAgainstScan(t *testing.T) {
	f := func(raw, dec []uint8, chosenMask uint64) bool {
		cov0 := make([]int64, len(raw))
		for i, r := range raw {
			cov0[i] = int64(r % 24)
		}
		cov := decayed(cov0, dec)
		sc := NewScratch()
		sc.reset(len(cov0), 0)
		sc.orderNodes(cov0)
		want, wantCov := int32(-1), int64(-1)
		for v := range cov {
			if v < 64 && chosenMask&(1<<v) != 0 {
				sc.chosen[v] = sc.epoch
				continue
			}
			if cov[v] > wantCov {
				want, wantCov = int32(v), cov[v]
			}
		}
		got, gotCov := sc.argmax(cov)
		return got == want && gotCov == wantCov
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
