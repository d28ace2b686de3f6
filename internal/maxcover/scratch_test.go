package maxcover

import (
	"reflect"
	"testing"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
)

// TestScratchReuseMatchesFresh runs every selection variant through one
// reused Scratch across collections of different shapes and sizes — the
// OPIM-C doubling-round usage pattern — and requires results identical to a
// fresh package-level call every time. This pins the epoch-marked flag
// reuse: a stale covered/chosen mark or an unzeroed cov entry from a
// previous round would change a selection.
func TestScratchReuseMatchesFresh(t *testing.T) {
	g, err := gen.PreferentialAttachment(300, 5, 0.1, 21)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.Reweight(g, graph.WeightedCascade, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := rrset.NewSampler(g, diffusion.IC)

	variants := []struct {
		name  string
		fresh func(c *rrset.Collection, k int) *Result
		reuse func(sc *Scratch, c *rrset.Collection, k int) *Result
	}{
		{"Greedy", Greedy, (*Scratch).Greedy},
		{"GreedyWithBounds", GreedyWithBounds, (*Scratch).GreedyWithBounds},
		{"GreedyWithDiamond", GreedyWithDiamond, (*Scratch).GreedyWithDiamond},
		{"GreedyAugment", func(c *rrset.Collection, k int) *Result {
			return GreedyAugment(c, []int32{0, 17, 42}, k)
		}, func(sc *Scratch, c *rrset.Collection, k int) *Result {
			return sc.GreedyAugment(c, []int32{0, 17, 42}, k)
		}},
		{"GreedyAugmentWithBounds", func(c *rrset.Collection, k int) *Result {
			return GreedyAugmentWithBounds(c, []int32{0, 17, 42}, k)
		}, func(sc *Scratch, c *rrset.Collection, k int) *Result {
			return sc.GreedyAugmentWithBounds(c, []int32{0, 17, 42}, k)
		}},
	}

	sc := NewScratch() // ONE scratch across all variants, rounds and sizes
	base := rng.New(5)
	c := rrset.NewCollection(g.N())
	for round, add := range []int{80, 200, 400} { // grows the set universe
		rrset.Generate(c, s, add, base, 2)
		for _, k := range []int{1, 3, 10} {
			for _, v := range variants {
				want := v.fresh(c, k)
				got := v.reuse(sc, c, k)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("round %d k=%d %s: reused scratch diverged\n got %+v\nwant %+v",
						round, k, v.name, got, want)
				}
			}
		}
	}
}
