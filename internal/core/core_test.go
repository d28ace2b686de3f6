package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/reprolab/opim/internal/bound"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/gen"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
)

// testGraph returns a mid-sized heavy-tailed WC-weighted graph.
func testGraph(t testing.TB, n int32, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.PreferentialAttachment(n, 8, 0.15, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.Reweight(g, graph.WeightedCascade, 0, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOptionsValidation(t *testing.T) {
	g := testGraph(t, 100, 1)
	s := rrset.NewSampler(g, diffusion.IC)
	bad := []Options{
		{K: 0, Delta: 0.1},
		{K: 101, Delta: 0.1},
		{K: 5, Delta: 0},
		{K: 5, Delta: 1},
		{K: 5, Delta: 0.1, Variant: Variant(9)},
	}
	for i, o := range bad {
		if _, err := NewOnline(s, o); err == nil {
			t.Errorf("options %d accepted: %+v", i, o)
		}
	}
	if _, err := NewOnline(s, Options{K: 5, Delta: 0.1}); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// TestOptionsValidateBaseSeeds table-tests the base-seed rejections that
// used to slip through: duplicate members and K + |B| > n (selection picks
// K nodes disjoint from the base, so the graph cannot satisfy it).
func TestOptionsValidateBaseSeeds(t *testing.T) {
	g := testGraph(t, 100, 1) // n = 100
	s := rrset.NewSampler(g, diffusion.IC)
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{
			name: "duplicate base seed",
			opts: Options{K: 5, Delta: 0.1, Variant: Plus, BaseSeeds: []int32{3, 7, 3}},
			want: "core: duplicate base seed 3",
		},
		{
			name: "k plus base exceeds n",
			opts: Options{K: 99, Delta: 0.1, Variant: Plus, BaseSeeds: []int32{0, 1, 2}},
			want: "core: k + len(BaseSeeds) = 102 exceeds n = 100",
		},
		{
			name: "out of range base seed",
			opts: Options{K: 5, Delta: 0.1, Variant: Plus, BaseSeeds: []int32{100}},
			want: "core: base seed 100 outside [0, n=100)",
		},
		{
			name: "prime with base seeds",
			opts: Options{K: 5, Delta: 0.1, Variant: Prime, BaseSeeds: []int32{1}},
			want: "core: the Prime variant does not support BaseSeeds; use Plus or Vanilla",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewOnline(s, c.opts)
			if err == nil {
				t.Fatalf("options accepted: %+v", c.opts)
			}
			if err.Error() != c.want {
				t.Fatalf("error = %q, want %q", err, c.want)
			}
		})
	}
	// The boundary case K + |B| = n stays valid.
	if _, err := NewOnline(s, Options{K: 97, Delta: 0.1, Variant: Plus, BaseSeeds: []int32{0, 1, 2}}); err != nil {
		t.Fatalf("K+|B| = n rejected: %v", err)
	}
}

func TestOnlineAdvanceSplitsEvenly(t *testing.T) {
	g := testGraph(t, 200, 2)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 3, Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(101)
	if o.NumRR() != 101 {
		t.Fatalf("NumRR = %d", o.NumRR())
	}
	snap := o.Snapshot()
	if snap.Theta1 != 51 || snap.Theta2 != 50 {
		t.Fatalf("θ1=%d θ2=%d, want 51/50", snap.Theta1, snap.Theta2)
	}
	o.AdvanceTo(1000)
	if o.NumRR() != 1000 {
		t.Fatalf("AdvanceTo: NumRR = %d", o.NumRR())
	}
	o.AdvanceTo(500) // no-op backwards
	if o.NumRR() != 1000 {
		t.Fatal("AdvanceTo shrank the session")
	}
	if o.EdgesExamined() <= 0 {
		t.Fatal("EdgesExamined not tracked")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	g := testGraph(t, 500, 3)
	s := rrset.NewSampler(g, diffusion.LT)
	mk := func() *Snapshot {
		o, err := NewOnline(s, Options{K: 10, Delta: 0.01, Variant: Plus, Seed: 77, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		o.Advance(2000)
		return o.Snapshot()
	}
	a, b := mk(), mk()
	if a.Alpha != b.Alpha || a.SigmaLower != b.SigmaLower || a.SigmaUpper != b.SigmaUpper {
		t.Fatalf("snapshots differ: %v vs %v", a, b)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seed %d differs", i)
		}
	}
}

func TestAlphaImprovesWithSamples(t *testing.T) {
	g := testGraph(t, 2000, 4)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 20, Delta: 0.01, Variant: Plus, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(500)
	first := o.Snapshot().Alpha
	o.AdvanceTo(32000)
	last := o.Snapshot().Alpha
	if last <= first {
		t.Fatalf("α did not improve: %v → %v", first, last)
	}
	if last <= 0.5 {
		t.Fatalf("α = %v after 32k RR sets, expected a tight guarantee", last)
	}
	if last > 1 {
		t.Fatalf("α = %v > 1", last)
	}
}

func TestPlusNeverWorseThanVanilla(t *testing.T) {
	// Lemma 5.2: Λ1ᵘ(S°) ≤ Λ1(S*)/(1−1/e), so with identical collections
	// OPIM⁺'s α is ≥ OPIM⁰'s.
	g := testGraph(t, 1000, 6)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := rrset.NewSampler(g, model)
		run := func(v Variant) float64 {
			o, err := NewOnline(s, Options{K: 10, Delta: 0.01, Variant: v, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			o.Advance(4000)
			return o.Snapshot().Alpha
		}
		van, plus := run(Vanilla), run(Plus)
		if plus < van {
			t.Fatalf("%v: OPIM⁺ α=%v below OPIM⁰ α=%v", model, plus, van)
		}
	}
}

func TestSigmaLowerBelowTrueSpread(t *testing.T) {
	// With probability ≥ 1−δ2, σˡ(S*) ≤ σ(S*); verify against Monte-Carlo.
	g := testGraph(t, 800, 8)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 5, Delta: 0.001, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(8000)
	snap := o.Snapshot()
	mc := diffusion.EstimateSpread(g, diffusion.IC, snap.Seeds, 20000, 10, 0)
	if snap.SigmaLower > mc.Spread+4*mc.StdErr {
		t.Fatalf("σˡ = %v above true spread %v", snap.SigmaLower, mc)
	}
	// And σᵘ must upper-bound σ(S*) too (σ(S*) ≤ σ(S°) ≤ σᵘ).
	if snap.SigmaUpper < mc.Spread-4*mc.StdErr {
		t.Fatalf("σᵘ = %v below achieved spread %v", snap.SigmaUpper, mc)
	}
}

func TestStarPicksHub(t *testing.T) {
	g, err := gen.Star(500, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 1, Delta: 0.01, Variant: Plus, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(20000)
	snap := o.Snapshot()
	if snap.Seeds[0] != 0 {
		t.Fatalf("seed = %d, want hub 0", snap.Seeds[0])
	}
	// True σ(S°) = 1 + 499·0.2 = 100.8; bounds must bracket it.
	if snap.SigmaLower > 100.8*1.05 {
		t.Fatalf("σˡ = %v above σ(S°)", snap.SigmaLower)
	}
	if snap.SigmaUpper < 100.8*0.95 {
		t.Fatalf("σᵘ = %v below σ(S°)", snap.SigmaUpper)
	}
}

func TestUnionBudgetSchedule(t *testing.T) {
	g := testGraph(t, 300, 12)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 5, Delta: 0.08, UnionBudget: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(1000)
	s1 := o.Snapshot()
	s2 := o.Snapshot()
	if math.Abs(s1.DeltaSpent-0.04) > 1e-12 {
		t.Fatalf("first query spent %v, want δ/2", s1.DeltaSpent)
	}
	if math.Abs(s2.DeltaSpent-0.02) > 1e-12 {
		t.Fatalf("second query spent %v, want δ/4", s2.DeltaSpent)
	}
	// Tighter budget ⇒ weaker or equal guarantee on the same data.
	if s2.Alpha > s1.Alpha {
		t.Fatalf("α grew despite shrinking budget: %v → %v", s1.Alpha, s2.Alpha)
	}
	// Without UnionBudget each query spends δ.
	o2, _ := NewOnline(s, Options{K: 5, Delta: 0.08, Seed: 13})
	o2.Advance(1000)
	if got := o2.Snapshot().DeltaSpent; got != 0.08 {
		t.Fatalf("plain session spent %v, want δ", got)
	}
}

func TestVariantString(t *testing.T) {
	cases := map[Variant]string{Vanilla: "OPIM0", Plus: "OPIM+", Prime: "OPIM'", Variant(7): "Variant(7)"}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(v), got, want)
		}
	}
}

func TestSnapshotString(t *testing.T) {
	g := testGraph(t, 100, 14)
	s := rrset.NewSampler(g, diffusion.IC)
	o, _ := NewOnline(s, Options{K: 2, Delta: 0.1})
	o.Advance(100)
	if str := o.Snapshot().String(); str == "" {
		t.Fatal("empty snapshot string")
	}
}

func TestMaximizeBasic(t *testing.T) {
	g := testGraph(t, 1000, 15)
	s := rrset.NewSampler(g, diffusion.IC)
	res, err := Maximize(s, 10, 0.3, 0.05, Options{Variant: Plus, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 10 {
		t.Fatalf("returned %d seeds", len(res.Seeds))
	}
	if res.Rounds < 1 || res.Rounds > res.MaxRounds {
		t.Fatalf("rounds = %d / %d", res.Rounds, res.MaxRounds)
	}
	if res.Certified && res.Alpha < res.Target {
		t.Fatalf("certified but α=%v < target=%v", res.Alpha, res.Target)
	}
	if res.RRGenerated != res.Theta1+res.Theta2 {
		t.Fatal("RRGenerated inconsistent")
	}
}

func TestMaximizeQualityVsGreedyOracle(t *testing.T) {
	// On a star, OPIM-C must pick the hub and its spread equals the optimum.
	g, err := gen.Star(300, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s := rrset.NewSampler(g, diffusion.IC)
	res, err := Maximize(s, 1, 0.2, 0.05, Options{Variant: Plus, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 0 {
		t.Fatalf("OPIM-C picked %d, want hub", res.Seeds[0])
	}
}

func TestMaximizeSpreadNearOptimal(t *testing.T) {
	// The certified guarantee must hold against the best spread we can find.
	g := testGraph(t, 1500, 18)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := rrset.NewSampler(g, model)
		res, err := Maximize(s, 20, 0.1, 0.01, Options{Variant: Plus, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		got := diffusion.EstimateSpread(g, model, res.Seeds, 20000, 20, 0)
		// σ(S*) ≥ α·σ(S°) ≥ α·σᵘ⁻¹… we can't know σ(S°), but σᵘ is a valid
		// upper bound with prob 1−δ, so check σ(S*) ≥ Target·true-optimum
		// proxy: compare against the spread of OPIM-C's own upper bound.
		if got.Spread < res.Target*res.SigmaLower {
			t.Fatalf("%v: spread %v below target×σˡ", model, got)
		}
		if got.Spread+4*got.StdErr < res.SigmaLower {
			t.Fatalf("%v: measured spread %v below certified lower bound %v", model, got, res.SigmaLower)
		}
	}
}

func TestMaximizePlusNoMoreRRThanVanilla(t *testing.T) {
	// The tightened bound can only certify earlier (Lemma 5.2), so OPIM-C⁺
	// never generates more RR sets than OPIM-C⁰ under identical streams.
	g := testGraph(t, 1000, 21)
	s := rrset.NewSampler(g, diffusion.IC)
	van, err := Maximize(s, 10, 0.1, 0.05, Options{Variant: Vanilla, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	plus, err := Maximize(s, 10, 0.1, 0.05, Options{Variant: Plus, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if plus.RRGenerated > van.RRGenerated {
		t.Fatalf("OPIM-C⁺ used %d RR sets, OPIM-C⁰ used %d", plus.RRGenerated, van.RRGenerated)
	}
}

func TestMaximizeErrors(t *testing.T) {
	g := testGraph(t, 100, 23)
	s := rrset.NewSampler(g, diffusion.IC)
	if _, err := Maximize(s, 5, 0, 0.1, Options{}); err == nil {
		t.Error("ε=0 accepted")
	}
	if _, err := Maximize(s, 5, 1, 0.1, Options{}); err == nil {
		t.Error("ε=1 accepted")
	}
	if _, err := Maximize(s, 0, 0.1, 0.1, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Maximize(s, 5, 0.1, 0, Options{}); err == nil {
		t.Error("δ=0 accepted")
	}
}

func TestMaximizeDeterministic(t *testing.T) {
	g := testGraph(t, 600, 24)
	s := rrset.NewSampler(g, diffusion.LT)
	a, err := Maximize(s, 8, 0.2, 0.05, Options{Variant: Plus, Seed: 25, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Maximize(s, 8, 0.2, 0.05, Options{Variant: Plus, Seed: 25, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Alpha != b.Alpha || a.RRGenerated != b.RRGenerated {
		t.Fatalf("runs differ: %v vs %v", a, b)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seed %d differs", i)
		}
	}
}

func TestMaximizeCertifiedAboveTarget(t *testing.T) {
	g := testGraph(t, 800, 26)
	s := rrset.NewSampler(g, diffusion.IC)
	res, err := Maximize(s, 10, 0.4, 0.05, Options{Variant: Plus, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatalf("loose ε=0.4 run not certified: %v", res)
	}
	if res.Alpha < bound.OneMinusInvE-0.4 {
		t.Fatalf("α=%v below target", res.Alpha)
	}
}

func TestCResultString(t *testing.T) {
	r := &CResult{Seeds: []int32{1, 2}, Alpha: 0.5, Target: 0.53, Rounds: 2, MaxRounds: 9}
	if r.String() == "" {
		t.Fatal("empty CResult string")
	}
}

func TestMaximizeOnRoundCallback(t *testing.T) {
	g := testGraph(t, 600, 30)
	s := rrset.NewSampler(g, diffusion.IC)
	var rounds []int
	var alphas []float64
	res, err := Maximize(s, 8, 0.2, 0.05, Options{
		Variant: Plus,
		Seed:    31,
		OnRound: func(round int, snap *Snapshot) {
			rounds = append(rounds, round)
			alphas = append(alphas, snap.Alpha)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != res.Rounds {
		t.Fatalf("callback fired %d times, Rounds = %d", len(rounds), res.Rounds)
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("round sequence %v", rounds)
		}
	}
	if alphas[len(alphas)-1] != res.Alpha {
		t.Fatalf("last callback α %v != result α %v", alphas[len(alphas)-1], res.Alpha)
	}
}

func TestExactBoundsOption(t *testing.T) {
	g := testGraph(t, 800, 32)
	s := rrset.NewSampler(g, diffusion.IC)
	run := func(exact bool) *Snapshot {
		o, err := NewOnline(s, Options{K: 10, Delta: 0.01, Variant: Plus, Seed: 33, Exact: exact})
		if err != nil {
			t.Fatal(err)
		}
		o.Advance(4000)
		return o.Snapshot()
	}
	martingale := run(false)
	exact := run(true)
	// Identical collections ⇒ identical seeds; only the bounds differ.
	for i := range martingale.Seeds {
		if martingale.Seeds[i] != exact.Seeds[i] {
			t.Fatalf("seed %d differs between bound methods", i)
		}
	}
	if exact.Alpha <= 0 || exact.Alpha > 1 {
		t.Fatalf("exact α = %v", exact.Alpha)
	}
	// The Clopper–Pearson interval is typically tighter; at minimum the two
	// methods must agree within a modest factor.
	if exact.Alpha < 0.7*martingale.Alpha {
		t.Fatalf("exact α=%v far below martingale α=%v", exact.Alpha, martingale.Alpha)
	}
	// Both lower bounds stay below the point estimate; both uppers above it.
	point2 := float64(g.N()) * float64(exact.CoverageR2) / float64(exact.Theta2)
	if exact.SigmaLower > point2 {
		t.Fatalf("exact σˡ=%v above point estimate %v", exact.SigmaLower, point2)
	}
	if exact.SigmaUpper < exact.SigmaLower {
		t.Fatalf("exact bounds inverted: %v > %v", exact.SigmaLower, exact.SigmaUpper)
	}
}

func TestExactBoundsValidity(t *testing.T) {
	// Star with known optimum: the exact bounds must bracket σ(S°) too.
	g, err := gen.Star(400, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	trueOpt := 1 + 399*0.25
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 1, Delta: 0.01, Variant: Plus, Seed: 34, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(20000)
	snap := o.Snapshot()
	if snap.SigmaLower > trueOpt*1.03 {
		t.Fatalf("exact σˡ=%v above σ(S°)=%v", snap.SigmaLower, trueOpt)
	}
	if snap.SigmaUpper < trueOpt*0.97 {
		t.Fatalf("exact σᵘ=%v below σ(S°)=%v", snap.SigmaUpper, trueOpt)
	}
}

func TestMaximizeExactCertifiesNoLater(t *testing.T) {
	// A tighter bound can only certify at the same round or earlier under
	// identical sample streams.
	g := testGraph(t, 800, 35)
	s := rrset.NewSampler(g, diffusion.IC)
	plain, err := Maximize(s, 10, 0.15, 0.05, Options{Variant: Plus, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Maximize(s, 10, 0.15, 0.05, Options{Variant: Plus, Seed: 36, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if exact.RRGenerated > plain.RRGenerated {
		t.Fatalf("exact bounds needed MORE samples: %d vs %d", exact.RRGenerated, plain.RRGenerated)
	}
}

func TestAdvanceFor(t *testing.T) {
	g := testGraph(t, 500, 60)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 5, Delta: 0.1, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	generated := o.AdvanceFor(150 * time.Millisecond)
	elapsed := time.Since(start)
	if generated <= 0 {
		t.Fatal("AdvanceFor generated nothing")
	}
	if generated != o.NumRR() {
		t.Fatalf("returned %d but NumRR = %d", generated, o.NumRR())
	}
	if elapsed < 150*time.Millisecond {
		t.Fatalf("returned after %v, before the deadline", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("overshot deadline grossly: %v", elapsed)
	}
	// A time-based advance samples exactly what one Advance of the same
	// count does, R1/R2 split included.
	ref, err := NewOnline(s, Options{K: 5, Delta: 0.1, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	ref.Advance(int(generated))
	var a, b bytes.Buffer
	if err := SaveSession(&a, o); err != nil {
		t.Fatal(err)
	}
	if err := SaveSession(&b, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("AdvanceFor's %d sets differ from Advance(%d)", generated, generated)
	}
	// The snapshot path still works after time-based advancing.
	if snap := o.Snapshot(); len(snap.Seeds) != 5 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestMaximizeFinalRoundReachesThetaMax(t *testing.T) {
	// When no round certifies, the final round must hold |R1| ≥ θmax so the
	// Lemma 6.1 fallback applies. On an edgeless graph every RR set is one
	// node, and Vanilla's σᵘ = Λ1(S*)/(1−1/e) holds α near or below 1−1/e,
	// so no round reaches 1−1/e−ε and the run exhausts its rounds. Pure
	// doubling from ⌈θ0⌉ would end below θmax; the top-up must reach it.
	g, err := graph.NewBuilder(8, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	s := rrset.NewSampler(g, diffusion.IC)
	eps, delta := 0.1, 0.1
	res, err := Maximize(s, 2, eps, delta, Options{Variant: Vanilla, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certified || res.Rounds != res.MaxRounds {
		t.Fatalf("run stopped at round %d of %d (certified=%v); the final round was not reached",
			res.Rounds, res.MaxRounds, res.Certified)
	}
	thetaMax := bound.ThetaMax(g.N(), 2, eps, delta)
	if float64(res.Theta1) < thetaMax {
		t.Fatalf("final round θ1 = %d below θmax = %.0f", res.Theta1, thetaMax)
	}
}

func TestOnlineAugmentation(t *testing.T) {
	g := testGraph(t, 1000, 80)
	s := rrset.NewSampler(g, diffusion.IC)

	// First campaign: pick 5 seeds the normal way.
	first, err := NewOnline(s, Options{K: 5, Delta: 0.05, Variant: Plus, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	first.Advance(8000)
	base := first.Snapshot().Seeds

	// Second campaign: augment with 5 more.
	aug, err := NewOnline(s, Options{K: 5, Delta: 0.05, Variant: Plus, Seed: 82, BaseSeeds: base})
	if err != nil {
		t.Fatal(err)
	}
	aug.Advance(8000)
	snap := aug.Snapshot()
	if len(snap.Seeds) != 5 {
		t.Fatalf("augmentation returned %d seeds", len(snap.Seeds))
	}
	for _, v := range snap.Seeds {
		for _, b := range base {
			if v == b {
				t.Fatalf("augmentation reselected base seed %d", v)
			}
		}
	}
	if snap.Alpha <= 0 || snap.Alpha > 1 {
		t.Fatalf("residual α = %v", snap.Alpha)
	}
	// The certified residual lower bound must be consistent with measured
	// residual spread.
	both := append(append([]int32{}, base...), snap.Seeds...)
	withAug := diffusion.EstimateSpread(g, diffusion.IC, both, 20000, 83, 0)
	baseOnly := diffusion.EstimateSpread(g, diffusion.IC, base, 20000, 83, 0)
	residual := withAug.Spread - baseOnly.Spread
	if snap.SigmaLower > residual+4*(withAug.StdErr+baseOnly.StdErr)+1 {
		t.Fatalf("residual σˡ = %v above measured residual %v", snap.SigmaLower, residual)
	}
}

func TestOptionsBaseSeedsValidation(t *testing.T) {
	g := testGraph(t, 100, 84)
	s := rrset.NewSampler(g, diffusion.IC)
	if _, err := NewOnline(s, Options{K: 3, Delta: 0.1, BaseSeeds: []int32{200}}); err == nil {
		t.Fatal("out-of-range base seed accepted")
	}
	if _, err := NewOnline(s, Options{K: 3, Delta: 0.1, Variant: Prime, BaseSeeds: []int32{1}}); err == nil {
		t.Fatal("Prime with BaseSeeds accepted")
	}
}

func TestMaximizeWithBaseSeeds(t *testing.T) {
	g := testGraph(t, 800, 85)
	s := rrset.NewSampler(g, diffusion.IC)
	base := []int32{0, 1}
	res, err := Maximize(s, 5, 0.3, 0.05, Options{Variant: Plus, Seed: 86, BaseSeeds: base})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("seeds = %v", res.Seeds)
	}
	for _, v := range res.Seeds {
		if v == 0 || v == 1 {
			t.Fatalf("base reselected: %v", res.Seeds)
		}
	}
}

// countingGenerator wraps local generation, recording batch sizes — proof
// that Advance routes every RR set through the configured Generator.
type countingGenerator struct {
	calls  int
	rrSets int
}

func (g *countingGenerator) Generate(c *rrset.Collection, s *rrset.Sampler, count int, base *rng.Source, workers int) {
	g.calls++
	g.rrSets += count
	rrset.Generate(c, s, count, base, workers)
}

func TestGeneratorThreadedThroughAdvance(t *testing.T) {
	g := testGraph(t, 200, 11)
	s := rrset.NewSampler(g, diffusion.IC)
	cg := &countingGenerator{}
	o, err := NewOnline(s, Options{K: 2, Delta: 0.1, Seed: 5, Generator: cg})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(101)
	if cg.calls != 2 || cg.rrSets != 101 {
		t.Fatalf("generator saw calls=%d rrSets=%d, want 2/101", cg.calls, cg.rrSets)
	}
	// A conforming generator is invisible in the results: same seeds and
	// bound as a purely local session.
	local, err := NewOnline(s, Options{K: 2, Delta: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	local.Advance(101)
	a, b := o.Snapshot(), local.Snapshot()
	if fmt.Sprint(a.Seeds) != fmt.Sprint(b.Seeds) || a.Alpha != b.Alpha {
		t.Fatalf("generator changed results: %v/%v vs %v/%v", a.Seeds, a.Alpha, b.Seeds, b.Alpha)
	}
	// SetGenerator(nil) resets to local sampling mid-session without
	// perturbing the stream.
	o.SetGenerator(nil)
	o.Advance(50)
	local.Advance(50)
	if o.NumRR() != local.NumRR() || o.EdgesExamined() != local.EdgesExamined() {
		t.Fatal("switching generators mid-session changed the stream")
	}
}
