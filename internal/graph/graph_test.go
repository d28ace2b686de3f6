package graph

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/reprolab/opim/internal/rng"
)

// buildTest constructs a graph from edges, failing the test on error.
func buildTest(t *testing.T, n int32, edges []Edge) *Graph {
	t.Helper()
	b := NewBuilder(n, len(edges))
	for _, e := range edges {
		b.AddEdge(e.From, e.To, e.P)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// line4 is the path 0 → 1 → 2 → 3 with probability 0.5 per edge.
func line4(t *testing.T) *Graph {
	return buildTest(t, 4, []Edge{
		{0, 1, 0.5}, {1, 2, 0.5}, {2, 3, 0.5},
	})
}

func TestBuildCounts(t *testing.T) {
	g := line4(t)
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
}

func TestDegrees(t *testing.T) {
	g := buildTest(t, 4, []Edge{
		{0, 1, 0.3}, {0, 2, 0.3}, {0, 3, 0.3}, {1, 3, 0.3},
	})
	wantOut := []int32{3, 1, 0, 0}
	wantIn := []int32{0, 1, 1, 2}
	for v := int32(0); v < 4; v++ {
		if got := g.OutDegree(v); got != wantOut[v] {
			t.Errorf("OutDegree(%d) = %d, want %d", v, got, wantOut[v])
		}
		if got := g.InDegree(v); got != wantIn[v] {
			t.Errorf("InDegree(%d) = %d, want %d", v, got, wantIn[v])
		}
	}
}

func TestNeighbors(t *testing.T) {
	g := buildTest(t, 3, []Edge{{0, 2, 0.25}, {0, 1, 0.75}, {1, 2, 0.5}})
	to, p := g.OutNeighbors(0)
	if len(to) != 2 || to[0] != 1 || to[1] != 2 {
		t.Fatalf("OutNeighbors(0) targets = %v, want [1 2]", to)
	}
	if p[0] != 0.75 || p[1] != 0.25 {
		t.Fatalf("OutNeighbors(0) probs = %v", p)
	}
	from, p2 := g.InNeighbors(2)
	if len(from) != 2 {
		t.Fatalf("InNeighbors(2) = %v", from)
	}
	// Order within in-adjacency follows the global (From, To) sort.
	if from[0] != 0 || from[1] != 1 {
		t.Fatalf("InNeighbors(2) sources = %v, want [0 1]", from)
	}
	if p2[0] != 0.25 || p2[1] != 0.5 {
		t.Fatalf("InNeighbors(2) probs = %v", p2)
	}
}

func TestInWeightSum(t *testing.T) {
	g := buildTest(t, 3, []Edge{{0, 2, 0.25}, {1, 2, 0.5}})
	if got := g.InWeightSum(2); math.Abs(float64(got)-0.75) > 1e-6 {
		t.Fatalf("InWeightSum(2) = %v, want 0.75", got)
	}
	if got := g.InWeightSum(0); got != 0 {
		t.Fatalf("InWeightSum(0) = %v, want 0", got)
	}
}

func TestDuplicateEdgesMergeNoisyOr(t *testing.T) {
	g := buildTest(t, 2, []Edge{{0, 1, 0.5}, {0, 1, 0.5}})
	if g.M() != 1 {
		t.Fatalf("M = %d after merge, want 1", g.M())
	}
	_, p := g.OutNeighbors(0)
	if math.Abs(float64(p[0])-0.75) > 1e-6 {
		t.Fatalf("merged probability = %v, want 0.75", p[0])
	}
}

func TestBuildRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(2, 1)
	b.AddEdge(1, 1, 0.5)
	if _, err := b.Build(); !errors.Is(err, ErrInvalidEdge) {
		t.Fatalf("self-loop error = %v, want ErrInvalidEdge", err)
	}
}

func TestBuildRejectsBadProbability(t *testing.T) {
	for _, p := range []float32{-0.1, 1.5, float32(math.NaN())} {
		b := NewBuilder(2, 1)
		b.AddEdge(0, 1, p)
		if _, err := b.Build(); !errors.Is(err, ErrInvalidEdge) {
			t.Fatalf("p=%v: error = %v, want ErrInvalidEdge", p, err)
		}
	}
}

func TestBuildRejectsOutOfRangeAfterShrink(t *testing.T) {
	b := NewBuilder(0, 1)
	b.AddEdge(0, 5, 0.5)
	b.SetN(3) // shrink below a seen id
	if _, err := b.Build(); !errors.Is(err, ErrInvalidEdge) {
		t.Fatalf("error = %v, want ErrInvalidEdge", err)
	}
}

func TestAddEdgeGrowsN(t *testing.T) {
	b := NewBuilder(0, 1)
	b.AddEdge(3, 7, 0.1)
	if b.N() != 8 {
		t.Fatalf("N = %d after AddEdge(3,7), want 8", b.N())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := buildTest(t, 5, nil)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.N(), g.M())
	}
	st := g.ComputeStats()
	if st.Isolated != 5 {
		t.Fatalf("Isolated = %d, want 5", st.Isolated)
	}
}

func TestEdgesIteration(t *testing.T) {
	in := []Edge{{0, 1, 0.5}, {1, 2, 0.25}, {0, 2, 0.125}}
	g := buildTest(t, 3, in)
	var got []Edge
	g.Edges(func(e Edge) bool {
		got = append(got, e)
		return true
	})
	want := []Edge{{0, 1, 0.5}, {0, 2, 0.125}, {1, 2, 0.25}}
	if len(got) != len(want) {
		t.Fatalf("Edges yielded %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := line4(t)
	count := 0
	g.Edges(func(Edge) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop after %d edges, want 2", count)
	}
}

func TestValidateLT(t *testing.T) {
	ok := buildTest(t, 3, []Edge{{0, 2, 0.5}, {1, 2, 0.5}})
	if v, err := ok.ValidateLT(1e-6); err != nil || v != -1 {
		t.Fatalf("valid LT graph rejected: v=%d err=%v", v, err)
	}
	bad := buildTest(t, 3, []Edge{{0, 2, 0.8}, {1, 2, 0.8}})
	if v, err := bad.ValidateLT(1e-6); err == nil || v != 2 {
		t.Fatalf("invalid LT graph accepted: v=%d err=%v", v, err)
	}
}

func TestComputeStats(t *testing.T) {
	g := buildTest(t, 5, []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 3, 1}})
	st := g.ComputeStats()
	if st.N != 5 || st.M != 4 {
		t.Fatalf("stats n=%d m=%d", st.N, st.M)
	}
	if st.MaxOutDeg != 3 {
		t.Fatalf("MaxOutDeg = %d, want 3", st.MaxOutDeg)
	}
	if st.MaxInDeg != 2 {
		t.Fatalf("MaxInDeg = %d, want 2", st.MaxInDeg)
	}
	if st.Isolated != 1 { // node 4
		t.Fatalf("Isolated = %d, want 1", st.Isolated)
	}
	if math.Abs(st.AvgOutDeg-0.8) > 1e-9 {
		t.Fatalf("AvgOutDeg = %v, want 0.8", st.AvgOutDeg)
	}
}

func TestCSRInOutConsistencyProperty(t *testing.T) {
	// Property: for random edge sets, every out-edge appears exactly once as
	// an in-edge with the same probability, and degree sums equal M.
	f := func(raw []uint16) bool {
		b := NewBuilder(16, len(raw))
		for _, r := range raw {
			from := int32(r % 16)
			to := int32((r / 16) % 16)
			if from == to {
				continue
			}
			b.AddEdge(from, to, float32(r%7)/10)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var outSum, inSum int64
		for v := int32(0); v < g.N(); v++ {
			outSum += int64(g.OutDegree(v))
			inSum += int64(g.InDegree(v))
		}
		if outSum != g.M() || inSum != g.M() {
			return false
		}
		// Every out-edge must be findable in the in-adjacency of its target.
		okAll := true
		g.Edges(func(e Edge) bool {
			from, p := g.InNeighbors(e.To)
			found := false
			for i, u := range from {
				if u == e.From && p[i] == e.P {
					found = true
					break
				}
			}
			if !found {
				okAll = false
			}
			return okAll
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringer(t *testing.T) {
	g := line4(t)
	if got := g.String(); got != "graph{n=4 m=3}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestLTSamplerStopsAtSource(t *testing.T) {
	g := line4(t) // node 0 has no in-edges
	s := NewLTSampler(g)
	src := rng.New(1)
	if _, ok := s.SampleInNeighbor(0, src); ok {
		t.Fatal("SampleInNeighbor at in-degree-0 node returned ok")
	}
}

func TestLTSamplerStopProbability(t *testing.T) {
	// Node 1 has a single in-edge with p = 0.5, so the walk continues with
	// probability 0.5.
	g := line4(t)
	s := NewLTSampler(g)
	src := rng.New(2)
	const draws = 100000
	cont := 0
	for i := 0; i < draws; i++ {
		if u, ok := s.SampleInNeighbor(1, src); ok {
			if u != 0 {
				t.Fatalf("walked to %d, want 0", u)
			}
			cont++
		}
	}
	p := float64(cont) / draws
	if math.Abs(p-0.5) > 0.01 {
		t.Fatalf("continue rate %v, want ≈ 0.5", p)
	}
}

func TestLTSamplerWeightedChoice(t *testing.T) {
	// Node 3 has two in-edges: from 0 with 0.25 and from 1 with 0.75
	// (sums to 1, so the walk always continues), and the neighbor choice is
	// proportional to the probabilities.
	g := buildTest(t, 4, []Edge{{0, 3, 0.25}, {1, 3, 0.75}})
	s := NewLTSampler(g)
	src := rng.New(3)
	const draws = 200000
	counts := map[int32]int{}
	for i := 0; i < draws; i++ {
		u, ok := s.SampleInNeighbor(3, src)
		if !ok {
			t.Fatal("walk stopped although in-probabilities sum to 1")
		}
		counts[u]++
	}
	if got := float64(counts[0]) / draws; math.Abs(got-0.25) > 0.01 {
		t.Fatalf("P(from 0) = %v, want ≈ 0.25", got)
	}
	if got := float64(counts[1]) / draws; math.Abs(got-0.75) > 0.01 {
		t.Fatalf("P(from 1) = %v, want ≈ 0.75", got)
	}
}

func TestReweightWC(t *testing.T) {
	g := buildTest(t, 4, []Edge{{0, 3, 0}, {1, 3, 0}, {2, 3, 0}, {0, 1, 0}})
	wc, err := Reweight(g, WeightedCascade, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, p := wc.OutNeighbors(1) // edge 1→3
	if math.Abs(float64(p[0])-1.0/3) > 1e-6 {
		t.Fatalf("WC p(1,3) = %v, want 1/3", p[0])
	}
	_, p = wc.OutNeighbors(2)
	if math.Abs(float64(p[0])-1.0/3) > 1e-6 {
		t.Fatalf("WC p(2,3) = %v, want 1/3", p[0])
	}
	// WC always satisfies the LT precondition exactly.
	if v, err := wc.ValidateLT(1e-5); err != nil {
		t.Fatalf("WC graph LT-invalid at node %d: %v", v, err)
	}
}

func TestReweightUniform(t *testing.T) {
	g := line4(t)
	u, err := Reweight(g, Uniform, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	u.Edges(func(e Edge) bool {
		if e.P != 0.01 {
			t.Fatalf("uniform edge p = %v", e.P)
		}
		return true
	})
	if _, err := Reweight(g, Uniform, 1.5, 1); err == nil {
		t.Fatal("uniform p=1.5 accepted")
	}
}

func TestReweightTrivalency(t *testing.T) {
	b := NewBuilder(2, 0)
	for i := int32(2); i < 300; i++ {
		b.AddEdge(0, i, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Reweight(g, Trivalency, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float32]int{}
	tr.Edges(func(e Edge) bool {
		seen[e.P]++
		return true
	})
	for _, want := range []float32{0.1, 0.01, 0.001} {
		if seen[want] == 0 {
			t.Fatalf("trivalency value %v never assigned; got %v", want, seen)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("trivalency produced unexpected values: %v", seen)
	}
}

func TestReweightDeterministic(t *testing.T) {
	g := line4(t)
	a, _ := Reweight(g, Trivalency, 0, 9)
	b, _ := Reweight(g, Trivalency, 0, 9)
	var pa, pb []float32
	a.Edges(func(e Edge) bool { pa = append(pa, e.P); return true })
	b.Edges(func(e Edge) bool { pb = append(pb, e.P); return true })
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("trivalency not deterministic at edge %d", i)
		}
	}
}

func TestWeightSchemeString(t *testing.T) {
	cases := map[WeightScheme]string{
		WeightedCascade:  "weighted-cascade",
		Uniform:          "uniform",
		Trivalency:       "trivalency",
		WeightScheme(99): "WeightScheme(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

// TestBuildGoldenFingerprint pins Build's canonical output for an unsorted
// input with heavy duplication. Noisy-or merging is order-sensitive in
// float32, so the fingerprint depends on the order the sort leaves the
// duplicates in; the pinned hex was computed with sort.Slice, and must not
// move under any supported Go release. A strictly ascending input (the
// shape WithMutations feeds Build) must fingerprint equal to a shuffled
// copy of it.
func TestBuildGoldenFingerprint(t *testing.T) {
	const golden = "175454b08e95cf28e12fb5632291f525e15b1cb9389bf307fe45cc902e8f9698"
	// 8×7 distinct pairs, ~54 copies each, with small distinct p so the
	// noisy-or product never saturates at 1.
	src := rng.New(2024)
	dups := make([]Edge, 3000)
	for i := range dups {
		from, to := NodeID(src.Int31n(8)), NodeID(src.Int31n(7))
		if to >= from {
			to++
		}
		dups[i] = Edge{from, to, 0.001 + 0.02*src.Float32()}
	}
	g := buildTest(t, 9, dups)
	if got := g.Fingerprint(); got != golden {
		t.Fatalf("fingerprint %s, want %s: the sort changed the duplicates' merge order", got, golden)
	}
	if g.M() != 8*7 {
		t.Fatalf("M = %d, want %d distinct pairs", g.M(), 8*7)
	}
	slices.Reverse(dups)
	if buildTest(t, 9, dups).Fingerprint() == golden {
		t.Fatal("fixture is not order-sensitive: reversed input fingerprints equal")
	}

	var asc []Edge
	for u := NodeID(0); u < 40; u++ {
		for v := NodeID(0); v < 40; v++ {
			if u != v && (u*7+v*3)%5 != 0 {
				asc = append(asc, Edge{u, v, float32(u*40+v) / 2000})
			}
		}
	}
	shuffled := slices.Clone(asc)
	rng.New(5).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if buildTest(t, 40, asc).Fingerprint() != buildTest(t, 40, shuffled).Fingerprint() {
		t.Fatal("strictly ascending input and a shuffled copy fingerprint differently")
	}
}
