package graph

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// fpTestGraph builds a deterministic random graph for fingerprint tests.
func fpTestGraph(t *testing.T, n int32, m int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, m)
	for i := 0; i < m; i++ {
		from := rng.Int31n(n)
		to := rng.Int31n(n)
		if from == to {
			to = (to + 1) % n
		}
		b.AddEdge(from, to, rng.Float32())
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// edgesOf extracts a graph's canonical edge list.
func edgesOf(g *Graph) []Edge {
	var edges []Edge
	g.Edges(func(e Edge) bool { edges = append(edges, e); return true })
	return edges
}

// rebuild constructs a fresh Graph from an edge list, optionally permuting
// insertion order.
func rebuild(t *testing.T, n int32, edges []Edge, perm *rand.Rand) *Graph {
	t.Helper()
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	if perm != nil {
		perm.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	b := NewBuilder(n, len(edges))
	for _, i := range order {
		b.AddEdge(edges[i].From, edges[i].To, edges[i].P)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFingerprintInvariantAcrossLoadPaths: the same influence instance must
// fingerprint identically whether it arrives via the builder (any insertion
// order), a text round-trip, or an OPIMG2 round-trip — the property the
// daemon's checkpoint verification rests on.
func TestFingerprintInvariantAcrossLoadPaths(t *testing.T) {
	g := fpTestGraph(t, 200, 1500, 7)
	want := g.Fingerprint()
	if len(want) != 64 {
		t.Fatalf("fingerprint %q is not 64 hex chars", want)
	}
	edges := edgesOf(g)

	for seed := int64(0); seed < 4; seed++ {
		got := rebuild(t, g.N(), edges, rand.New(rand.NewSource(seed))).Fingerprint()
		if got != want {
			t.Fatalf("insertion order %d changed the fingerprint: %s vs %s", seed, got, want)
		}
	}

	var text bytes.Buffer
	if err := WriteText(&text, g); err != nil {
		t.Fatal(err)
	}
	viaText, err := ReadText(&text)
	if err != nil {
		t.Fatal(err)
	}
	if got := viaText.Fingerprint(); got != want {
		t.Fatalf("text round-trip changed the fingerprint: %s vs %s", got, want)
	}

	var bin bytes.Buffer
	if err := WriteCSR(&bin, g); err != nil {
		t.Fatal(err)
	}
	viaBin, err := ReadCSR(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if got := viaBin.Fingerprint(); got != want {
		t.Fatalf("OPIMG2 round-trip changed the fingerprint: %s vs %s", got, want)
	}
}

// TestFingerprintSensitivity: the fingerprint must change when the instance
// changes — a single probability bit, one edge's direction, or the node
// count. These are exactly the silent-mismatch hazards of resuming a
// checkpoint against a reweighted or re-scaled dataset.
func TestFingerprintSensitivity(t *testing.T) {
	g := fpTestGraph(t, 150, 900, 11)
	want := g.Fingerprint()
	edges := edgesOf(g)

	// One probability nudged.
	mutated := append([]Edge(nil), edges...)
	mutated[len(mutated)/2].P += 1e-4
	if got := rebuild(t, g.N(), mutated, nil).Fingerprint(); got == want {
		t.Fatal("changing one edge probability kept the fingerprint")
	}

	// One edge reversed (pick one whose reverse is not already present).
	present := make(map[[2]int32]bool, len(edges))
	for _, e := range edges {
		present[[2]int32{e.From, e.To}] = true
	}
	flipped := append([]Edge(nil), edges...)
	flippedOne := false
	for i, e := range flipped {
		if !present[[2]int32{e.To, e.From}] {
			flipped[i] = Edge{From: e.To, To: e.From, P: e.P}
			flippedOne = true
			break
		}
	}
	if !flippedOne {
		t.Fatal("no reversible edge in test graph")
	}
	if got := rebuild(t, g.N(), flipped, nil).Fingerprint(); got == want {
		t.Fatal("reversing one edge kept the fingerprint")
	}

	// One extra (isolated) node.
	if got := rebuild(t, g.N()+1, edges, nil).Fingerprint(); got == want {
		t.Fatal("growing the node count kept the fingerprint")
	}
}

// TestFingerprintConcurrent: first-call races on the cache must all return
// the same value (run under -race in CI).
func TestFingerprintConcurrent(t *testing.T) {
	g := fpTestGraph(t, 300, 2000, 13)
	const workers = 8
	got := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = g.Fingerprint()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("concurrent fingerprints diverged: %s vs %s", got[w], got[0])
		}
	}
}
