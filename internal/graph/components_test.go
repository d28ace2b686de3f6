package graph

import "testing"

func TestTranspose(t *testing.T) {
	g := buildTest(t, 3, []Edge{{From: 0, To: 1, P: 0.5}, {From: 1, To: 2, P: 0.25}})
	tr, err := Transpose(g)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 3 || tr.M() != 2 {
		t.Fatalf("transpose shape: n=%d m=%d", tr.N(), tr.M())
	}
	to, p := tr.OutNeighbors(1)
	if len(to) != 1 || to[0] != 0 || p[0] != 0.5 {
		t.Fatalf("transposed edge wrong: %v %v", to, p)
	}
	// Double transpose is identity.
	tt, err := Transpose(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, tt) {
		t.Fatal("double transpose changed graph")
	}
}
