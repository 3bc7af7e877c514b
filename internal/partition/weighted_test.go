package partition

import (
	"testing"

	"repro/internal/graph"
)

func weightedTestGraph(t *testing.T, n int, k float64, seed int64) *graph.CSR {
	t.Helper()
	g, err := graph.GenerateWeighted(graph.Params{N: n, K: k, Seed: seed},
		graph.WeightSpec{Dist: graph.WeightUniform, MaxWeight: 30, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBuild1DWeightedCarriesWeights checks a weighted 1×P build: every
// owned vertex's full list carries the CSR's (neighbor, weight) pairs.
func TestBuild1DWeightedCarriesWeights(t *testing.T) {
	g := weightedTestGraph(t, 500, 6, 2)
	l, err := NewLayout2D(g.N, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := Build2DWeighted(l, g.VisitWeightedEdges)
	if err != nil {
		t.Fatal(err)
	}
	// Every owned vertex's (neighbor, weight) multiset matches the CSR.
	for _, st := range stores {
		for v := st.Lo; v < st.Hi; v++ {
			want := pairCounts(g.Neighbors(v), g.EdgeWeights(v))
			got := pairCounts(st.PartialList(v), st.PartialWeights(v))
			if len(want) != len(got) {
				t.Fatalf("vertex %d: %d distinct (u,w) pairs, want %d", v, len(got), len(want))
			}
			for p, c := range want {
				if got[p] != c {
					t.Fatalf("vertex %d: pair %v count %d, want %d", v, p, got[p], c)
				}
			}
		}
	}
	// Unweighted build leaves RowWts nil.
	plain, err := Build2D(l, func(fn func(u, v graph.Vertex)) error {
		return g.VisitWeightedEdges(func(u, v graph.Vertex, w uint32) { fn(u, v) })
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plain {
		if st.RowWts != nil {
			t.Fatal("unweighted 1xP build allocated weights")
		}
	}
}

func TestBuild2DWeightedCarriesWeights(t *testing.T) {
	g := weightedTestGraph(t, 600, 5, 3)
	for _, mesh := range [][2]int{{1, 4}, {4, 1}, {2, 2}} {
		l, err := NewLayout2D(g.N, mesh[0], mesh[1])
		if err != nil {
			t.Fatal(err)
		}
		stores, err := Build2DWeighted(l, g.VisitWeightedEdges)
		if err != nil {
			t.Fatal(err)
		}
		// The union over ranks of each column's (u, w) entries must be
		// exactly the CSR's adjacency of v with weights.
		for v := 0; v < g.N; v++ {
			got := map[[2]uint32]int{}
			for _, st := range stores {
				rows := st.PartialList(graph.Vertex(v))
				wts := st.PartialWeights(graph.Vertex(v))
				if len(rows) > 0 && len(wts) != len(rows) {
					t.Fatalf("mesh %v: vertex %d: %d rows but %d weights", mesh, v, len(rows), len(wts))
				}
				for i, u := range rows {
					got[[2]uint32{uint32(u), wts[i]}]++
				}
			}
			want := pairCounts(g.Neighbors(graph.Vertex(v)), g.EdgeWeights(graph.Vertex(v)))
			if len(want) != len(got) {
				t.Fatalf("mesh %v: vertex %d: %d distinct pairs, want %d", mesh, v, len(got), len(want))
			}
			for p, c := range want {
				if got[p] != c {
					t.Fatalf("mesh %v: vertex %d: pair %v count %d, want %d", mesh, v, p, got[p], c)
				}
			}
		}
	}
}

func pairCounts(adj []graph.Vertex, wts []uint32) map[[2]uint32]int {
	m := map[[2]uint32]int{}
	for i, u := range adj {
		m[[2]uint32{uint32(u), wts[i]}]++
	}
	return m
}
