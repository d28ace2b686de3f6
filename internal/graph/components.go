package graph

// Transpose returns the graph with every edge reversed (probabilities
// preserved). Used e.g. for reverse-PageRank-style influence heuristics.
func Transpose(g *Graph) (*Graph, error) {
	b := NewBuilder(g.N(), int(g.M()))
	g.Edges(func(e Edge) bool {
		b.AddEdge(e.To, e.From, e.P)
		return true
	})
	return b.Build()
}
