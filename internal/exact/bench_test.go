package exact

import (
	"testing"

	"mdegst/internal/graph"
)

func BenchmarkDegreeLowerBound(b *testing.B) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm-4096-12288", graph.Gnm(4096, 12288, 1)},
		{"ba-16384-2", graph.BarabasiAlbert(16384, 2, 1)},
		{"grid-316x316", graph.Grid(316, 316)},
	}
	for _, tc := range cases {
		c := tc.g.Compile()
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				degreeLowerBound(c)
			}
		})
	}
}

func BenchmarkMinDegree(b *testing.B) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"bipartite-3-8", graph.CompleteBipartite(3, 8)},
		{"ba-12-2", graph.BarabasiAlbert(12, 2, 1)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := MinDegree(tc.g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
