package fr

import (
	"fmt"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/spanning"
)

// BenchmarkTwinModes measures the sequential oracle across modes — the fast
// path large sweeps use instead of simulation.
func BenchmarkTwinModes(b *testing.B) {
	g := graph.Gnm(256, 768, 3)
	t0, err := spanning.StarTree(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := TwinTargetSnapshot(g.Compile(), t0, mode, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFurerRaghavachari measures the classic baseline and its strict
// extension.
func BenchmarkFurerRaghavachari(b *testing.B) {
	for _, n := range []int{64, 128} {
		g := graph.Gnm(n, 3*n, 5)
		t0, err := spanning.StarTree(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("plain/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := FurerRaghavachari(g, t0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("strict/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Strict(g, t0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
