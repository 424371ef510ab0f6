package mdegst_test

import (
	"testing"

	"mdegst/internal/exp"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/workload"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestAllocsPinned pins the allocation count of the engine, protocol and
// harness hot paths: each cell runs one fixed-seed workload on one engine
// under testing.AllocsPerRun and fails when the count exceeds
// max(1.10 × recorded, recorded + 64). The ratio catches a real regression
// (a per-message or per-node allocation costs thousands on these
// workloads); the absolute slack absorbs a GC cycle evicting the engines'
// sync.Pools mid-measurement, which moves the smallest cells by tens.
//
// The counts are whole-process, so the cells run sequentially.
func TestAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random, so allocation counts are not stable under -race")
	}
	unit := func() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true} }
	ref := func() sim.Engine { return &sim.ReferenceEngine{Delay: sim.UnitDelay, FIFO: true} }
	uniform := func() sim.Engine { return &sim.EventEngine{Delay: sim.UniformDelay(0.05), FIFO: true, Seed: 1} }
	refUniform := func() sim.Engine { return &sim.ReferenceEngine{Delay: sim.UniformDelay(0.05), FIFO: true, Seed: 1} }

	// improve runs the hybrid protocol from a star on Gnm(96, 288, 1),
	// compiling per run.
	improve := func(mk func() sim.Engine) func(t *testing.T) func() {
		return func(t *testing.T) func() {
			g := graph.Gnm(96, 288, 1)
			t0, err := spanning.StarTree(g)
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				if _, err := mdst.Run(mk(), g.Compile(), t0, mdst.Hybrid, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// flood builds the flood tree of Gnm(256, 1024, 1), compiling per run.
	flood := func(mk func() sim.Engine) func(t *testing.T) func() {
		return func(t *testing.T) func() {
			g := graph.Gnm(256, 1024, 1)
			return func() {
				if _, _, err := spanning.BuildCompiled(mk(), g.Compile(), spanning.NewFloodFactory(g.Nodes()[0])); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// floodLarge floods a catalog workload compiled once, outside the
	// measured runs.
	floodLarge := func(gen func() *graph.Graph) func(t *testing.T) func() {
		return func(t *testing.T) func() {
			c := gen().Compile()
			root := c.Index().ID(0)
			return func() {
				if _, _, err := spanning.BuildCompiled(unit(), c, spanning.NewFloodFactory(root)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// harness runs the quick E1, E3 and E5 tables on one worker.
	harness := func(t *testing.T) func() {
		return func() {
			r := &exp.Runner{Config: exp.Config{Seeds: 2, Scale: 0.25}, Parallel: 1}
			if _, err := r.Run([]string{"E1", "E3", "E5"}); err != nil {
				t.Fatal(err)
			}
		}
	}

	cells := []struct {
		name     string
		recorded float64
		runs     int
		long     bool
		setup    func(t *testing.T) func()
	}{
		{"mdst-hybrid/gnm-96/event-engine", 1746, 5, false, improve(unit)},
		{"mdst-hybrid/gnm-96/reference-engine", 84179, 5, false, improve(ref)},
		{"flood/gnm-256/event-engine", 861, 5, false, flood(unit)},
		{"flood/gnm-256/reference-engine", 5515, 5, false, flood(ref)},
		{"flood/gnm-256/event-uniform", 987, 5, false, flood(uniform)},
		{"flood/gnm-256/reference-uniform", 5639, 5, false, flood(refUniform)},
		{"harness/E1,E3,E5-quick/parallel=1", 16547, 3, false, harness},
		{"flood/gnm-4096/event-engine", 12952, 3, false, floodLarge(workload.Gnm4096)},
		{"flood/ba-16384/event-engine", 44756, 2, false, floodLarge(workload.BA16384)},
		{"flood/grid-100k/event-engine", 401860, 1, false, floodLarge(workload.Grid100k)},
		{"flood/grid-1M/event-engine", 4036984, 1, true, floodLarge(workload.Grid1M)},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			if cell.long && testing.Short() {
				t.Skip("about 8 s; skipped under -short")
			}
			got := testing.AllocsPerRun(cell.runs, cell.setup(t))
			bound := max(1.10*cell.recorded, cell.recorded+64)
			t.Logf("%.0f allocs/op (recorded %.0f, bound %.0f)", got, cell.recorded, bound)
			if got > bound {
				t.Errorf("%.0f allocs/op, want at most %.0f (recorded %.0f)", got, bound, cell.recorded)
			}
		})
	}
}
