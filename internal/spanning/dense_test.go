package spanning

import (
	"maps"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
)

// requireSameReport compares everything deterministic between two runs of
// the same execution (Wall always differs).
func requireSameReport(t *testing.T, what string, a, b *sim.Report) {
	t.Helper()
	if a.Messages != b.Messages || a.Words != b.Words || a.MaxWords != b.MaxWords ||
		a.CausalDepth != b.CausalDepth || a.VirtualTime != b.VirtualTime {
		t.Fatalf("%s: scalar counters diverged:\n%v\n%v", what, a, b)
	}
	if !maps.Equal(a.ByKind, b.ByKind) || !maps.Equal(a.ByRound, b.ByRound) ||
		!maps.Equal(a.ByKindRound, b.ByKindRound) || !maps.Equal(a.SentBy, b.SentBy) {
		t.Fatalf("%s: breakdown maps diverged:\n%v\n%v", what, a, b)
	}
}

// TestBuildCompiledDenseMatchesMap holds the two flood factories to one
// result on every deterministic engine: the heap factory (a protocol
// instance per node, through BuildCompiled and its map-keyed tree) and the
// slab factory (through BuildCompiledDense) must build the same tree with
// the same report. Under unit delay both must also be the sequential
// breadth-first tree.
func TestBuildCompiledDenseMatchesMap(t *testing.T) {
	engines := func() map[string]sim.Engine {
		return map[string]sim.Engine{
			"event-unit":   &sim.EventEngine{Delay: sim.UnitDelay},
			"event-random": &sim.EventEngine{Delay: sim.UniformDelay(0.2), Seed: 7, FIFO: true},
			"reference":    &sim.ReferenceEngine{},
		}
	}
	for gname, g := range testGraphs() {
		c := g.Compile()
		root := g.Nodes()[0]
		for ename := range engines() {
			t.Run(gname+"/"+ename, func(t *testing.T) {
				// Fresh engine values per run so RNG seeding cannot couple
				// the two factories.
				heap, heapRep, err := BuildCompiled(engines()[ename], c, NewFloodFactory(root))
				if err != nil {
					t.Fatal(err)
				}
				slab, slabRep, err := BuildCompiledDense(engines()[ename], c, NewFloodFactorySnap(c, root))
				if err != nil {
					t.Fatal(err)
				}
				if err := slab.Validate(c); err != nil {
					t.Fatal(err)
				}
				if back := slab.ToTree(); !heap.Equal(back) {
					t.Fatalf("trees diverged\nheap factory:\n%s\nslab factory:\n%s", heap, back)
				}
				requireSameReport(t, gname+"/"+ename, heapRep, slabRep)
				if ename == "event-random" {
					return
				}
				bfs, err := BFSTree(g, root)
				if err != nil {
					t.Fatal(err)
				}
				if !bfs.Equal(heap) {
					t.Fatalf("unit-delay flood is not the BFS tree\nflood:\n%s\nBFS:\n%s", heap, bfs)
				}
			})
		}
	}
}

// TestExtractDenseOtherProtocols runs the remaining spanning protocols
// through the dense extraction to show it is not flood-specific.
func TestExtractDenseOtherProtocols(t *testing.T) {
	g := graph.Gnm(40, 90, 2)
	c := g.Compile()
	root := g.Nodes()[0]
	for pname, f := range map[string]sim.Factory{
		"dfs":      NewDFSFactory(root),
		"ghs":      NewGHSFactory(),
		"election": NewElectionFactory(),
	} {
		d, _, err := BuildCompiledDense(&sim.EventEngine{Delay: sim.UnitDelay}, c, f)
		if err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
		if err := d.Validate(c); err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
	}
}

// TestFloodFactorySnapReusable runs one slab factory through several
// sequential runs: every run must reset the slab states and produce the
// identical tree.
func TestFloodFactorySnapReusable(t *testing.T) {
	g := graph.Gnp(50, 0.12, 17)
	c := g.Compile()
	root := g.Nodes()[0]
	f := NewFloodFactorySnap(c, root)
	want, _, err := BuildCompiled(&sim.EventEngine{Delay: sim.UnitDelay}, c, NewFloodFactory(root))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		d, _, err := BuildCompiledDense(&sim.EventEngine{Delay: sim.UnitDelay}, c, f)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !want.Equal(d.ToTree()) {
			t.Fatalf("trial %d: slab factory produced a different tree", trial)
		}
	}
}

// fakeTreeNode lets the error-path tests hand ExtractDense arbitrary
// tree views.
type fakeTreeNode struct {
	parent sim.NodeID
	isRoot bool
	fin    bool
}

func (f *fakeTreeNode) Init(sim.Context)                          {}
func (f *fakeTreeNode) Recv(sim.Context, sim.NodeID, sim.WireMsg) {}
func (f *fakeTreeNode) TreeInfo() (sim.NodeID, []sim.NodeID, bool) {
	return f.parent, nil, f.isRoot
}
func (f *fakeTreeNode) Finished() bool { return f.fin }

type bareProto struct{}

func (bareProto) Init(sim.Context)                          {}
func (bareProto) Recv(sim.Context, sim.NodeID, sim.WireMsg) {}

// TestExtractDenseRejects exercises every validation branch of the dense
// extraction on Path(4) (identities 0-1-2-3).
func TestExtractDenseRejects(t *testing.T) {
	c := graph.Path(4).Compile()
	chain := func(mut func(ps []*fakeTreeNode)) []sim.Protocol {
		ps := []*fakeTreeNode{
			{isRoot: true, fin: true},
			{parent: 0, fin: true},
			{parent: 1, fin: true},
			{parent: 2, fin: true},
		}
		if mut != nil {
			mut(ps)
		}
		out := make([]sim.Protocol, len(ps))
		for i, p := range ps {
			out[i] = p
		}
		return out
	}
	if d, err := ExtractDense(c, chain(nil)); err != nil || d == nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	cases := map[string][]sim.Protocol{
		"short slice": chain(nil)[:3],
		"not a tree node": func() []sim.Protocol {
			ps := chain(nil)
			ps[2] = bareProto{}
			return ps
		}(),
		"unfinished":      chain(func(ps []*fakeTreeNode) { ps[3].fin = false }),
		"no root":         chain(func(ps []*fakeTreeNode) { ps[0].isRoot = false; ps[0].parent = 1 }),
		"two roots":       chain(func(ps []*fakeTreeNode) { ps[2].isRoot = true }),
		"unknown parent":  chain(func(ps []*fakeTreeNode) { ps[3].parent = 99 }),
		"cycle":           chain(func(ps []*fakeTreeNode) { ps[2].parent = 3 }),
		"non-edge parent": chain(func(ps []*fakeTreeNode) { ps[3].parent = 0 }),
	}
	for name, protos := range cases {
		if _, err := ExtractDense(c, protos); err == nil {
			t.Errorf("%s: accepted invalid states", name)
		}
	}
}

// TestFloodDenseTrafficInvariantAllocs pins the slab factory's allocation
// behaviour two ways. Traffic invariance: with the node count held fixed,
// quadrupling the edge count (and so roughly the message count) must not
// move the per-run allocation count by more than a twentieth of an
// allocation per extra message — the hot loops are allocation-free, and
// what remains is per-node or per-round bookkeeping. Reduction: the slab
// factory through BuildCompiledDense must allocate at least 10x less than
// the heap factory through BuildCompiled (a protocol instance per node and
// the map-keyed tree) on the same workload.
func TestFloodDenseTrafficInvariantAllocs(t *testing.T) {
	measure := func(sparse bool, dense bool) (float64, int64) {
		m := 1800
		if !sparse {
			m = 7200
		}
		c := graph.Gnm(600, m, 5).Compile()
		root := c.Index().ID(0)
		var msgs int64
		var run func()
		if dense {
			f := NewFloodFactorySnap(c, root)
			run = func() {
				_, rep, err := BuildCompiledDense(&sim.EventEngine{Delay: sim.UnitDelay}, c, f)
				if err != nil {
					t.Fatal(err)
				}
				msgs = rep.Messages
			}
		} else {
			run = func() {
				_, rep, err := BuildCompiled(&sim.EventEngine{Delay: sim.UnitDelay}, c, NewFloodFactory(root))
				if err != nil {
					t.Fatal(err)
				}
				msgs = rep.Messages
			}
		}
		run() // warm the engine scratch pools
		return testing.AllocsPerRun(5, run), msgs
	}
	aSparse, mSparse := measure(true, true)
	aDense, mDense := measure(false, true)
	aMap, _ := measure(false, false)
	t.Logf("slab factory: %.0f allocs @ %d msgs (sparse), %.0f allocs @ %d msgs (dense); heap factory: %.0f allocs",
		aSparse, mSparse, aDense, mDense, aMap)
	if mDense <= mSparse {
		t.Fatalf("workloads not ordered by traffic: %d vs %d messages", mSparse, mDense)
	}
	if marginal := (aDense - aSparse) / float64(mDense-mSparse); marginal > 0.05 {
		t.Errorf("allocations scale with traffic: %.4f allocs per extra message", marginal)
	}
	if aDense*10 > aMap {
		t.Errorf("slab factory allocates %.0f, heap factory %.0f: want at least a 10x reduction", aDense, aMap)
	}
}
