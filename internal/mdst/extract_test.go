package mdst

import (
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
)

type bareProto struct{}

func (bareProto) Init(sim.Context)                          {}
func (bareProto) Recv(sim.Context, sim.NodeID, sim.WireMsg) {}

// byID keys dense states by node identity, the form Extract takes.
func byID(c *graph.CSR, protos []sim.Protocol) map[sim.NodeID]sim.Protocol {
	m := make(map[sim.NodeID]sim.Protocol, len(protos))
	for i, p := range protos {
		m[c.Index().ID(int32(i))] = p
	}
	return m
}

// TestExtractRejects exercises every validation branch of the dense
// extraction on Path(4) (identities 0-1-2-3), directly and through the
// Extract map adapter.
func TestExtractRejects(t *testing.T) {
	g := graph.Path(4)
	c := g.Compile()
	initial, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.NewReport()
	chain := func(mut func(ns []*Node)) []sim.Protocol {
		ns := []*Node{
			{id: 0, terminated: true, round: 2},
			{id: 1, parent: 0, hasParent: true, terminated: true, round: 2, swaps: 1},
			{id: 2, parent: 1, hasParent: true, terminated: true, round: 1},
			{id: 3, parent: 2, hasParent: true, terminated: true, round: 2},
		}
		if mut != nil {
			mut(ns)
		}
		out := make([]sim.Protocol, len(ns))
		for i, n := range ns {
			out[i] = n
		}
		return out
	}
	for name, extractFn := range map[string]func([]sim.Protocol) (*Result, error){
		"dense": func(ps []sim.Protocol) (*Result, error) { return extract(c, initial, ps, rep) },
		"map":   func(ps []sim.Protocol) (*Result, error) { return Extract(g, initial, byID(c, ps), rep) },
	} {
		res, err := extractFn(chain(nil))
		if err != nil {
			t.Fatalf("%s: valid chain rejected: %v", name, err)
		}
		if !res.Tree.Equal(initial) || res.Rounds != 2 || res.Swaps != 1 ||
			res.InitialDegree != 2 || res.FinalDegree != 2 || res.Report != rep {
			t.Fatalf("%s: valid chain extracted as %+v", name, res)
		}
		cases := map[string][]sim.Protocol{
			"short slice": chain(nil)[:3],
			"not an mdst node": func() []sim.Protocol {
				ps := chain(nil)
				ps[2] = bareProto{}
				return ps
			}(),
			"unfinished":      chain(func(ns []*Node) { ns[3].terminated = false }),
			"no root":         chain(func(ns []*Node) { ns[0].hasParent = true; ns[0].parent = 1 }),
			"two roots":       chain(func(ns []*Node) { ns[2].hasParent = false }),
			"unknown parent":  chain(func(ns []*Node) { ns[3].parent = 99 }),
			"cycle":           chain(func(ns []*Node) { ns[2].parent = 3 }),
			"non-edge parent": chain(func(ns []*Node) { ns[3].parent = 0 }),
		}
		for cname, protos := range cases {
			if _, err := extractFn(protos); err == nil {
				t.Errorf("%s/%s: accepted invalid states", name, cname)
			}
		}
	}
	stray := byID(c, chain(nil))
	stray[99] = stray[3]
	delete(stray, 3)
	if _, err := Extract(g, initial, stray, rep); err == nil {
		t.Error("map: accepted a state keyed by a node outside the graph")
	}
}

// TestExtractAdapterMatchesDense runs the improvement once through the
// dense path (RunTargetSnapshot) and once through sim.RunCompiled and the
// Extract map adapter, on a graph whose identities are not its dense
// indices: both must give the same Result.
func TestExtractAdapterMatchesDense(t *testing.T) {
	g, _ := graph.RelabelRandom(graph.Wheel(12), 3)
	c := g.Compile()
	initial, err := spanning.StarTree(g)
	if err != nil {
		t.Fatal(err)
	}
	eng := func() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true} }
	want, err := RunTargetSnapshot(eng(), c, initial, Hybrid, 0)
	if err != nil {
		t.Fatal(err)
	}
	protos, rep, err := sim.RunCompiled(eng(), c, FactoryFromTree(Hybrid, 0, initial))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Extract(g, initial, protos, rep)
	if err != nil {
		t.Fatal(err)
	}
	if want.Swaps == 0 {
		t.Fatal("workload made no exchange")
	}
	if !got.Tree.Equal(want.Tree) || got.Rounds != want.Rounds || got.Swaps != want.Swaps ||
		got.InitialDegree != want.InitialDegree || got.FinalDegree != want.FinalDegree ||
		got.Report.Messages != want.Report.Messages {
		t.Fatalf("map adapter diverged:\n got %+v\nwant %+v", got, want)
	}
	if err := got.Tree.Validate(g); err != nil {
		t.Fatal(err)
	}
}
