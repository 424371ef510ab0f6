package net

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
)

// The dense result contract of sim.Engine, held across every engine the
// repository has: the in-process ones and a 2-process loopback DistEngine.

var probeWire = sim.Register("netprobe",
	sim.OpSpec{Kind: "netprobe.id", MinPayload: 1, MaxPayload: 1},
)

var opProbeID = probeWire.Op(0)

// idProbe records the identity its context reports at Init, then tells
// every neighbour its identity; receivers count the messages whose
// payload disagrees with the sender the engine names.
type idProbe struct {
	seen sim.NodeID
	got  int64
	bad  int64
}

func (p *idProbe) Init(ctx sim.Context) {
	p.seen = ctx.ID()
	for _, w := range ctx.Neighbors() {
		m := sim.WireMsg{Op: opProbeID, Nw: 1}
		m.W[0] = int64(ctx.ID())
		ctx.Send(w, m)
	}
}

func (p *idProbe) Recv(_ sim.Context, from sim.NodeID, m sim.WireMsg) {
	p.got++
	if m.W[0] != int64(from) {
		p.bad++
	}
}

func (p *idProbe) EncodeState(e *sim.StateEncoder) {
	e.Int(int64(p.seen))
	e.Int(p.got)
	e.Int(p.bad)
}

func (p *idProbe) DecodeState(d *sim.StateDecoder) error {
	p.seen = sim.NodeID(d.Int())
	p.got = d.Int()
	p.bad = d.Int()
	return d.Err()
}

func idProbeFactory(sim.NodeID, []sim.NodeID) sim.Protocol { return &idProbe{} }

// meshEngine runs every Run on all processes of a loopback mesh at once
// and returns process 0's result, so the distributed engine can sit in a
// table of in-process engines.
type meshEngine struct{ m *allocMesh }

func (e meshEngine) Run(c *graph.CSR, f sim.Factory) ([]sim.Protocol, *sim.Report, error) {
	k := len(e.m.engs)
	protos := make([][]sim.Protocol, k)
	reps := make([]*sim.Report, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i, eng := range e.m.engs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			protos[i], reps[i], errs[i] = eng.Run(c, f)
		}()
	}
	wg.Wait()
	return protos[0], reps[0], errors.Join(errs...)
}

// TestEngineDenseContract checks, on a graph whose identities are not its
// dense indices, that every engine returns one state per node in dense
// order (protos[i] is the node c.Index().ID(i)) and that sim.RunCompiled's
// map is that slice keyed by identity.
func TestEngineDenseContract(t *testing.T) {
	g, _ := graph.RelabelRandom(graph.Gnm(30, 80, 4), 9)
	c := g.Compile()
	mesh := newAllocMesh(t, c, 2)
	engines := []struct {
		name string
		mk   func() sim.Engine
	}{
		{"event-unit", func() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true} }},
		{"event-uniform", func() sim.Engine { return &sim.EventEngine{Delay: sim.UniformDelay(0.05), Seed: 3, FIFO: true} }},
		{"reference", func() sim.Engine { return &sim.ReferenceEngine{} }},
		{"async", func() sim.Engine { return &sim.AsyncEngine{} }},
		{"dist-2proc", func() sim.Engine { return meshEngine{mesh} }},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			protos, _, err := e.mk().Run(c, idProbeFactory)
			if err != nil {
				t.Fatal(err)
			}
			if len(protos) != c.N() {
				t.Fatalf("%d states for %d nodes", len(protos), c.N())
			}
			for i, p := range protos {
				id, probe := c.Index().ID(int32(i)), p.(*idProbe)
				if probe.seen != id {
					t.Errorf("protos[%d] ran as node %d, want %d", i, probe.seen, id)
				}
				if probe.got != int64(c.Degree(int32(i))) || probe.bad != 0 {
					t.Errorf("node %d: %d messages (%d misattributed), want %d", id, probe.got, probe.bad, c.Degree(int32(i)))
				}
			}
			byID, _, err := sim.RunCompiled(e.mk(), c, idProbeFactory)
			if err != nil {
				t.Fatal(err)
			}
			if len(byID) != len(protos) {
				t.Fatalf("map holds %d states, slice %d", len(byID), len(protos))
			}
			for i, p := range protos {
				id := c.Index().ID(int32(i))
				if q, ok := byID[id].(*idProbe); !ok || *q != *p.(*idProbe) {
					t.Errorf("node %d: map state %+v, slice state %+v", id, byID[id], p)
				}
			}
		})
	}
}

// TestDistRunStatesCallerOwned holds the flood run's final states across
// the improvement run on the same engines. The engine recycles its
// runner's state slice from run to run, so the slice Run handed back must
// be the caller's own copy.
func TestDistRunStatesCallerOwned(t *testing.T) {
	c := graph.Gnm(40, 100, 3).Compile()
	m := newAllocMesh(t, c, 2)
	held := make([][]sim.Protocol, len(m.engs))
	m.each(t, nil, func(eng *DistEngine) error {
		protos, _, err := eng.Run(c, spanning.NewFloodFactory(c.Index().ID(0)))
		held[slices.Index(m.engs, eng)] = protos
		return err
	})
	want := make([][]sim.Protocol, len(held))
	for i := range held {
		want[i] = slices.Clone(held[i])
	}
	initial, err := spanning.ExtractDense(c, held[0])
	if err != nil {
		t.Fatal(err)
	}
	m.each(t, nil, func(eng *DistEngine) error {
		_, _, err := eng.Run(c, mdst.FactoryFromTree(mdst.Hybrid, 0, initial.ToTree()))
		return err
	})
	for i := range held {
		for v := range held[i] {
			if held[i][v] != want[i][v] {
				t.Fatalf("process %d: flood state of node %d replaced by %T after the next run", i, c.Index().ID(int32(v)), held[i][v])
			}
		}
		if _, err := spanning.ExtractDense(c, held[i]); err != nil {
			t.Fatalf("process %d: held flood states no longer extract: %v", i, err)
		}
	}
}
