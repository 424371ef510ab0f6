// Package mdst implements the paper's contribution: the first distributed
// approximation algorithm for the Minimum Degree Spanning Tree problem on
// general graphs (Blin & Butelle, IPPS 2003 / IJFCS 2004).
//
// Starting from an arbitrary rooted spanning tree, the protocol runs rounds
// of
//
//	SearchDegree -> MoveRoot -> Cut -> BFS wave -> Choose/Update/Child
//
// until no exchange can lower the maximum degree (a Locally Optimal Tree)
// or the tree is a chain (k = 2). Each round costs O(m) messages and O(n)
// time; with k the initial and k* the final degree the paper bounds the
// whole run by O((k-k*)·m) messages and O((k-k*)·n) time.
//
// Two modes are provided: Single (the base algorithm, one exchange per
// round) and Multi (paper §3.2.6, every maximum-degree node exchanges
// concurrently). See DESIGN.md for the precise semantics chosen where the
// paper is underspecified.
package mdst

import (
	"fmt"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// Result summarises one improvement run.
type Result struct {
	// Tree is the final spanning tree (validated against the graph).
	Tree *tree.Tree
	// Report carries the message/time accounting of the run.
	Report *sim.Report
	// Rounds is the number of protocol rounds executed, including the
	// final no-improvement (or k<=2) round.
	Rounds int
	// Swaps is the total number of edge exchanges applied.
	Swaps int
	// InitialDegree and FinalDegree are the maximum tree degrees before
	// and after improvement.
	InitialDegree int
	FinalDegree   int
}

// FactoryFromTree returns a sim.Factory for the improvement protocol
// starting from the initial rooted spanning tree t. Every node gets its own
// copy of its children list, so a run never writes to t. A positive target
// stops the algorithm as soon as the maximum degree reaches it — the
// paper's "cannot exceed a given value k" variant; zero improves to local
// optimality.
func FactoryFromTree(mode Mode, target int, t *tree.Tree) sim.Factory {
	return func(id sim.NodeID, _ []sim.NodeID) sim.Protocol {
		n := &Node{
			id:       id,
			mode:     mode,
			phase:    mode.initialPhase(),
			target:   target,
			children: append([]sim.NodeID(nil), t.Children[id]...),
		}
		if id != t.Root {
			n.parent = t.Parent[id]
			n.hasParent = true
		}
		return n
	}
}

// Run executes the improvement protocol on the engine over the compiled
// graph, starting from the given spanning tree, and returns the validated
// result. A positive target stops the protocol as soon as the maximum
// degree is at most target; 0 improves to local optimality.
func Run(eng sim.Engine, c *graph.CSR, initial *tree.Tree, mode Mode, target int) (*Result, error) {
	if err := initial.Validate(c.Source()); err != nil {
		return nil, fmt.Errorf("mdst: initial tree invalid: %w", err)
	}
	protos, rep, err := eng.Run(c, FactoryFromTree(mode, target, initial))
	if err != nil {
		return nil, err
	}
	return extract(c, initial, protos, rep)
}

// Resume continues a checkpointed improvement run: the factory is rebuilt
// from the same initial tree and mode, the engine restores the frozen
// states and pending messages, and the completed Result — tree, report,
// rounds, swaps — is identical to the uninterrupted run's.
func Resume(eng sim.ResumableEngine, c *graph.CSR, initial *tree.Tree, mode Mode, target int, ck *sim.Checkpoint) (*Result, error) {
	if err := initial.Validate(c.Source()); err != nil {
		return nil, fmt.Errorf("mdst: initial tree invalid: %w", err)
	}
	protos, rep, err := eng.Resume(c, FactoryFromTree(mode, target, initial), ck)
	if err != nil {
		return nil, err
	}
	return extract(c, initial, protos, rep)
}

// Extract assembles a Result from final protocol states keyed by node
// identity, as sim.RunCompiled returns them: the map-facing adapter that
// folds the map into the dense extraction.
func Extract(g *graph.Graph, initial *tree.Tree, protos map[sim.NodeID]sim.Protocol, rep *sim.Report) (*Result, error) {
	c := g.Compile()
	dense := make([]sim.Protocol, c.N())
	for id, p := range protos {
		i, ok := c.Index().Of(id)
		if !ok {
			return nil, fmt.Errorf("mdst: state for node %d, not in the graph", id)
		}
		dense[i] = p
	}
	return extract(c, initial, dense, rep)
}

// extract assembles a Result from final protocol states as sim.Engine.Run
// returns them (protos[i] belongs to c.Index().ID(i)). Every state must be
// an mdst node; spanning.ExtractDense reads and checks the tree they hold.
func extract(c *graph.CSR, initial *tree.Tree, protos []sim.Protocol, rep *sim.Report) (*Result, error) {
	rounds, swaps := 0, 0
	for i, p := range protos {
		node, ok := p.(*Node)
		if !ok {
			return nil, fmt.Errorf("mdst: node %d runs %T, not the mdst protocol", c.Index().ID(int32(i)), p)
		}
		rounds = max(rounds, node.Round())
		swaps += node.Swaps()
	}
	d, err := spanning.ExtractDense(c, protos)
	if err != nil {
		return nil, fmt.Errorf("mdst: final tree invalid: %w", err)
	}
	initDeg, _ := initial.MaxDegree()
	finalDeg, _ := d.MaxDegree(nil)
	return &Result{
		Tree:          d.ToTree(),
		Report:        rep,
		Rounds:        rounds,
		Swaps:         swaps,
		InitialDegree: initDeg,
		FinalDegree:   finalDeg,
	}, nil
}
