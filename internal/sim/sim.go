// Package sim simulates the paper's network model: a static asynchronous
// point-to-point network of named processors that communicate only along the
// edges of an undirected graph, with no shared memory, no global clock, and
// event-driven nodes.
//
// Three interchangeable in-process engines execute a Protocol over a graph:
//
//   - EventEngine: a deterministic, seeded discrete-event simulator. With
//     UnitDelay it realises exactly the paper's time-complexity measure (the
//     longest chain of causally dependent messages, each taking one time
//     unit); with randomised delays it acts as an asynchrony adversary while
//     staying reproducible. Scheduling exploits the model's bounded delays
//     (DESIGN.md §6): unit-delay runs execute as synchronous double-buffered
//     rounds, randomised delays go through an O(1) calendar/bucket queue
//     over the (now, now+1] delivery window — pooled scratch and
//     slice-indexed FIFO clamps keep the hot path allocation-free because
//     the experiment harness runs it thousands of times per sweep.
//   - ReferenceEngine: the straightforward implementation the other
//     engines are differentially tested and benchmarked against; same
//     semantics, none of the optimisations.
//   - AsyncEngine: every node is a goroutine, every link a FIFO mailbox, so
//     message interleaving comes from the Go scheduler — true concurrency
//     for race detection and delivery-order-independence tests.
//
// EventEngine's unit-delay tier also has a networked twin: DistRunner
// (dist.go) plays one process's part of the same round schedule, and
// internal/net's DistEngine runs it across a TCP mesh with byte-identical
// results.
//
// Messages travel as flat wire records (wire.go): each protocol registers
// an opcode schema and sends WireMsg values — an opcode plus up to a few
// int64 payload words — so engines carry pointer-free delivery slabs, the
// report keys off opcodes, and the in-flight state of a run serialises
// byte-exactly (checkpoint.go, tracebin.go).
//
// All engines produce a Report with message counts (total, by kind, by
// round), message sizes in O(log n)-bit words, the causal depth (asynchronous
// time complexity) and, for the event engine, the virtual completion time.
package sim

import (
	"fmt"
	"slices"

	"mdegst/internal/graph"
)

// NodeID identifies a processor; it is the graph's node identity.
type NodeID = graph.NodeID

// Protocol is the state machine run at one node. Init fires once when the
// node starts (the algorithm "is started independently by all nodes");
// Recv fires for every delivered message — a flat WireMsg the protocol
// decodes at its boundary (see wire.go). Both may send messages through the
// Context. Engines guarantee that Init and all Recv calls for one node are
// serialised.
type Protocol interface {
	Init(ctx Context)
	Recv(ctx Context, from NodeID, m WireMsg)
}

// Context is a node's interface to the network. Sends are restricted to
// graph neighbours, enforcing the point-to-point model.
type Context interface {
	// ID returns this node's identity.
	ID() NodeID
	// Neighbors returns this node's adjacent nodes in ascending order.
	// Nodes know their neighbours' identities, as the paper assumes.
	Neighbors() []NodeID
	// Send queues m for delivery to a neighbouring node. Sending to a
	// non-neighbour panics: it is a protocol bug, not a runtime condition.
	Send(to NodeID, m WireMsg)
	// Logf records a trace note if tracing is enabled, else does nothing.
	Logf(format string, args ...any)
}

// Factory creates the protocol instance for one node. The neighbour list is
// ascending and must not be modified.
type Factory func(id NodeID, neighbors []NodeID) Protocol

// Engine runs a protocol over a graph until global quiescence (no messages
// in flight, all handlers idle) and returns the final protocol instance of
// every node plus the run report.
type Engine interface {
	Run(g *graph.Graph, f Factory) (map[NodeID]Protocol, *Report, error)
}

// SnapshotEngine is implemented by engines that execute directly over a
// compiled CSR snapshot, addressing all per-node and per-link state by the
// snapshot's dense index. Compiling once and running many times is the hot
// path of the experiment harness: the snapshot is immutable and safe to
// share across runs, trials and goroutines. All engines in this package
// implement it; Engine.Run(g, f) is equivalent to
// RunSnapshot(g.Compile(), f).
type SnapshotEngine interface {
	Engine
	RunSnapshot(c *graph.CSR, f Factory) (map[NodeID]Protocol, *Report, error)
}

// RunCompiled executes f over the snapshot on eng, using the dense fast path
// when the engine supports it and falling back to the snapshot's source
// graph for third-party engines.
func RunCompiled(eng Engine, c *graph.CSR, f Factory) (map[NodeID]Protocol, *Report, error) {
	if se, ok := eng.(SnapshotEngine); ok {
		return se.RunSnapshot(c, f)
	}
	return eng.Run(c.Source(), f)
}

// DenseSnapshotEngine is implemented by engines whose snapshot path can hand
// the final protocol instances back as a dense slice — protos[i] belongs to
// c.Index().ID(i) — skipping the map materialisation of RunSnapshot. The
// engines address all state densely anyway; on a million-node workload the
// identity-keyed result map is the single largest allocation of a quiesced
// run, and consumers like spanning tree extraction immediately index the
// states densely again.
type DenseSnapshotEngine interface {
	SnapshotEngine
	RunSnapshotDense(c *graph.CSR, f Factory) ([]Protocol, *Report, error)
}

// RunCompiledDense executes f over the snapshot on eng and returns the final
// protocol instances dense-indexed. Engines implementing DenseSnapshotEngine
// take the map-free path; anything else runs through RunCompiled and the map
// result is folded down.
func RunCompiledDense(eng Engine, c *graph.CSR, f Factory) ([]Protocol, *Report, error) {
	if de, ok := eng.(DenseSnapshotEngine); ok {
		return de.RunSnapshotDense(c, f)
	}
	byID, rep, err := RunCompiled(eng, c, f)
	if err != nil {
		return nil, nil, err
	}
	idx := c.Index()
	protos := make([]Protocol, c.N())
	for id, p := range byID {
		di, ok := idx.Of(id)
		if !ok {
			return nil, nil, fmt.Errorf("sim: engine returned state for node %d, not in the snapshot", id)
		}
		protos[di] = p
	}
	return protos, rep, nil
}

// denseProtoMap materialises the map view of a dense protocol slice.
func denseProtoMap(ids []NodeID, protos []Protocol) map[NodeID]Protocol {
	m := make(map[NodeID]Protocol, len(protos))
	for i, p := range protos {
		m[ids[i]] = p
	}
	return m
}

// TraceEvent describes one observable simulator step for tools that render
// waves (for example the Figure 2 reproduction).
type TraceEvent struct {
	Time  float64 // virtual delivery time (event engine only)
	Depth int64   // causal depth of the delivery
	From  NodeID
	To    NodeID
	Msg   WireMsg // zero (Msg.IsZero()) for Logf notes
	Note  string
}

// IsMessage reports whether the event is a delivery (as opposed to a Logf
// note).
func (e TraceEvent) IsMessage() bool { return !e.Msg.IsZero() }

func (e TraceEvent) String() string {
	if !e.IsMessage() {
		return fmt.Sprintf("t=%6.2f  %d: %s", e.Time, e.To, e.Note)
	}
	return fmt.Sprintf("t=%6.2f  %d -> %d  %s(%d words)", e.Time, e.From, e.To, e.Msg.Kind(), e.Msg.Words())
}

// checkNeighbor enforces the point-to-point model on every fallback-path
// Send. Neighbour lists are ascending (the CSR invariant), so membership is
// a binary search rather than a linear scan — ReferenceEngine pays this on
// every message, and hub nodes of the heavy-tailed workloads have degrees
// in the hundreds.
func checkNeighbor(neighbors []NodeID, from, to NodeID) {
	if _, ok := slices.BinarySearch(neighbors, to); !ok {
		panic(fmt.Sprintf("sim: node %d sent to non-neighbour %d", from, to))
	}
}
