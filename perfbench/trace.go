package main

import (
	"fmt"
	"time"

	"mdegst/internal/sim"
)

// span is one recorded phase: a layer call timed from outside, relative to
// the start of the run. Spans of one operation share Op.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Op      int    `json:"op"`
}

// spanLog records spans against a fixed origin.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(name, parent string, op int, start, end time.Time) {
	l.spans = append(l.spans, span{name, start.Sub(l.origin).Nanoseconds(), end.Sub(l.origin).Nanoseconds(), parent, op})
}

// tracer accumulates the per-message layers of one traced improvement run:
// protocol construction and Init, protocol Recv and Context.Send. Every
// delivery and every send is timed, so the counts are exact and the times
// carry the instrumentation's own cost (reported as trace.overhead).
type tracer struct {
	factoryNs, initNs int64 // factory calls; Init including nested sends
	recvNs            int64 // Recv including nested sends
	sendInRecvNs      int64 // the part of recvNs spent inside Send
	sendNs            int64 // every Send
	recvs, sends      int64
}

// add accumulates o into t (the processes of a distributed run).
func (t *tracer) add(o *tracer) {
	t.factoryNs += o.factoryNs
	t.initNs += o.initNs
	t.recvNs += o.recvNs
	t.sendInRecvNs += o.sendInRecvNs
	t.sendNs += o.sendNs
	t.recvs += o.recvs
	t.sends += o.sends
}

// split divides an improvement span of spanNs into protocol construction
// (factory calls plus Init self time), Recv self time and the engine's
// share, the remainder once all protocol time is taken out. Send time is
// t.sendNs.
func (t *tracer) split(spanNs int64) (nodeNew, recvSelf, engine int64) {
	nodeNew = t.factoryNs + t.initNs - (t.sendNs - t.sendInRecvNs)
	recvSelf = t.recvNs - t.sendInRecvNs
	engine = spanNs - t.factoryNs - t.initNs - t.recvNs
	return nodeNew, recvSelf, engine
}

// wrap decorates a factory so every protocol instance it makes reports to t.
func (t *tracer) wrap(f sim.Factory) sim.Factory {
	return func(id sim.NodeID, nbrs []sim.NodeID) sim.Protocol {
		t0 := time.Now()
		p := f(id, nbrs)
		t.factoryNs += time.Since(t0).Nanoseconds()
		tp := &tracedProto{inner: p, t: t}
		tp.ctx.t = t
		return tp
	}
}

// unwrap returns the protocol instances the decorator wrapped, so result
// extraction sees the protocol's own types.
func unwrap(protos map[sim.NodeID]sim.Protocol) (map[sim.NodeID]sim.Protocol, error) {
	out := make(map[sim.NodeID]sim.Protocol, len(protos))
	for id, p := range protos {
		tp, ok := p.(*tracedProto)
		if !ok {
			return nil, fmt.Errorf("node %d runs %T, not the traced decorator", id, p)
		}
		out[id] = tp.inner
	}
	return out, nil
}

// tracedProto wraps one protocol instance. It keeps a reusable context
// wrapper so tracing allocates nothing per delivery.
type tracedProto struct {
	inner sim.Protocol
	t     *tracer
	ctx   tracedCtx
}

func (p *tracedProto) Init(ctx sim.Context) {
	p.ctx.Context = ctx
	t0 := time.Now()
	p.inner.Init(&p.ctx)
	p.t.initNs += time.Since(t0).Nanoseconds()
}

func (p *tracedProto) Recv(ctx sim.Context, from sim.NodeID, m sim.WireMsg) {
	p.ctx.Context = ctx
	sendBefore := p.t.sendNs
	t0 := time.Now()
	p.inner.Recv(&p.ctx, from, m)
	p.t.recvNs += time.Since(t0).Nanoseconds()
	p.t.sendInRecvNs += p.t.sendNs - sendBefore
	p.t.recvs++
}

// EncodeState and DecodeState forward sim.StateCodec, which barrier
// checkpoints and the distributed engine's final all-gather require.
func (p *tracedProto) EncodeState(e *sim.StateEncoder) {
	p.inner.(sim.StateCodec).EncodeState(e)
}

func (p *tracedProto) DecodeState(d *sim.StateDecoder) error {
	sc, ok := p.inner.(sim.StateCodec)
	if !ok {
		return fmt.Errorf("protocol %T does not implement sim.StateCodec", p.inner)
	}
	return sc.DecodeState(d)
}

// tracedCtx times Context.Send.
type tracedCtx struct {
	sim.Context
	t *tracer
}

func (c *tracedCtx) Send(to sim.NodeID, m sim.WireMsg) {
	t0 := time.Now()
	c.Context.Send(to, m)
	c.t.sendNs += time.Since(t0).Nanoseconds()
	c.t.sends++
}
