package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"mdegst"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	mnet "mdegst/internal/net"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
)

// The cluster-grid workload: net.RunPipeline on a 2-process loopback mesh,
// the processes being goroutines of this one OS process joined by one TCP
// connection. The mesh is established once per set-up and reused by every
// timed pipeline.

const clusterProcs = 2

// clusterInput is the compiled graph and its process partition.
type clusterInput struct {
	g          *graph.Graph
	lowerBound int
	c          *graph.CSR
	owner      []int32
}

// establishMesh binds a loopback listener per process and establishes the
// full mesh (dial, hello handshake, fingerprint check).
func establishMesh(in *clusterInput) ([]*mnet.Transport, error) {
	addrs := make([]string, clusterProcs)
	ts := make([]*mnet.Transport, clusterProcs)
	fp := mnet.Fingerprint{Procs: clusterProcs, N: in.c.N(), HalfEdges: in.c.HalfEdges()}
	for i := range ts {
		ln, err := mnet.Listen("127.0.0.1:0")
		if err != nil {
			closeMesh(ts)
			return nil, fmt.Errorf("listen: %w", err)
		}
		addrs[i] = ln.Addr().String()
		ts[i] = mnet.NewTransport(ln, i, addrs, fp)
	}
	errs := make([]error, clusterProcs)
	var wg sync.WaitGroup
	for i, t := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = t.Establish(10 * time.Second)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeMesh(ts)
			return nil, fmt.Errorf("establish: %w", err)
		}
	}
	return ts, nil
}

func closeMesh(ts []*mnet.Transport) {
	for _, t := range ts {
		if t != nil {
			t.Close()
		}
	}
}

// onProcesses runs fn once per process concurrently and returns when all
// have. A failing process closes the mesh so its peer's barrier wait
// returns instead of blocking.
func onProcesses(ts []*mnet.Transport, fn func(i int) error) error {
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for i := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = fn(i); errs[i] != nil {
				closeMesh(ts)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
	}
	return nil
}

// clusterOp runs one distributed pipeline on every process, process 0
// accumulating its wire and barrier counters into stats.
func clusterOp(ts []*mnet.Transport, in *clusterInput, stats *mnet.NetStats) ([]*mnet.PipelineResult, time.Duration, error) {
	res := make([]*mnet.PipelineResult, len(ts))
	start := time.Now()
	err := onProcesses(ts, func(i int) error {
		p := mnet.Pipeline{Mode: mdst.Hybrid, CheckpointRound: -1}
		if i == 0 {
			p.Stats = stats
		}
		r, err := mnet.RunPipeline(ts[i], in.c, in.owner, p)
		if err == nil && r.Result == nil {
			err = fmt.Errorf("pipeline ended without a result")
		}
		res[i] = r
		return err
	})
	return res, time.Since(start), err
}

// checkCluster checks every process's result against the reference bytes.
func checkCluster(in *clusterInput, res []*mnet.PipelineResult, ref []byte) error {
	for i, r := range res {
		if err := checkResult(0, in.g, in.lowerBound, r.Setup, r.Result, ref); err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
	}
	return nil
}

func runClusterGrid(opts options) (*outcome, error) {
	side := 32
	if opts.tiny {
		side = 8
	}
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]any{}}
	g := graph.Grid(side, side)
	in := &clusterInput{g: g, lowerBound: mdegst.DegreeLowerBound(g)}
	// The reference is the in-process facade's summary of the same run.
	fres, err := mdegst.RunCompiled(in.g.Compile(), mdegst.Options{Mode: mdegst.ModeHybrid})
	if err != nil {
		return nil, fmt.Errorf("facade reference run: %w", err)
	}
	var buf bytes.Buffer
	if err := mdegst.WriteTrialSummaries(&buf, []mdegst.TrialSummary{mdegst.NewTrialSummary(0, in.g, fres)}); err != nil {
		return nil, err
	}
	ref := buf.Bytes()
	if opts.tamper != nil {
		ref = opts.tamper(ref)
	}

	setup := samples{}
	clock := newHostClock()
	var setupS []float64
	var ts []*mnet.Transport
	defer func() { closeMesh(ts) }()
	for i := 0; i < opts.setups; i++ {
		closeMesh(ts)
		k := clock.settle()
		t0 := time.Now()
		in.c = in.g.Compile()
		t1 := time.Now()
		part, err := graph.PartitionNamed(in.c, "contiguous", clusterProcs)
		if err != nil {
			return nil, err
		}
		in.owner = part.Owners()
		out.report["cut_edges_share"] = part.CutFraction()
		t2 := time.Now()
		if ts, err = establishMesh(in); err != nil {
			return nil, err
		}
		t3 := time.Now()
		res, _, err := clusterOp(ts, in, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up pipeline: %w", err)
		}
		setup.add("graph.compile_s", t1.Sub(t0))
		setup.add("graph.partition_s", t2.Sub(t1))
		setup.add("net.mesh_s", t3.Sub(t2))
		setupS = append(setupS, time.Since(t2).Seconds()*k)
		if err := checkCluster(in, res, ref); err != nil {
			out.fail("warm-up: %v", err)
		}
	}
	out.e2e["setup_s"] = median(setupS)

	stats := &mnet.NetStats{}
	var walls, refWalls []float64
	var last []*mnet.PipelineResult
	var gc goTotals
	var loopErr error
	log := &spanLog{origin: time.Now()}
	out.attempted = timedLoop(opts.seconds, func(i int) {
		if loopErr != nil {
			return
		}
		k := clock.settle()
		before := readGo()
		t0 := time.Now()
		res, wall, err := clusterOp(ts, in, stats)
		gc.add(before, readGo())
		if err != nil {
			// A failed process closed the mesh: no further operation can run.
			loopErr = err
			out.fail("pipeline %d: %v", i, err)
			return
		}
		walls = append(walls, wall.Seconds())
		refWalls = append(refWalls, wall.Seconds()*k)
		if opts.trace {
			log.add("cluster.pipeline", "", i, t0, t0.Add(wall))
		}
		if err := checkCluster(in, res, ref); err != nil {
			out.fail("pipeline %d: %v", i, err)
		}
		last = res
	})
	if last == nil {
		return out, nil
	}
	r0 := last[0]
	if err := checkTwin(in.c, r0.Initial, mdst.Hybrid, 0, r0.Result.Tree); err != nil {
		out.fail("%v", err)
	}

	opS := median(walls)
	msgs := r0.Setup.Messages + r0.Result.Report.Messages
	allocMB, gcCycles, gcPause := gc.perOp()
	out.e2e["op_s"] = median(refWalls)
	out.report["host_slowdown"] = clock.slowdown()
	out.e2e["alloc_mb"] = allocMB
	out.report["pipeline_s"] = metric{opS, "s"}
	out.report["pipeline_samples"] = len(walls)
	out.report["msgs_per_op"] = msgs
	out.report["msgs_per_s"] = metric{float64(msgs) / opS, "msg/s"}
	out.report["processes"] = clusterProcs

	l := out.layers
	for _, name := range []string{"graph.compile_s", "graph.partition_s", "net.mesh_s"} {
		l[name] = setup.median(name)
	}
	l["spanning.msgs"] = float64(r0.Setup.Messages)
	pipelineLayers(l, r0.Result, in.c.M())
	l["pipeline.msgs_per_s"] = float64(msgs) / opS
	l["go.gc_cycles"], l["go.gc_pause_s"] = gcCycles, gcPause
	n := float64(len(walls))
	barriers := float64(stats.Rounds) / n
	l["net.barriers"] = barriers
	l["net.barrier_wait_s"] = float64(stats.BarrierWaitNs) / 1e9 / n
	l["net.us_per_barrier"] = opS * 1e6 / barriers
	l["net.msgs_per_barrier"] = float64(msgs) / barriers
	l["net.bytes_sent"] = float64(stats.BytesSent) / n
	l["net.header_bytes"] = float64(stats.HeaderBytes) / n
	l["net.frames_sent"] = float64(stats.FramesSent) / n
	l["net.flushes"] = float64(stats.Flushes) / n

	if opts.trace && loopErr == nil {
		if err := tracedCluster(ts, in, opS, out, log); err != nil {
			out.fail("traced run: %v", err)
		}
		out.spans = log.spans
	}
	return out, nil
}

// tracedCluster runs the distributed pipeline's steps by hand on a
// DistEngine per process, with the improvement protocol decorated: the
// same calls net.RunPipeline makes, so that protocol, Send and engine time
// can be split per process. The engine's share is split again into barrier
// wait (from NetStats) and the rest. Deliveries counted across the
// processes must equal the Report's messages exactly.
func tracedCluster(ts []*mnet.Transport, in *clusterInput, untracedS float64, out *outcome, log *spanLog) error {
	trs := make([]*tracer, len(ts))
	stats := make([]*mnet.NetStats, len(ts))
	improveNs := make([]int64, len(ts))
	var rep *sim.Report
	var mu sync.Mutex
	root := in.g.Nodes()[0]
	start := time.Now()
	err := onProcesses(ts, func(i int) error {
		trs[i], stats[i] = &tracer{}, &mnet.NetStats{}
		eng := &mnet.DistEngine{T: ts[i], Owner: in.owner}
		initial, _, err := spanning.BuildCompiled(eng, in.c, spanning.NewFloodFactory(root))
		if err != nil {
			return fmt.Errorf("flood build: %w", err)
		}
		if err := initial.Validate(in.g); err != nil {
			return fmt.Errorf("initial tree: %w", err)
		}
		eng.Stats = stats[i]
		t0 := time.Now()
		protos, r, err := sim.RunCompiled(eng, in.c, trs[i].wrap(mdst.FactoryFromTree(mdst.Hybrid, 0, initial)))
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("improvement: %w", err)
		}
		if protos, err = unwrap(protos); err != nil {
			return err
		}
		if _, err := mdst.Extract(in.g, initial, protos, r); err != nil {
			return fmt.Errorf("extract: %w", err)
		}
		mu.Lock()
		defer mu.Unlock()
		improveNs[i] = t1.Sub(t0).Nanoseconds()
		log.add(fmt.Sprintf("process%d.improve", i), "cluster.traced", -1, t0, t1)
		if i == 0 {
			rep = r
		}
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return err
	}
	log.add("cluster.traced", "", -1, start, start.Add(wall))

	var sum tracer
	var waitNs, totalNs int64
	for i, t := range trs {
		sum.add(t)
		waitNs += stats[i].BarrierWaitNs
		totalNs += improveNs[i]
	}
	if sum.recvs != rep.Messages || sum.sends != rep.Messages {
		return fmt.Errorf("decorators counted %d deliveries and %d sends, Report has %d messages", sum.recvs, sum.sends, rep.Messages)
	}
	nodeNew, recvSelf, engine := sum.split(totalNs)
	if engine -= waitNs; engine < 0 {
		return fmt.Errorf("protocol time and barrier wait exceed the improvement spans by %d ns", -engine)
	}
	msgs := float64(rep.Messages)
	l := out.layers
	l["mdst.recv_ns_per_msg"] = float64(recvSelf) / msgs
	l["mdst.node_new_s"] = float64(nodeNew) / 1e9
	l["sim.send_ns_per_msg"] = float64(sum.sendNs) / msgs
	l["sim.sched_ns_per_msg"] = float64(engine) / msgs
	l["trace.overhead"] = wall.Seconds() / untracedS
	out.report["trace_overhead"] = metric{l["trace.overhead"], "ratio"}
	return nil
}
