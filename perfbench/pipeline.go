package main

import (
	"bytes"
	"fmt"
	"time"

	"mdegst"
	"mdegst/internal/fr"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// The in-process pipeline, driven step by step through each layer's public
// functions: Compile, the flood build, the initial Validate,
// FactoryFromTree, the improvement RunCompiled and Extract (which
// validates the final tree). Each step is timed from outside.

// pipeSteps names the pipeline's steps in order, by the metric each feeds.
var pipeSteps = []string{"graph.compile_s", "spanning.build_s", "tree.validate_s", "mdst.factory_s", "sim.improve_s", "mdst.extract_s"}

// pipeInput is one pipeline workload's generated input.
type pipeInput struct {
	g    *graph.Graph
	root graph.NodeID // flood root: the minimum insertion-order node
	seed int64        // recorded in the trial summary
	// lowerBound is the summary's degree lower bound (0: not computed).
	lowerBound int
	mode       mdst.Mode
	target     int
	// refMsgs, when positive, scales op_s to a pipeline of that many
	// messages (see runImproveGnm).
	refMsgs int64
}

// pipeOut is one pipeline operation's output and step timings.
type pipeOut struct {
	c       *graph.CSR
	initial *tree.Tree
	setup   *sim.Report
	res     *mdst.Result
	start   time.Time
	ends    []time.Time // ends[i] closes pipeSteps[i]
	// improveEnd closes the improvement run proper; in a traced run the
	// decorator is unwrapped between it and Extract.
	improveEnd time.Time
}

func (o *pipeOut) wall() time.Duration { return o.ends[len(o.ends)-1].Sub(o.start) }

func (o *pipeOut) step(i int) time.Duration {
	from := o.start
	if i > 0 {
		from = o.ends[i-1]
	}
	return o.ends[i].Sub(from)
}

func (o *pipeOut) msgs() int64 { return o.setup.Messages + o.res.Report.Messages }

// runPipeline executes one pipeline on a fresh unit-delay engine (the
// facade's default). A non-nil tracer decorates the improvement protocol.
func runPipeline(in *pipeInput, tr *tracer) (*pipeOut, error) {
	eng := mdegst.NewUnitEngine()
	out := &pipeOut{ends: make([]time.Time, 0, len(pipeSteps)), start: time.Now()}
	lap := func() { out.ends = append(out.ends, time.Now()) }

	c := in.g.Compile()
	lap()
	initial, setup, err := spanning.BuildCompiled(eng, c, spanning.NewFloodFactory(in.root))
	lap()
	if err != nil {
		return nil, fmt.Errorf("flood build: %w", err)
	}
	err = initial.Validate(in.g)
	lap()
	if err != nil {
		return nil, fmt.Errorf("initial tree: %w", err)
	}
	f := mdst.FactoryFromTree(in.mode, in.target, initial)
	lap()
	if tr != nil {
		f = tr.wrap(f)
	}
	protos, rep, err := sim.RunCompiled(eng, c, f)
	out.improveEnd = time.Now()
	if err == nil && tr != nil {
		protos, err = unwrap(protos)
	}
	lap()
	if err != nil {
		return nil, fmt.Errorf("improvement: %w", err)
	}
	res, err := mdst.Extract(in.g, initial, protos, rep)
	lap()
	if err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	out.c, out.initial, out.setup, out.res = c, initial, setup, res
	return out, nil
}

// summaryJSON renders a pipeline's mdegst.TrialSummary, the byte form the
// command-line tools print and the checks compare. The fields are those
// mdegst.NewTrialSummary fills, except that the degree lower bound is
// passed in: exact.DegreeLowerBound runs n graph searches, 10^10 steps on
// bound-grid, so each workload computes it once or not at all.
func summaryJSON(seed int64, g *graph.Graph, lowerBound int, setup *sim.Report, r *mdst.Result) ([]byte, error) {
	total := sim.NewReport()
	total.Add(r.Report)
	total.Add(setup)
	s := mdegst.TrialSummary{
		Seed:           seed,
		N:              g.N(),
		M:              g.M(),
		GraphMaxDegree: g.MaxDegree(),
		InitialDegree:  r.InitialDegree,
		FinalDegree:    r.FinalDegree,
		LowerBound:     lowerBound,
		Rounds:         r.Rounds,
		Swaps:          r.Swaps,
		SetupMessages:  setup.Messages,
		TotalMessages:  total.Messages,
		TotalWords:     total.Words,
		MaxWords:       total.MaxWords,
		CausalDepth:    r.Report.CausalDepth,
		Shards:         total.Shards,
	}
	var b bytes.Buffer
	if err := mdegst.WriteTrialSummaries(&b, []mdegst.TrialSummary{s}); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// checkResult is the per-operation output check shared by the pipeline
// workloads: the final tree passed Validate inside Extract, the degree
// never went up, and the summary equals the reference bytes.
func checkResult(seed int64, g *graph.Graph, lowerBound int, setup *sim.Report, r *mdst.Result, ref []byte) error {
	if r.FinalDegree > r.InitialDegree {
		return fmt.Errorf("k_final %d > k_initial %d", r.FinalDegree, r.InitialDegree)
	}
	got, err := summaryJSON(seed, g, lowerBound, setup, r)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("trial summary differs from the reference:\n%s\nwant:\n%s", got, ref)
	}
	return nil
}

// checkTwin compares the final tree with the sequential twin's, which
// replays the protocol's decisions without messages.
func checkTwin(c *graph.CSR, initial *tree.Tree, mode mdst.Mode, target int, final *tree.Tree) error {
	tw, _, err := fr.TwinTargetSnapshot(c, initial, mode, target)
	if err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	if !tw.SameEdges(final) {
		return fmt.Errorf("final tree differs from fr.TwinTargetSnapshot's")
	}
	return nil
}

// gnmBatch is how many Gnm graphs one improve-gnm run cycles through.
// Graphs of one size differ from seed to seed in their time per message and,
// by up to 1.8x, in their allocation (map growth steps with the round
// count); a run averages over the batch so that the figures of different
// seeds agree.
const gnmBatch = 8

// runImproveGnm is the per-message workload: Gnm(1024, 3072, s), Hybrid to
// local optimality, for the gnmBatch generator seeds s = seed*gnmBatch+i.
// The message count varies up to 1.7x across seeds, so each pipeline's time
// is scaled to the 6,413,462 messages of the Gnm(1024, 3072, 1) pipeline:
// its time per message times that reference count.
func runImproveGnm(opts options) (*outcome, error) {
	n, m, ref := 1024, 3072, int64(6413462)
	if opts.tiny {
		n, m, ref = 64, 192, 0
	}
	batch := make([]*pipeInput, gnmBatch)
	for i := range batch {
		seed := opts.seed*gnmBatch + int64(i)
		g := graph.Gnm(n, m, seed)
		batch[i] = &pipeInput{g: g, root: g.Nodes()[0], seed: seed, lowerBound: mdegst.DegreeLowerBound(g), mode: mdst.Hybrid, refMsgs: ref}
	}
	return runPipelineWorkload(opts, batch)
}

// runBoundGrid is the build-path workload: the bounded-degree variant
// (target 3) on a 316x316 grid, whose flood tree already has degree 3. Its
// summary leaves the degree lower bound out (see summaryJSON).
func runBoundGrid(opts options) (*outcome, error) {
	side := 316
	if opts.tiny {
		side = 12
	}
	g := graph.Grid(side, side)
	return runPipelineWorkload(opts, []*pipeInput{{g: g, root: g.Nodes()[0], mode: mdst.Hybrid, target: 3}})
}

// batchRuns collects the timed pipelines of one input of a batch.
type batchRuns struct {
	ref   []byte    // the warm-up's summary, the reference of every check
	walls []float64 // reference seconds, scaled by the input's refMsgs
	gc    goTotals
	last  *pipeOut
}

// runPipelineWorkload sets up (warm-up pipelines whose summaries become the
// references, at least one per input), runs pipelines back to back for the
// time budget, cycling through the batch, checks each one, and in a traced
// run adds one decorated pipeline on the first input. Figures are means
// over the inputs of each input's median or per-operation mean.
func runPipelineWorkload(opts options, batch []*pipeInput) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]any{}}
	runs := make([]batchRuns, len(batch))
	clock := newHostClock()
	var setupS []float64
	for i := 0; i < max(opts.setups, len(batch)); i++ {
		in, r := batch[i%len(batch)], &runs[i%len(batch)]
		k := clock.settle()
		t0 := time.Now()
		w, err := runPipeline(in, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up pipeline: %w", err)
		}
		got, err := summaryJSON(in.seed, in.g, in.lowerBound, w.setup, w.res)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds()*k)
		if r.ref != nil && !bytes.Equal(got, r.ref) {
			out.fail("warm-up pipelines disagree:\n%s\nvs\n%s", got, r.ref)
		}
		r.ref = got
	}
	out.e2e["setup_s"] = median(setupS)
	if opts.tamper != nil {
		for i := range runs {
			runs[i].ref = opts.tamper(runs[i].ref)
		}
	}

	steps := samples{}
	var raw []float64 // unscaled walls of the first input
	log := &spanLog{origin: time.Now()}
	out.attempted = timedLoop(opts.seconds, func(i int) {
		in, r := batch[i%len(batch)], &runs[i%len(batch)]
		k := clock.settle()
		before := readGo()
		o, err := runPipeline(in, nil)
		r.gc.add(before, readGo())
		if err != nil {
			out.fail("pipeline %d: %v", i, err)
			return
		}
		scale := k
		if in.refMsgs > 0 {
			scale *= float64(in.refMsgs) / float64(o.msgs())
		}
		r.walls = append(r.walls, o.wall().Seconds()*scale)
		if r == &runs[0] {
			raw = append(raw, o.wall().Seconds())
		}
		for s, name := range pipeSteps {
			steps.add(name, o.step(s))
		}
		if opts.trace {
			log.add("pipeline", "", i, o.start, o.ends[len(o.ends)-1])
			for s, name := range pipeSteps {
				log.add(name, "pipeline", i, o.ends[s].Add(-o.step(s)), o.ends[s])
			}
		}
		// The output check runs outside the operation's timing.
		if err := checkResult(in.seed, in.g, in.lowerBound, o.setup, o.res, r.ref); err != nil {
			out.fail("pipeline %d: %v", i, err)
		}
		r.last = o
	})

	var opS, allocMB, gcCycles, gcPause, ran float64
	for i, r := range runs {
		if r.last == nil {
			continue
		}
		if err := checkTwin(r.last.c, r.last.initial, batch[i].mode, batch[i].target, r.last.res.Tree); err != nil {
			out.fail("%v", err)
		}
		a, c, p := r.gc.perOp()
		opS, allocMB, gcCycles, gcPause, ran = opS+median(r.walls), allocMB+a, gcCycles+c, gcPause+p, ran+1
	}
	last := runs[0].last
	if last == nil {
		return out, nil
	}
	out.e2e["op_s"] = opS / ran
	out.e2e["alloc_mb"] = allocMB / ran
	pipeS := median(raw)
	msgs := last.msgs()
	out.report["pipeline_s"] = metric{pipeS, "s"}
	out.report["pipeline_samples"] = len(raw)
	out.report["msgs_per_op"] = msgs
	out.report["msgs_per_s"] = metric{float64(msgs) / pipeS, "msg/s"}
	out.report["host_slowdown"] = clock.slowdown()
	if len(batch) > 1 {
		out.report["figures_of"] = fmt.Sprintf("pipeline_s, msgs_per_op, msgs_per_s and the per-layer counters: the first of the %d graphs", len(batch))
	}

	l := out.layers
	for _, name := range pipeSteps {
		l[name] = steps.median(name)
	}
	l["spanning.msgs"] = float64(last.setup.Messages)
	pipelineLayers(l, last.res, last.c.M())
	l["pipeline.msgs_per_s"] = float64(msgs) / pipeS
	l["go.gc_cycles"], l["go.gc_pause_s"] = gcCycles/ran, gcPause/ran

	if opts.trace {
		if err := tracedPipeline(batch[0], pipeS, out, log); err != nil {
			out.fail("traced run: %v", err)
		}
		out.spans = log.spans
	}
	return out, nil
}

// pipelineLayers fills the mdst and sim counters of one improvement run.
func pipelineLayers(l map[string]float64, r *mdst.Result, edges int) {
	rep := r.Report
	l["mdst.rounds"] = float64(r.Rounds)
	l["mdst.swaps"] = float64(r.Swaps)
	l["mdst.k_initial"] = float64(r.InitialDegree)
	l["mdst.k_final"] = float64(r.FinalDegree)
	l["mdst.swaps_per_round"] = float64(r.Swaps) / float64(r.Rounds)
	l["mdst.msgs_per_round_per_edge"] = float64(rep.Messages) / float64(r.Rounds) / float64(edges)
	l["sim.msgs"] = float64(rep.Messages)
	l["sim.words"] = float64(rep.Words)
	l["sim.causal_depth"] = float64(rep.CausalDepth)
	l["sim.deliveries_per_tick"] = float64(rep.Messages) / float64(rep.CausalDepth)
}

// tracedPipeline runs one decorated pipeline and splits its improvement
// span into protocol construction, protocol Recv (self time), Context.Send
// and the engine (scheduling, delivery, report accounting: the
// improvement wall minus all protocol time). It checks that the decorator
// counted exactly the Report's deliveries and that the spans account for
// the traced wall time to within 10%.
func tracedPipeline(in *pipeInput, untracedS float64, out *outcome, log *spanLog) error {
	tr := &tracer{}
	o, err := runPipeline(in, tr)
	if err != nil {
		return err
	}
	rep := o.res.Report
	if tr.recvs != rep.Messages || tr.sends != rep.Messages {
		return fmt.Errorf("decorator counted %d deliveries and %d sends, Report has %d messages", tr.recvs, tr.sends, rep.Messages)
	}
	const op = -1 // the traced operation's span id
	improveStart := o.ends[3]
	improveNs := o.improveEnd.Sub(improveStart).Nanoseconds()
	nodeNew, recvSelf, sched := tr.split(improveNs)
	if sched < 0 {
		return fmt.Errorf("protocol time %d ns exceeds the improvement span %d ns", improveNs-sched, improveNs)
	}
	// Self times: the outer steps other than the improvement, plus the
	// four layers the improvement run splits into. The engine share is the
	// improvement run's remainder, so what stays unattributed is the time
	// between the spans, the decorator's unwrap included.
	sum := nodeNew + recvSelf + tr.sendNs + sched
	for s, name := range pipeSteps {
		if name != "sim.improve_s" {
			sum += o.step(s).Nanoseconds()
		}
	}
	wall := o.wall().Nanoseconds()
	unattributed := float64(wall-sum) / float64(wall)
	if unattributed > 0.10 || unattributed < -0.10 {
		return fmt.Errorf("layer self times sum to %d ns, traced wall is %d ns", sum, wall)
	}

	msgs := float64(rep.Messages)
	l := out.layers
	l["mdst.recv_ns_per_msg"] = float64(recvSelf) / msgs
	l["mdst.node_new_s"] = float64(nodeNew) / 1e9
	l["sim.send_ns_per_msg"] = float64(tr.sendNs) / float64(tr.sends)
	l["sim.sched_ns_per_msg"] = float64(sched) / msgs
	l["trace.overhead"] = o.wall().Seconds() / untracedS
	l["trace.unattributed"] = unattributed
	out.report["trace_overhead"] = metric{l["trace.overhead"], "ratio"}

	log.add("pipeline.traced", "", op, o.start, o.ends[len(o.ends)-1])
	for s, name := range pipeSteps {
		log.add(name, "pipeline.traced", op, o.ends[s].Add(-o.step(s)), o.ends[s])
	}
	return nil
}
