package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mdegst/internal/exp"
)

// The sweep workload: the quick experiment harness over all 13 tables,
// Parallel = the host's CPU count. Its output must equal the golden file
// byte for byte.

// goldenPath is the quick sweep's golden output, relative to the root.
const goldenPath = "internal/exp/testdata/quick_golden.json"

// sweepRun is one sweep's output and timings.
type sweepRun struct {
	json        []byte
	start       time.Time
	wall        time.Duration
	trials      int
	tableDoneAt map[string]time.Duration // elapsed when each table's last trial finished
}

// sweepOp runs one sweep and renders its tables as JSON.
func sweepOp() (*sweepRun, error) {
	cfg := exp.Quick()
	sr := &sweepRun{tableDoneAt: map[string]time.Duration{}}
	r := &exp.Runner{Config: cfg, Parallel: runtime.NumCPU(), Progress: func(e exp.ProgressEvent) {
		sr.trials++
		if e.Done == e.Total {
			sr.tableDoneAt[e.Experiment] = e.Elapsed
		}
	}}
	sr.start = time.Now()
	tables, err := r.Run(nil)
	sr.wall = time.Since(sr.start)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := exp.NewResultSet(cfg, tables).WriteJSON(&b); err != nil {
		return nil, err
	}
	sr.json = b.Bytes()
	return sr, nil
}

func runSweep(opts options) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]any{}}
	golden, err := os.ReadFile(filepath.Join(opts.root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	if opts.tamper != nil {
		golden = opts.tamper(golden)
	}
	check := func(i int, got []byte) {
		if !bytes.Equal(got, golden) {
			out.fail("sweep %d: output differs from %s (%d vs %d bytes)", i, goldenPath, len(got), len(golden))
		}
	}

	clock := newHostClock()
	var setupS []float64
	for i := 0; i < opts.setups; i++ {
		k := clock.settle()
		t0 := time.Now()
		sr, err := sweepOp()
		if err != nil {
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds()*k)
		check(-1, sr.json)
	}
	out.e2e["setup_s"] = median(setupS)

	var walls, refWalls []float64
	tables := samples{}
	trials := 0
	var gc goTotals
	log := &spanLog{origin: time.Now()}
	out.attempted = timedLoop(opts.seconds, func(i int) {
		k := clock.settle()
		before := readGo()
		sr, err := sweepOp()
		gc.add(before, readGo())
		if err != nil {
			out.fail("sweep %d: %v", i, err)
			return
		}
		walls = append(walls, sr.wall.Seconds())
		refWalls = append(refWalls, sr.wall.Seconds()*k)
		trials = sr.trials
		if opts.trace {
			log.add("sweep", "", i, sr.start, sr.start.Add(sr.wall))
		}
		for id, d := range sr.tableDoneAt {
			tables.add(id, d)
			if opts.trace {
				log.add("table."+id, "sweep", i, sr.start, sr.start.Add(d))
			}
		}
		check(i, sr.json)
	})
	if len(walls) == 0 {
		return out, nil
	}
	opS := median(walls)
	allocMB, gcCycles, gcPause := gc.perOp()
	out.e2e["op_s"] = median(refWalls)
	out.report["host_slowdown"] = clock.slowdown()
	out.e2e["alloc_mb"] = allocMB
	out.report["sweep_s"] = metric{opS, "s"}
	out.report["sweep_samples"] = len(walls)
	out.report["parallel"] = runtime.NumCPU()

	l := out.layers
	l["exp.trials"] = float64(trials)
	for _, id := range exp.IDs() {
		l["exp.table_done_s."+id] = tables.median(id)
	}
	l["go.gc_cycles"], l["go.gc_pause_s"] = gcCycles, gcPause
	out.spans = log.spans
	return out, nil
}
