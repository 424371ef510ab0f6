// Command perfbench is the repository's benchmark of the paper's full
// pipeline: compile, flood initial tree, improvement rounds, extract and
// validate. It drives each layer through its public functions, timing every
// call from outside, on four workloads (see README.md):
//
//	perfbench --workload improve-gnm --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, including the
// per-message breakdown of one separately traced operation. The line before
// it is a report with the host metadata, the seed handling and the
// user-facing figures (pipeline_s or sweep_s, msgs_per_s, error_rate). The
// exit code is non-zero when any operation or check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the repository root; the sweep reads its golden file there.
	root string
	// spansDir receives the traced run's phase spans ("" skips writing).
	spansDir string
	// commit is the source revision the report names.
	commit string
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// tiny shrinks every input to smoke-test size (tests only).
	tiny bool
	// tamper, when set, corrupts the reference bytes operations are
	// checked against (tests only).
	tamper func([]byte) []byte
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-facing last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The end-to-end metrics (--trace 0) with their units.
var endToEnd = []struct{ name, unit string }{
	{"op_s", "s"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int
	errs              []string
	// e2e holds every endToEnd metric.
	e2e map[string]float64
	// layers holds the per-layer metrics a workload measures; the ones it
	// does not apply to are reported as 0.
	layers map[string]float64
	// report holds the user-facing figures of the report line.
	report map[string]any
	spans  []span
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver and whether its inputs
// depend on --seed.
var workloads = map[string]struct {
	run      func(opts options) (*outcome, error)
	seedUsed bool
}{
	"improve-gnm":  {runImproveGnm, true},
	"bound-grid":   {runBoundGrid, false},
	"cluster-grid": {runClusterGrid, false},
	"sweep":        {runSweep, false},
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload: improve-gnm, bound-grid, cluster-grid or sweep")
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opts.seconds, "seconds", 10, "how long the timed loop runs")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.StringVar(&opts.root, "root", ".", "repository root")
	flag.StringVar(&opts.spansDir, "spans-dir", "", "directory the traced run writes its phase spans to")
	flag.StringVar(&opts.commit, "commit", "unknown", "source revision recorded in the report")
	flag.Parse()
	opts.trace = trace == 1
	opts.setups = 3
	os.Exit(run(opts, os.Stdout, os.Stderr))
}

// run executes one benchmark run, prints the report and result lines and
// returns the process exit code.
func run(opts options, stdout, stderr io.Writer) int {
	w, ok := workloads[opts.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", opts.workload)
		return 2
	}
	if opts.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	out, err := w.run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range out.errs {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}

	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if opts.trace {
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{out.layers[l.name], l.unit}
		}
		if err := writeSpans(opts, out.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{out.e2e[m.name], m.unit}
		}
	}

	report := map[string]any{
		"workload":   opts.workload,
		"seed":       opts.seed,
		"seed_used":  w.seedUsed,
		"seed_note":  seedNote(),
		"trace":      opts.trace,
		"host":       hostInfo(opts.commit),
		"attempted":  out.attempted,
		"failed":     out.failed,
		"error_rate": metric{float64(out.failed) / float64(max(out.attempted, 1)), "ratio"},
		"setup_s":    metric{out.e2e["setup_s"], "s"},
		"alloc_mb":   metric{out.e2e["alloc_mb"], "MB"},
	}
	for k, v := range out.report {
		report[k] = v
	}
	if err := printJSON(stdout, map[string]any{"report": report}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// seedNote records which workloads ignore --seed.
func seedNote() string {
	var ignored []string
	for name, w := range workloads {
		if !w.seedUsed {
			ignored = append(ignored, name)
		}
	}
	sort.Strings(ignored)
	return fmt.Sprintf("only improve-gnm's generator takes the seed; %v are fixed by construction", ignored)
}

// hostInfo is the run metadata every report carries. A 1-CPU host cannot
// show a parallel effect, and the report says so.
func hostInfo(commit string) map[string]any {
	return map[string]any{
		"num_cpu":        runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"commit":         commit,
		"parallel_valid": runtime.NumCPU() > 1 && runtime.GOMAXPROCS(0) > 1,
	}
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeSpans stores the traced run's phase spans as JSON.
func writeSpans(opts options, spans []span) error {
	if opts.spansDir == "" {
		return nil
	}
	if err := os.MkdirAll(opts.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(opts.spansDir, fmt.Sprintf("%s-seed%d.json", opts.workload, opts.seed))
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// timedLoop runs op back to back until the time budget is spent, at least
// once, and returns the number of operations run.
func timedLoop(seconds float64, op func(i int)) int {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	n := 0
	for n == 0 || time.Now().Before(deadline) {
		op(n)
		n++
	}
	return n
}
