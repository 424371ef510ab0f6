package main

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"mdegst/internal/exp"
)

// perLayer lists the per-layer metrics (--trace 1) with their units. Every
// one is printed on every workload; a metric of a layer the workload does
// not exercise reads 0.
var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{
		{"graph.compile_s", "s"},
		{"graph.partition_s", "s"},
		{"spanning.build_s", "s"},
		{"spanning.msgs", "msg"},
		{"tree.validate_s", "s"},
		{"mdst.factory_s", "s"},
		{"mdst.extract_s", "s"},
		{"mdst.rounds", "count"},
		{"mdst.swaps", "count"},
		{"mdst.k_initial", "count"},
		{"mdst.k_final", "count"},
		{"mdst.swaps_per_round", "ratio"},
		{"mdst.msgs_per_round_per_edge", "ratio"},
		{"mdst.recv_ns_per_msg", "ns"},
		{"mdst.node_new_s", "s"},
		{"sim.improve_s", "s"},
		{"sim.msgs", "msg"},
		{"sim.words", "words"},
		{"sim.causal_depth", "ticks"},
		{"sim.deliveries_per_tick", "msg/tick"},
		{"sim.send_ns_per_msg", "ns"},
		{"sim.sched_ns_per_msg", "ns"},
		{"pipeline.msgs_per_s", "msg/s"},
		{"net.mesh_s", "s"},
		{"net.barriers", "count"},
		{"net.barrier_wait_s", "s"},
		{"net.us_per_barrier", "us"},
		{"net.msgs_per_barrier", "msg"},
		{"net.bytes_sent", "bytes"},
		{"net.header_bytes", "bytes"},
		{"net.frames_sent", "count"},
		{"net.flushes", "count"},
		{"exp.trials", "count"},
	}
	for _, id := range exp.IDs() {
		l = append(l, struct{ name, unit string }{"exp.table_done_s." + id, "s"})
	}
	return append(l, []struct{ name, unit string }{
		{"go.gc_cycles", "count"},
		{"go.gc_pause_s", "s"},
		{"trace.overhead", "ratio"},
		{"trace.unattributed", "ratio"},
	}...)
}()

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// samples collects named durations, one per operation.
type samples map[string][]float64

func (s samples) add(name string, d time.Duration) { s[name] = append(s[name], d.Seconds()) }

func (s samples) median(name string) float64 { return median(s[name]) }

// goSnap is a reading of the Go runtime's allocation and GC counters.
type goSnap struct {
	alloc, pauseNs, cycles uint64
}

var gcCycles = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}

func readGo() goSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCycles)
	return goSnap{alloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs, cycles: gcCycles[0].Value.Uint64()}
}

// goTotals sums the Go counters over the timed operations only.
type goTotals struct {
	ops                    int
	alloc, pauseNs, cycles uint64
}

func (t *goTotals) add(a, b goSnap) {
	t.ops++
	t.alloc += b.alloc - a.alloc
	t.pauseNs += b.pauseNs - a.pauseNs
	t.cycles += b.cycles - a.cycles
}

// perOp returns the per-operation figures: allocated MB, GC cycles and GC
// pause seconds.
func (t *goTotals) perOp() (allocMB, cycles, pauseS float64) {
	n := float64(max(t.ops, 1))
	return float64(t.alloc) / 1e6 / n, float64(t.cycles) / n, float64(t.pauseNs) / 1e9 / n
}

// calRefS is the calibration kernel's median time on a quiet 2-CPU x86-64
// host with go1.24.0: the reference speed timed figures are expressed at.
const calRefS = 0.07

// hostClock corrects timed figures for the host's speed at the moment they
// are taken. On a shared host the same operation runs up to 35% slower for
// minutes at a time, and the slowdown hits unrelated code alike: a fixed
// kernel that touches none of the repository's code (map inserts and
// lookups, a sort) slows with it. Timing the kernel right before every
// operation and scaling the operation's wall time by calRefS / kernel time
// cuts the spread between runs of the same code from about 0.16 to 0.05.
// The kernel allocates nothing after construction, so the program under
// test cannot change its cost through the heap it leaves behind.
type hostClock struct {
	keys, buf []int64
	m         map[int64]int64
	sink      int64
	kernelS   []float64
}

func newHostClock() *hostClock {
	r := rand.New(rand.NewSource(1))
	h := &hostClock{keys: make([]int64, 200000), buf: make([]int64, 200000)}
	for i := range h.keys {
		h.keys[i] = r.Int63()
	}
	h.m = make(map[int64]int64, len(h.keys))
	h.kernel()
	return h
}

func (h *hostClock) kernel() time.Duration {
	t0 := time.Now()
	clear(h.m)
	for i, k := range h.keys {
		h.m[k] = int64(i)
	}
	for _, k := range h.keys {
		h.sink += h.m[k] + h.m[k^1]
	}
	copy(h.buf, h.keys)
	slices.Sort(h.buf)
	h.sink += h.buf[0]
	return time.Since(t0)
}

// settle runs before every timed operation and set-up, outside their
// timing: it collects the heap, so no operation pays for the previous one's
// garbage, times the kernel and returns the factor converting the wall
// time measured next into reference seconds.
func (h *hostClock) settle() float64 {
	runtime.GC()
	d := h.kernel().Seconds()
	h.kernelS = append(h.kernelS, d)
	return calRefS / d
}

// slowdown is the host's median speed during the run relative to the
// reference (above 1: slower).
func (h *hostClock) slowdown() float64 { return median(h.kernelS) / calRefS }
