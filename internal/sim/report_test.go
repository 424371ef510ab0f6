package sim

import (
	"reflect"
	"testing"
)

// reportsEquivalent compares every observable Report field except Wall
// (host-time dependent) and Shards (describes the runtime configuration,
// not the execution). Both reports are finalized by the public accessors.
func reportsEquivalent(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got.Messages != want.Messages || got.Words != want.Words ||
		got.MaxWords != want.MaxWords || got.CausalDepth != want.CausalDepth ||
		got.VirtualTime != want.VirtualTime || got.Rounds() != want.Rounds() {
		t.Errorf("%s: report scalars differ:\ngot  %+v\nwant %+v", label, got, want)
	}
	if !reflect.DeepEqual(got.ByKind, want.ByKind) {
		t.Errorf("%s: ByKind differ: %v vs %v", label, got.ByKind, want.ByKind)
	}
	if !reflect.DeepEqual(got.ByRound, want.ByRound) {
		t.Errorf("%s: ByRound differ: %v vs %v", label, got.ByRound, want.ByRound)
	}
	if !reflect.DeepEqual(got.ByKindRound, want.ByKindRound) {
		t.Errorf("%s: ByKindRound differ: %v vs %v", label, got.ByKindRound, want.ByKindRound)
	}
	if !reflect.DeepEqual(got.SentBy, want.SentBy) {
		t.Errorf("%s: SentBy differ: %v vs %v", label, got.SentBy, want.SentBy)
	}
}

// TestMergeParallel pins the exported merge semantics on both finalization
// states: counters sum, time-like measures take the maximum, Shards sums.
func TestMergeParallel(t *testing.T) {
	mk := func(n int64, depth int64, vt float64) *Report {
		r := NewReport()
		for i := int64(0); i < n; i++ {
			r.record(1, tokenMsg(1), depth)
		}
		r.VirtualTime = vt
		return r
	}
	for _, preFinalize := range []bool{false, true} {
		a := mk(3, 4, 2.5)
		b := mk(2, 9, 1.5)
		if preFinalize {
			a.finalize()
			b.finalize()
		}
		a.MergeParallel(b)
		a.finalize()
		if a.Messages != 5 || a.CausalDepth != 9 || a.VirtualTime != 2.5 || a.Shards != 2 {
			t.Fatalf("preFinalize=%v: merged %+v", preFinalize, a)
		}
		if a.ByKind["token"] != 5 || a.SentBy[1] != 5 {
			t.Fatalf("preFinalize=%v: breakdowns %v %v", preFinalize, a.ByKind, a.SentBy)
		}
	}
}

// reportWire adds rounded opcodes to the test vocabulary, so the counter
// row's per-round folding can be driven directly.
var reportWire = Register("simreport",
	OpSpec{Kind: "report.a", MinPayload: 1, MaxPayload: 2, Rounded: true},
	OpSpec{Kind: "report.b", MinPayload: 1, MaxPayload: 1, Rounded: true},
)

// checkDetached asserts that every recordFast accumulator of r is back at
// its zero value, so r compares equal (reflect.DeepEqual) to a report that
// never armed the dense path.
func checkDetached(t *testing.T, label string, r *Report) {
	t.Helper()
	if r.sentDense != nil || r.sentIDs != nil || r.krRow != nil || r.krRound != 0 {
		t.Errorf("%s: hot-path accumulators not detached: sentDense=%v sentIDs=%v krRow=%v krRound=%d",
			label, r.sentDense, r.sentIDs, r.krRow, r.krRound)
	}
}

// TestRecordFastMatchesRecord is the differential test of the counter
// row: one delivery stream through record (the map path ReferenceEngine
// uses) and through the armed recordFast path must give identical
// reports and identical checkpoint counters. The stream interleaves
// algorithm rounds (r, r+1, r, r+2) and unrounded opcodes, and the fast
// report is captured and re-armed mid-stream as the periodic checkpoint
// cadence does; a third report resumes from that capture.
func TestRecordFastMatchesRecord(t *testing.T) {
	opA, opB := reportWire.Op(0), reportWire.Op(1)
	ids := []NodeID{10, 20, 30, 40}
	type delivery struct {
		from  int32
		msg   WireMsg
		depth int64
	}
	var stream []delivery
	for i := 0; i < 96; i++ {
		round := []int{3, 4, 3, 5}[i%4] + i/48 // r, r+1, r, r+2; then shifted by one
		var m WireMsg
		switch i % 3 {
		case 0:
			m = WireMsg{Op: opA, Nw: uint8(1 + i%2)}
		case 1:
			m = WireMsg{Op: opB, Nw: 1}
		default:
			m = tokenMsg(round) // unrounded: word 0 is not a round
		}
		if m.Op != opToken {
			m.W[0] = int64(round)
		}
		stream = append(stream, delivery{from: int32(i * 7 % len(ids)), msg: m, depth: int64(i/4 + 1)})
	}
	const cut = 53

	ref := NewReport()
	fast := NewReport()
	sent, row := make([]int64, len(ids)), make([]int64, NumOps())
	fast.adoptDense(sent, row, ids)
	var refCk, fastCk Checkpoint
	for i, d := range stream {
		if i == cut {
			refCk.captureReport(ref)
			fastCk.captureReport(fast)
			checkDetached(t, "captured", fast)
			clear(sent)
			fast.adoptDense(sent, row, ids)
		}
		ref.record(ids[d.from], d.msg, d.depth)
		fast.recordFast(d.from, &d.msg, d.depth)
	}
	if !reflect.DeepEqual(fastCk.KindRounds, refCk.KindRounds) {
		t.Errorf("mid-stream KindRounds differ:\nfast %v\nref  %v", fastCk.KindRounds, refCk.KindRounds)
	}

	// Resume a fresh report from the mid-stream capture and replay the rest.
	resumed := NewReport()
	fastCk.restoreReport(resumed)
	rsent, rrow := make([]int64, len(ids)), make([]int64, NumOps())
	resumed.adoptDense(rsent, rrow, ids)
	for _, d := range stream[cut:] {
		resumed.recordFast(d.from, &d.msg, d.depth)
	}

	var refEnd, fastEnd, resumedEnd Checkpoint
	refEnd.captureReport(ref)
	fastEnd.captureReport(fast)
	resumedEnd.captureReport(resumed)
	if !reflect.DeepEqual(fastEnd.KindRounds, refEnd.KindRounds) {
		t.Errorf("final KindRounds differ:\nfast %v\nref  %v", fastEnd.KindRounds, refEnd.KindRounds)
	}
	if !reflect.DeepEqual(resumedEnd.KindRounds, refEnd.KindRounds) {
		t.Errorf("resumed KindRounds differ:\nresumed %v\nref     %v", resumedEnd.KindRounds, refEnd.KindRounds)
	}
	if len(refEnd.KindRounds) < 8 {
		t.Fatalf("stream covers only %d (opcode, round) cells: %v", len(refEnd.KindRounds), refEnd.KindRounds)
	}
	reportsEquivalent(t, "fast", fast, ref)
	reportsEquivalent(t, "resumed", resumed, ref)
	checkDetached(t, "finalized", fast)
	checkDetached(t, "resumed", resumed)
	if ref.finalize(); !reflect.DeepEqual(fast, ref) {
		t.Errorf("fast report differs from the map-path report:\nfast %+v\nref  %+v", fast, ref)
	}
}
