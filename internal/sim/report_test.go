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
