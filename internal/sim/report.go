package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Report aggregates the complexity measures of one protocol execution.
type Report struct {
	// Messages is the total number of messages delivered.
	Messages int64
	// ByKind counts delivered messages per message kind.
	ByKind map[string]int64
	// ByRound counts delivered messages per algorithm round for messages
	// implementing Rounder; round 0 collects unrounded messages.
	ByRound map[int]int64
	// ByKindRound refines ByKind per round, keyed "kind/round".
	ByKindRound map[string]int64
	// Words is the total message volume in O(log n)-bit words.
	Words int64
	// MaxWords is the size of the largest single message observed; the
	// paper claims every message fits in 4 identities.
	MaxWords int
	// CausalDepth is the length of the longest causal message chain — the
	// standard asynchronous time complexity (every delay at most one unit).
	CausalDepth int64
	// VirtualTime is the completion time of the discrete-event engine's
	// clock (equals CausalDepth under UnitDelay); zero for AsyncEngine.
	VirtualTime float64
	// SentBy counts messages sent per node.
	SentBy map[NodeID]int64
	// Shards is the number of disjoint state partitions whose accounting
	// this report merges (MergeParallel sums it). Every engine reports 1:
	// DistEngine resets its merged report to 1, because a cluster run is
	// one logical execution. The field stays for the JSON schema.
	Shards int
	// Wall is the host wall-clock duration of the run.
	Wall time.Duration

	// kindRound accumulates per-(opcode, round) counts during the run
	// without touching a kind string per message; finalize materialises the
	// public ByKind, ByRound and ByKindRound maps from it once at the end,
	// rendering opcodes back to their registered kind strings.
	kindRound map[kindRoundKey]int64
	finalized bool

	// The recordFast accumulators, armed by adoptDenseSent on the round
	// engines' hot paths. sentDense counts sends by dense node index — one
	// array increment per message instead of a map op on a 64-bit key —
	// and (lastKey, lastCount) memoise the kindRound counter: deliveries
	// of one round overwhelmingly share the (opcode, round) key, so the
	// hot path bumps a scalar and touches the map only on key change.
	// syncHot folds both into the public accumulators; finalize,
	// MergeParallel and checkpoint capture all sync first.
	sentDense []int64
	sentIDs   []NodeID
	lastKey   kindRoundKey
	lastCount int64
}

// kindRoundKey is the allocation-free composite key of the hot-path
// counter: the wire opcode and the algorithm round.
type kindRoundKey struct {
	op    Op
	round int
}

// NewReport returns an empty report ready for Add.
func NewReport() *Report {
	return &Report{
		ByKind:      make(map[string]int64),
		ByRound:     make(map[int]int64),
		ByKindRound: make(map[string]int64),
		SentBy:      make(map[NodeID]int64),
		Shards:      1,
		kindRound:   make(map[kindRoundKey]int64),
	}
}

func newReport() *Report { return NewReport() }

// record accounts one delivery. It is the per-message hot path: two map
// increments on composite keys and a handful of scalar updates, no
// allocations, no interface dispatch — kind and round come straight off
// the wire record. Engines must call finalize before handing the report
// out.
func (r *Report) record(from NodeID, m WireMsg, depth int64) {
	r.Messages++
	r.kindRound[kindRoundKey{m.Op, m.MsgRound()}]++
	w := m.Words()
	r.Words += int64(w)
	if w > r.MaxWords {
		r.MaxWords = w
	}
	if depth > r.CausalDepth {
		r.CausalDepth = depth
	}
	r.SentBy[from]++
}

// adoptDenseSent arms the dense recordFast accumulators. slab must be
// zeroed, sized len(ids), and remain owned by the caller (the engines
// lend pooled scratch slabs); syncHot detaches it again, so a report that
// escapes the run never pins pooled memory.
func (r *Report) adoptDenseSent(slab []int64, ids []NodeID) {
	r.sentDense = slab[:len(ids)]
	r.sentIDs = ids
}

// recordFast accounts one delivery with the map ops taken off the
// per-message path: the scalar counters, the memoised (opcode, round)
// counter, and sender accounting by dense index into the adopted slab.
// Callers must have armed adoptDenseSent.
func (r *Report) recordFast(fromDense int32, m WireMsg, depth int64) {
	r.Messages++
	if k := (kindRoundKey{m.Op, m.MsgRound()}); k == r.lastKey && r.lastCount > 0 {
		r.lastCount++
	} else {
		if r.lastCount > 0 {
			r.kindRound[r.lastKey] += r.lastCount
		}
		r.lastKey, r.lastCount = k, 1
	}
	w := m.Words()
	r.Words += int64(w)
	if w > r.MaxWords {
		r.MaxWords = w
	}
	if depth > r.CausalDepth {
		r.CausalDepth = depth
	}
	r.sentDense[fromDense]++
}

// syncMemo flushes the kindRound memo into the map.
func (r *Report) syncMemo() {
	if r.lastCount > 0 {
		r.kindRound[r.lastKey] += r.lastCount
		r.lastKey, r.lastCount = kindRoundKey{}, 0
	}
}

// foldDense folds the dense send counts into the public SentBy map and
// detaches the borrowed slab.
func (r *Report) foldDense() {
	if r.sentDense == nil {
		return
	}
	for i, v := range r.sentDense {
		if v != 0 {
			r.SentBy[r.sentIDs[i]] += v
		}
	}
	r.sentDense, r.sentIDs = nil, nil
}

// syncHot folds every recordFast accumulator into the map-backed state,
// making kindRound and SentBy authoritative again.
func (r *Report) syncHot() {
	r.syncMemo()
	r.foldDense()
}

// finalize materialises the public breakdown maps from the hot-path
// accumulator: one string formatting per distinct (kind, round) pair instead
// of one per message. Idempotent; engines call it once per run.
func (r *Report) finalize() {
	if r.finalized {
		return
	}
	r.finalized = true
	r.syncHot()
	for k, v := range r.kindRound {
		kind := opKind(k.op)
		r.ByKind[kind] += v
		r.ByRound[k.round] += v
		r.ByKindRound[fmt.Sprintf("%s/%d", kind, k.round)] += v
	}
}

// MergeParallel merges o into r as the accounting of a disjoint state
// partition of the *same* execution: counters and per-key breakdowns sum,
// while the time-like measures (CausalDepth, VirtualTime, Wall) take the
// maximum — parallel partitions share one clock, they do not run back to
// back (that composition is Add). Shards sums, so merging N single-part
// reports yields Shards == N. DistEngine merges its processes' reports
// with this; reports may be merged before or after finalize — the public
// breakdown maps are combined either way.
func (r *Report) MergeParallel(o *Report) {
	r.Messages += o.Messages
	if r.finalized || o.finalized {
		// Merge on the materialised public maps (finalize is idempotent;
		// o's hot-path accumulator is folded into its maps by it, so it
		// must not be merged a second time).
		r.finalize()
		o.finalize()
		for k, v := range o.ByKind {
			r.ByKind[k] += v
		}
		for k, v := range o.ByRound {
			r.ByRound[k] += v
		}
		for k, v := range o.ByKindRound {
			r.ByKindRound[k] += v
		}
	} else {
		o.syncHot()
		for k, v := range o.kindRound {
			r.kindRound[k] += v
		}
	}
	r.Words += o.Words
	if o.MaxWords > r.MaxWords {
		r.MaxWords = o.MaxWords
	}
	if o.CausalDepth > r.CausalDepth {
		r.CausalDepth = o.CausalDepth
	}
	if o.VirtualTime > r.VirtualTime {
		r.VirtualTime = o.VirtualTime
	}
	for k, v := range o.SentBy {
		r.SentBy[k] += v
	}
	r.Shards += o.Shards
	if o.Wall > r.Wall {
		r.Wall = o.Wall
	}
}

// Add merges o into r (used when composing pipeline phases). Causal measures
// are summed because the phases run back to back. Both reports are finalized
// first so the public breakdown maps are materialised before merging.
func (r *Report) Add(o *Report) {
	r.finalize()
	o.finalize()
	r.Messages += o.Messages
	for k, v := range o.ByKind {
		r.ByKind[k] += v
	}
	for k, v := range o.ByRound {
		r.ByRound[k] += v
	}
	for k, v := range o.ByKindRound {
		r.ByKindRound[k] += v
	}
	r.Words += o.Words
	if o.MaxWords > r.MaxWords {
		r.MaxWords = o.MaxWords
	}
	r.CausalDepth += o.CausalDepth
	r.VirtualTime += o.VirtualTime
	for k, v := range o.SentBy {
		r.SentBy[k] += v
	}
	if o.Shards > r.Shards {
		r.Shards = o.Shards
	}
	r.Wall += o.Wall
}

// Rounds returns the largest round number that carried messages.
func (r *Report) Rounds() int {
	r.finalize()
	max := 0
	for round := range r.ByRound {
		if round > max {
			max = round
		}
	}
	return max
}

// MaxSentByNode returns the largest per-node send count (hot-spot measure).
func (r *Report) MaxSentByNode() int64 {
	var max int64
	for _, v := range r.SentBy {
		if v > max {
			max = v
		}
	}
	return max
}

// String renders a compact multi-line summary.
func (r *Report) String() string {
	r.finalize()
	var b strings.Builder
	fmt.Fprintf(&b, "messages=%d words=%d maxWords=%d causalDepth=%d virtualTime=%.1f rounds=%d\n",
		r.Messages, r.Words, r.MaxWords, r.CausalDepth, r.VirtualTime, r.Rounds())
	kinds := make([]string, 0, len(r.ByKind))
	for k := range r.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-12s %d\n", k, r.ByKind[k])
	}
	return b.String()
}
