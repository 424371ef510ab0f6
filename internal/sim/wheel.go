package sim

import (
	"math/bits"
	"slices"
	"sort"
)

// The calendar (bucket) queue behind EventEngine's wheel path. The paper's
// model bounds every propagation delay by one time unit, so at any moment all
// pending deliveries lie in the half-open window (now, now+1]: a rotating
// ring of fixed-width time buckets covers the whole future, and push/pop
// become amortised O(1) instead of the O(log m) a binary heap pays per
// message. The (time, sequence) delivery order is preserved exactly — the
// wheel is delivery-trace-equivalent to ReferenceEngine's container/heap,
// which the differential tests assert event by event.
//
// Geometry: wheelSpan buckets of width 1/wheelSpan cover one time unit, so a
// maximal delay of exactly 1 lands wheelSpan buckets ahead of the current
// one; the ring is twice that (a power of two, so slot arithmetic is a mask)
// and slots within the live window never collide. A bitmap over the ring
// slots lets pop skip runs of empty buckets 64 at a time, which keeps
// sparse schedules (one event per time unit) from paying a full ring scan
// per delivery.
//
// Ordering: bucket index floor(t*wheelSpan) is monotone in t, so buckets
// partition the pending set into disjoint time ranges. Future buckets are
// unsorted append targets; when a bucket becomes current it is sorted once
// by (time, sequence). A send can still land in the current bucket (delay
// smaller than the bucket width), in which case it is insertion-sorted into
// the undrained tail — its time is strictly greater than every already
// delivered event, so the drained prefix is never disturbed.
const (
	wheelSpanPow = 8
	wheelSpan    = 1 << wheelSpanPow // buckets per time unit
	wheelRing    = wheelSpan * 2     // ring slots; > span so the live window never wraps onto itself
	wheelMask    = wheelRing - 1
	wheelWords   = wheelRing / 64 // occupancy bitmap words
)

type bucketQueue struct {
	buckets  [wheelRing][]event
	occupied [wheelWords]uint64 // bit per ring slot holding pending events
	cur      int64              // virtual index (floor(now*wheelSpan)) of the current bucket
	pos      int                // drain position within the sorted current bucket
	size     int
}

func (q *bucketQueue) empty() bool { return q.size == 0 }

// push schedules e. The engine validates delays into (0, 1] before calling,
// so e.t is at most one time unit past the event being processed and the
// target bucket is always inside the ring's live window.
func (q *bucketQueue) push(e event) {
	v := int64(e.t * wheelSpan)
	if v < q.cur {
		// Defensive: t >= now implies v >= cur (floor of a monotone map);
		// collapse any floating-point surprise into the current bucket
		// rather than losing the event behind the wheel.
		v = q.cur
	}
	slot := v & wheelMask
	b := q.buckets[slot]
	if v == q.cur {
		// The current bucket is sorted and partially drained: keep the
		// undrained tail sorted. e sorts after every drained event (its
		// time exceeds the last delivery), so i >= q.pos always.
		i := q.pos + sort.Search(len(b)-q.pos, func(k int) bool { return e.before(b[q.pos+k]) })
		b = append(b, event{})
		copy(b[i+1:], b[i:])
		b[i] = e
	} else {
		b = append(b, e)
	}
	q.buckets[slot] = b
	q.occupied[slot>>6] |= 1 << (slot & 63)
	q.size++
}

// pop removes and returns the minimum (time, sequence) event, rotating
// past exhausted buckets and sorting the bucket that becomes current. The
// caller must ensure the queue is non-empty. Events are flat wire records —
// no pointers — so drained slots need no zeroing.
func (q *bucketQueue) pop() event {
	slot := q.cur & wheelMask
	b := q.buckets[slot]
	for q.pos >= len(b) {
		// Current bucket exhausted: recycle its storage (every drained slot
		// was zeroed on the way out, so the backing array pins nothing) and
		// rotate to the next occupied bucket.
		q.buckets[slot] = b[:0]
		q.occupied[slot>>6] &^= 1 << (slot & 63)
		q.cur = q.nextOccupied(q.cur + 1)
		q.pos = 0
		slot = q.cur & wheelMask
		b = q.buckets[slot]
		sortEvents(b)
	}
	e := b[q.pos]
	q.pos++
	q.size--
	return e
}

// nextOccupied returns the smallest virtual index >= v whose ring slot holds
// events, scanning the occupancy bitmap a word at a time. The queue is
// non-empty when called, and every pending event lies within wheelSpan
// buckets of the last delivery, so the scan terminates within one ring turn.
func (q *bucketQueue) nextOccupied(v int64) int64 {
	for {
		slot := v & wheelMask
		if w := q.occupied[slot>>6] >> (slot & 63); w != 0 {
			return v + int64(bits.TrailingZeros64(w))
		}
		v += 64 - (slot & 63) // jump to the next bitmap word boundary
	}
}

// reset drops any events left behind by an abnormal exit (protocol panic,
// budget abort) and returns the wheel to its initial state, keeping the
// per-bucket backing arrays for reuse. Events are pointer-free records, so
// truncation suffices.
func (q *bucketQueue) reset() {
	if q.size > 0 || q.pos > 0 {
		for slot := range q.buckets {
			q.buckets[slot] = q.buckets[slot][:0]
		}
	}
	q.occupied = [wheelWords]uint64{}
	q.cur, q.pos, q.size = 0, 0, 0
}

// sortEvents establishes (time, sequence) order. Sequence numbers are
// unique, so the comparison is a total order and the (unstable) sort is
// deterministic.
func sortEvents(b []event) {
	slices.SortFunc(b, func(x, y event) int {
		if x.before(y) {
			return -1
		}
		if y.before(x) {
			return 1
		}
		return 0
	})
}
