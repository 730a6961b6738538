package sim

import (
	"cmp"
	"math/bits"
	"slices"
	"unsafe"

	"lrseluge/internal/obs"
)

// calendarQueue is a calendar queue (R. Brown, CACM 1988): events hash into
// buckets by firing time, bucket width adapts to the observed event density,
// and dequeue scans forward from the last popped time one bucket "day" at a
// time, wrapping around the "year" of nbuckets days. With the width tracking
// the mean inter-event gap, schedule and pop are O(1) amortized — the win
// over the O(log n) heap once hundreds of thousands of timers are pending.
//
// Determinism: pop order is a pure function of queue content. Buckets
// partition time, equal timestamps always land in the same bucket, and the
// per-bucket candidate selection takes the minimum (at, seq) — so PopLE
// always returns the unique global minimum, exactly like the heap. Resizes
// rehash deterministically from queue content alone (no randomness, no
// wall clock), and internal layout can never leak into results.
//
// The scan's lower bound (lastAt) must be a true floor over queue content.
// Pops raise it, and nothing can push below it: every pop is an executed
// event, so lastAt never exceeds the engine clock, and pushes never predate
// the clock. Re-keying a moved record (Engine.Reschedule) is not a pop and
// leaves lastAt alone: the clock stays put, so a push between two Run
// calls may still land below the re-keyed record's old time.
//
// Each record's pos locates it for Remove: the index in its bucket
// (bucketOf(at) names the bucket) or, while it is staged, its stage slot.
type calendarQueue struct {
	buckets [][]*timer
	mask    int  // len(buckets)-1; bucket count is a power of two
	shift   uint // bucket width is 1<<shift nanoseconds
	n       int
	// occ is a word-level occupancy bitset over buckets (bit i set iff
	// bucket i is nonempty), letting the year scan jump runs of empty days
	// 64 at a time — the protocol's gap distribution is bimodal (dense
	// sub-millisecond bursts separated by long maintenance lulls), so
	// day-by-day stepping across a lull would cost gap/width iterations.
	occ    []uint64
	lastAt Time // time of the most recent successful pop
	// stage drains same-instant bursts in O(1) per pop. Synchronized
	// timers are common at scale (e.g. every node's Trickle rollover lands
	// on the identical nanosecond), piling tens of thousands of events
	// into one bucket at one timestamp; popping them by bucket rescan
	// would be quadratic. When a pop's bucket holds more events at the
	// minimum time, they all move here, sorted by seq once, and pop by
	// index. Invariants: every staged event has at == stageAt == lastAt;
	// no queued event is earlier; stage seqs ascend, and any later push at
	// stageAt carries a larger seq than everything staged (engine seqs are
	// monotone), so appending preserves the order. A re-keyed record that
	// lands on stageAt drew its seq earlier than that, so it is inserted
	// in seq order instead (requeue). While the stage is nonempty it holds
	// every queued event at stageAt, and stage[stagePos] is live: Remove
	// leaves a nil tombstone, which the stage head skips.
	stage    []*timer
	stagePos int
	stageAt  Time
	// scanned counts bucket entries examined (plus bucket days stepped) and
	// pops counts successful dequeues since the last resize; their ratio
	// drives the adaptive re-width below. Both are pure functions of the
	// operation sequence, so the trigger is deterministic.
	scanned int
	pops    int
}

const (
	calMinBuckets = 16
	// Width clamps: 1<<10 ns ~ 1us (dense same-instant bursts) up to
	// 1<<36 ns ~ 69s (sparse maintenance timers).
	calMinShift = 10
	calMaxShift = 36
	// calInitShift starts buckets at ~2ms, the order of the protocol's
	// propagation/backoff delays; the first resize re-estimates from
	// actual content.
	calInitShift = 21
	// calBucketCap is the least capacity a bucket array gets: resizes keep
	// the mean load under two per bucket, and the protocol's bursts put a
	// few more into one window, so most buckets never outgrow it.
	calBucketCap = 4
)

func newCalendarQueue() *calendarQueue {
	q := &calendarQueue{
		buckets: make([][]*timer, calMinBuckets),
		occ:     make([]uint64, (calMinBuckets+63)/64),
		mask:    calMinBuckets - 1,
		shift:   calInitShift,
	}
	q.fill()
	return q
}

// fill gives every bucket without an array calBucketCap slots of one
// shared array. Only buckets past the largest layout so far lack one:
// resizes keep every other bucket's array, so shared arrays are made once
// per new high-water bucket count.
func (q *calendarQueue) fill() {
	missing := 0
	for _, b := range q.buckets {
		if cap(b) == 0 {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	slots := make([]*timer, missing*calBucketCap)
	for i, b := range q.buckets {
		if cap(b) == 0 {
			q.buckets[i], slots = slots[:0:calBucketCap], slots[calBucketCap:]
		}
	}
}

// Len implements Queue.
func (q *calendarQueue) Len() int { return q.n }

// heapBytes implements Queue. Buckets carved from one shared array count
// their slots of it, so the figure is exact up to that array's rounding.
func (q *calendarQueue) heapBytes() int64 {
	b := obs.ObjectBytes(q) + obs.SliceBytes(q.buckets) + obs.SliceBytes(q.occ) + obs.SliceBytes(q.stage)
	for _, bk := range q.buckets {
		b += int64(cap(bk)) * int64(unsafe.Sizeof((*timer)(nil)))
	}
	return b
}

// bucketOf maps a firing time to its bucket index under the current layout.
func (q *calendarQueue) bucketOf(at Time) int {
	return int(uint64(at)>>q.shift) & q.mask
}

// Push implements Queue.
//
//lrlint:hotpath one call per scheduled event
func (q *calendarQueue) Push(ev *timer) {
	if q.n >= 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
	q.n++
	if q.staged(ev) {
		ev.pos = len(q.stage)
		q.stage = append(q.stage, ev)
		return
	}
	q.insert(ev)
}

// insert appends ev to its bucket.
func (q *calendarQueue) insert(ev *timer) {
	i := q.bucketOf(ev.at)
	ev.pos = len(q.buckets[i])
	q.buckets[i] = append(q.buckets[i], ev)
	q.occ[i>>6] |= 1 << (uint(i) & 63)
}

// staged reports whether ev belongs in the stage: a burst is draining and
// ev fires at its instant.
func (q *calendarQueue) staged(ev *timer) bool {
	return q.stagePos < len(q.stage) && ev.at == q.stageAt
}

// Remove implements Queue: a staged record leaves a tombstone, a bucketed
// one is swap-removed.
//
//lrlint:hotpath one call per cancelled timer
func (q *calendarQueue) Remove(ev *timer) {
	q.n--
	if q.staged(ev) {
		q.stage[ev.pos] = nil
		q.skipTombstones()
		return
	}
	q.unbucket(q.bucketOf(ev.at), ev.pos)
}

// unbucket swap-removes entry j of bucket i.
func (q *calendarQueue) unbucket(i, j int) {
	b := q.buckets[i]
	last := len(b) - 1
	b[j] = b[last]
	b[j].pos = j
	b[last] = nil
	q.buckets[i] = b[:last]
	if last == 0 {
		q.occ[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// requeue re-keys a moved record that has just left the queue at its old
// key and queues it again under its firing key. Staged at a draining
// burst's instant, it goes to its seq-order slot; anywhere else it is a
// plain insert. n, lastAt and the stage instant are unchanged.
func (q *calendarQueue) requeue(ev *timer) {
	ev.rekey()
	q.pops++ // scan work was spent on it, as for a pop
	if !q.staged(ev) {
		q.insert(ev)
		return
	}
	j := len(q.stage)
	q.stage = append(q.stage, nil)
	for ; j > q.stagePos && (q.stage[j-1] == nil || q.stage[j-1].seq > ev.seq); j-- {
		if p := q.stage[j-1]; p != nil {
			p.pos = j
		}
		q.stage[j] = q.stage[j-1]
	}
	q.stage[j] = ev
	ev.pos = j
}

// skipTombstones advances the stage head past removed records and resets
// the stage once it is drained.
func (q *calendarQueue) skipTombstones() {
	for q.stagePos < len(q.stage) && q.stage[q.stagePos] == nil {
		q.stagePos++
	}
	if q.stagePos == len(q.stage) {
		q.stage = q.stage[:0]
		q.stagePos = 0
	}
}

// PopLE implements Queue. A moved record found at the minimum leaves its
// bucket or stage slot and is requeued under its firing key, and the
// search starts over.
//
//lrlint:hotpath one call per executed event
func (q *calendarQueue) PopLE(horizon Time) *timer {
	for q.n > 0 {
		if q.stagePos < len(q.stage) {
			if q.stageAt > horizon {
				return nil
			}
			ev := q.stage[q.stagePos]
			q.stage[q.stagePos] = nil
			q.stagePos++
			q.skipTombstones()
			if ev.moved {
				q.requeue(ev)
				continue
			}
			q.n--
			q.pops++
			q.lastAt = ev.at
			return ev
		}
		i, j := q.findMin()
		ev := q.buckets[i][j]
		if ev.at > horizon {
			return nil
		}
		if ev.moved {
			q.unbucket(i, j)
			q.requeue(ev)
			continue
		}
		return q.take(i, j)
	}
	return nil
}

// findMin locates the minimum-(at, seq) bucketed record of a nonempty
// queue whose stage is drained, as (bucket, index).
func (q *calendarQueue) findMin() (int, int) {
	// Adaptive re-width: bucket width is derived from the event spread at
	// resize time, but the spread drifts as the simulation evolves (e.g.
	// Trickle intervals doubling from milliseconds to tens of seconds). A
	// stale width packs many years into each bucket and every pop degrades
	// to a long scan — count-triggered resizes never fire because the
	// pending count is stable. When the mean scan work per pop exceeds its
	// O(1) budget, rehash at the same size to re-derive the width from the
	// current content; requiring a year's worth of pops first amortizes the
	// O(n) rehash to O(1) per pop.
	if q.pops >= len(q.buckets) && q.scanned > 16*q.pops {
		q.resize(len(q.buckets))
	}
	// Scan one year of bucket days starting at the day containing lastAt.
	// The first bucket holding an event inside its current-day window
	// holds the global minimum: days partition time going forward and no
	// queued event predates lastAt.
	width := Time(1) << q.shift
	i := q.bucketOf(q.lastAt)
	top := (q.lastAt>>Time(q.shift) + 1) << Time(q.shift)
	for step := 0; step <= q.mask; {
		j, d := q.nextOccupied(i)
		if j < 0 || step+d > q.mask {
			// No occupied day remains inside this year.
			break
		}
		step += d
		top += width * Time(d)
		i = j
		q.scanned += len(q.buckets[i]) + 1
		if k := q.minInBucketBelow(i, top); k >= 0 {
			return i, k
		}
		i = (i + 1) & q.mask
		step++
		top += width
	}
	q.scanned += q.n
	// Every event lies at least a full year ahead of lastAt (a long idle
	// gap, e.g. only maintenance timers left): fall back to a direct
	// search for the global minimum.
	bi, bj := -1, -1
	var best *timer
	for ii := range q.buckets {
		for jj, ev := range q.buckets[ii] {
			if best == nil || before(ev, best) {
				best, bi, bj = ev, ii, jj
			}
		}
	}
	return bi, bj
}

// nextOccupied returns the index of the first nonempty bucket at or after i
// (wrapping) together with the number of buckets stepped to reach it, or
// (-1, 0) when every bucket is empty.
func (q *calendarQueue) nextOccupied(i int) (int, int) {
	nb := q.mask + 1
	w := i >> 6
	if word := q.occ[w] >> (uint(i) & 63); word != 0 {
		d := bits.TrailingZeros64(word)
		return i + d, d
	}
	for k := 1; k <= len(q.occ); k++ {
		wi := w + k
		if wi >= len(q.occ) {
			wi -= len(q.occ)
		}
		if word := q.occ[wi]; word != 0 {
			j := wi<<6 + bits.TrailingZeros64(word)
			d := j - i
			if d <= 0 {
				d += nb
			}
			return j, d
		}
	}
	return -1, 0
}

// minInBucketBelow returns the index of the minimum-(at, seq) event in bucket
// i with at < top, or -1 if the bucket holds none in that window.
func (q *calendarQueue) minInBucketBelow(i int, top Time) int {
	b := q.buckets[i]
	bestIdx := -1
	var best *timer
	for j, ev := range b {
		if ev.at >= top {
			continue
		}
		if best == nil || before(ev, best) {
			best, bestIdx = ev, j
		}
	}
	return bestIdx
}

// take pops buckets[i][j]. Further events in the bucket at the same
// instant move to the stage so the burst drains in O(1) per pop instead of
// by repeated bucket rescans.
func (q *calendarQueue) take(i, j int) *timer {
	ev := q.buckets[i][j]
	b := q.buckets[i]
	last := len(b) - 1
	b[j] = b[last]
	b[last] = nil
	b = b[:last]
	// Partition out the rest of the same-instant burst, preserving the
	// bucket's remaining entries in place.
	keep := b[:0]
	for _, e := range b {
		if e.at == ev.at {
			q.stage = append(q.stage, e)
		} else {
			e.pos = len(keep)
			keep = append(keep, e)
		}
	}
	for k := len(keep); k < len(b); k++ {
		b[k] = nil
	}
	q.buckets[i] = keep
	if len(keep) == 0 {
		q.occ[i>>6] &^= 1 << (uint(i) & 63)
	}
	if len(q.stage) > 0 {
		slices.SortFunc(q.stage, func(a, c *timer) int { return cmp.Compare(a.seq, c.seq) })
		for k, e := range q.stage {
			e.pos = k
		}
		q.stageAt = ev.at
		q.stagePos = 0
	}
	q.n--
	q.pops++
	q.lastAt = ev.at
	if q.n < len(q.buckets)/4 && len(q.buckets) > calMinBuckets {
		q.resize(len(q.buckets) / 2)
	}
	return ev
}

// resize rehashes into newNB buckets, re-estimating the bucket width as ~3x
// the mean inter-event gap of the current content (Brown's rule), clamped to
// [calMinShift, calMaxShift]. The estimate depends only on queue content, so
// resizing is deterministic. Bucket i keeps its array across resizes, and a
// halving only shortens the bucket slice, so the next doubling gets the
// upper arrays back; the rehash regrows only the buckets that outgrow
// theirs.
func (q *calendarQueue) resize(newNB int) {
	pending := make([]*timer, 0, q.n)
	for i, b := range q.buckets {
		pending = append(pending, b...)
		clear(b)
		q.buckets[i] = b[:0]
	}
	if q.n > 0 {
		// Staged events stay out of the estimate, as they stay out of the
		// rehash.
		var minAt, maxAt Time
		if len(pending) > 0 {
			minAt, maxAt = pending[0].at, pending[0].at
		}
		for _, ev := range pending {
			minAt = min(minAt, ev.at)
			maxAt = max(maxAt, ev.at)
		}
		gap := (maxAt - minAt) * 3 / Time(q.n)
		q.shift = min(max(uint(bits.Len64(uint64(gap))), calMinShift), calMaxShift)
	}
	if newNB <= cap(q.buckets) {
		q.buckets = q.buckets[:newNB]
	} else {
		buckets := make([][]*timer, newNB)
		copy(buckets, q.buckets[:cap(q.buckets)])
		q.buckets = buckets
	}
	if words := (newNB + 63) / 64; words <= cap(q.occ) {
		q.occ = q.occ[:words]
		clear(q.occ)
	} else {
		q.occ = make([]uint64, words)
	}
	q.fill()
	q.mask = newNB - 1
	q.scanned, q.pops = 0, 0
	// Rehash appends are amortized: each pending event moves once per
	// doubling/halving, not per scheduled event, so resize is deliberately
	// not an alloc-hotpath root.
	for _, ev := range pending {
		q.insert(ev)
	}
	// A kept array may be far larger than its new content. Trim it to
	// under twice its length, the bound append's own growth keeps, but not
	// below calBucketCap, so the rehash holds no more than one that regrew
	// every bucket from calBucketCap.
	for i, b := range q.buckets {
		if c := max(len(b), calBucketCap); cap(b) >= 2*c {
			q.buckets[i] = append(make([]*timer, 0, c), b...)
		}
	}
}
