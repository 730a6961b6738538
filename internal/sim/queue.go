package sim

import "lrseluge/internal/obs"

// heapQueue is the reference Queue: a hand-rolled binary min-heap over
// (at, seq). It is hand-rolled rather than container/heap so Push and PopLE
// take the concrete *timer without interface indirection and the sift code
// stays visible to the alloc-hotpath pass. Each record's pos is its slot;
// the sifts move a hole rather than swapping, writing each displaced
// record and its pos once, so Remove is O(log n).
type heapQueue struct {
	evs []*timer
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

// Len implements Queue.
func (q *heapQueue) Len() int { return len(q.evs) }

// heapBytes implements Queue.
func (q *heapQueue) heapBytes() int64 { return obs.ObjectBytes(q) + obs.SliceBytes(q.evs) }

// before orders records by (at, seq).
func before(a, b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Push implements Queue.
//
//lrlint:hotpath one call per scheduled event
func (q *heapQueue) Push(ev *timer) {
	q.evs = append(q.evs, ev)
	q.up(ev, len(q.evs)-1)
}

// PopLE implements Queue. A moved record at the root only grows its key,
// so it re-keys in place and sifts down.
//
//lrlint:hotpath one call per executed event
func (q *heapQueue) PopLE(horizon Time) *timer {
	for len(q.evs) > 0 && q.evs[0].at <= horizon {
		ev := q.evs[0]
		if !ev.moved {
			q.Remove(ev)
			return ev
		}
		ev.rekey()
		q.down(ev, 0)
	}
	return nil
}

// Remove implements Queue: the last record fills the vacated slot and
// sifts whichever way restores the heap order.
//
//lrlint:hotpath one call per executed or cancelled event
func (q *heapQueue) Remove(ev *timer) {
	last := len(q.evs) - 1
	moved := q.evs[last]
	q.evs[last] = nil
	q.evs = q.evs[:last]
	if i := ev.pos; i < last {
		q.up(moved, q.down(moved, i))
	}
}

// up places ev, bound for slot i, by moving the hole at i toward the root
// past every parent that ev precedes.
func (q *heapQueue) up(ev *timer, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		p := q.evs[parent]
		if !before(ev, p) {
			break
		}
		q.evs[i] = p
		p.pos = i
		i = parent
	}
	q.evs[i] = ev
	ev.pos = i
}

// down places ev, bound for slot i, by moving the hole at i toward the
// leaves past every smaller child, and returns the slot it settles in.
func (q *heapQueue) down(ev *timer, i int) int {
	n := len(q.evs)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := q.evs[l]
		if r := l + 1; r < n && before(q.evs[r], c) {
			l, c = r, q.evs[r]
		}
		if !before(c, ev) {
			break
		}
		q.evs[i] = c
		c.pos = i
		i = l
	}
	q.evs[i] = ev
	ev.pos = i
	return i
}
