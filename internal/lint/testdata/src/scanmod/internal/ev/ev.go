// Package ev exercises the scan-complexity pass: Deliver and Tick are
// per-event roots via //lrlint:eventroot, population classes come from both
// the config binding on packet.NodeID and the //lrlint:population directives
// below, and the helpers pin the interprocedural parameter and struct-field
// propagation.
package ev

import "scanmod/internal/packet"

// Cluster is a plain int slice bound to the nodes class by directive.
//
//lrlint:population nodes
type Cluster []int

// Ring is degree-bounded; loops over it are fine inside event code.
//
//lrlint:population neighbors
type Ring []int

// state.dist is a plain []int; only the field fixpoint (its size comes from
// a nodes-classified slice at construction) can classify it.
type state struct {
	dist []int
}

// NewState sizes dist by the node count.
func NewState(ids []packet.NodeID) *state {
	return &state{dist: make([]int, len(ids))}
}

// Deliver is the per-event entry point of the fixture.
//
//lrlint:eventroot fixture pins the directive-marked root path
func Deliver(tbl map[packet.NodeID]int, s *state, ring Ring) int {
	t := 0
	for id := range tbl {
		t += tbl[id]
	}
	t += scanAll(s.dist)
	for _, v := range ring {
		t += v
	}
	for i := 0; i < 16; i++ {
		t += i
	}
	t += justified(tbl)
	return t
}

// scanAll's parameter is classified nodes through the Deliver call site.
func scanAll(d []int) int {
	t := 0
	for i := 0; i < len(d); i++ {
		t += d[i]
	}
	return t
}

// justified documents why its scan is acceptable; the directive suppresses
// the finding.
func justified(tbl map[packet.NodeID]int) int {
	n := 0
	//lrlint:ignore scan-complexity fixture pins the justified-scan path
	for range tbl {
		n++
	}
	return n
}

// Tick's loop is classified nodes through the Cluster type directive.
//
//lrlint:eventroot fixture pins the population directive on a named type
func Tick(c Cluster) int {
	t := 0
	for _, v := range c {
		t += v
	}
	return t
}

// Pairwise is not event-reachable: the inner scan is a finding purely for
// being an O(nodes) loop nested inside another one.
func Pairwise(ids []packet.NodeID) int {
	c := 0
	for range ids {
		for range ids {
			c++
		}
	}
	return c
}

// timer binds its callback once at construction; Fire, a per-event root,
// invokes it only through the field, so the scan in sweep is reachable
// through the field's recorded assignment and nothing else.
type timer struct {
	tbl    map[packet.NodeID]int
	onFire func() int
}

// NewTimer binds the callback.
func NewTimer(tbl map[packet.NodeID]int) *timer {
	t := &timer{tbl: tbl}
	t.onFire = t.sweep
	return t
}

func (t *timer) sweep() int {
	n := 0
	for id := range t.tbl {
		n += t.tbl[id]
	}
	return n
}

// Fire is the timer's per-event entry point.
//
//lrlint:eventroot fixture pins reachability through a bound callback field
func Fire(t *timer) int { return t.onFire() }
