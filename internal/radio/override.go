package radio

// FaultOverlay is the fault state the fault engine toggles: down nodes, open
// link outage windows and the current partition. The network checks Blocked
// on every delivery before the channel model runs and drops every delivery a
// current fault forbids, so blocked deliveries never consume channel
// randomness and a faulted run stays reproducible for a fixed plan.
type FaultOverlay struct {
	numNodes int

	down     []bool
	linkDown map[linkKey]bool

	// partition assignment: group[id] is the node's cell, valid only while
	// partitioned and only when groupEpoch[id] matches the current epoch.
	// Nodes whose stamp is stale were not listed in any Partition group and
	// share the implicit remainder cell — the epoch stamp makes SetPartition
	// O(listed nodes) instead of an O(topology) reset per fault event.
	partitioned bool
	group       []int
	groupEpoch  []int
	curEpoch    int
	restCell    int
}

// newFaultOverlay returns a fault-free overlay for a topology of numNodes
// nodes.
func newFaultOverlay(numNodes int) *FaultOverlay {
	return &FaultOverlay{
		numNodes:   numNodes,
		down:       make([]bool, numNodes),
		linkDown:   make(map[linkKey]bool),
		group:      make([]int, numNodes),
		groupEpoch: make([]int, numNodes),
	}
}

// InstallFaultOverlay installs a fault overlay on the network and returns
// it; repeated calls return the already-installed overlay.
func (nw *Network) InstallFaultOverlay() *FaultOverlay {
	if nw.fault == nil {
		nw.fault = newFaultOverlay(len(nw.nodes))
	}
	return nw.fault
}

// NumNodes returns the topology size the overlay guards.
func (o *FaultOverlay) NumNodes() int { return o.numNodes }

// SetNodeDown marks a node as powered off (true) or back on (false). A down
// node neither transmits nor receives.
func (o *FaultOverlay) SetNodeDown(id int, down bool) {
	if id >= 0 && id < o.numNodes {
		o.down[id] = down
	}
}

// NodeDown reports whether a node is currently powered off.
func (o *FaultOverlay) NodeDown(id int) bool {
	return id >= 0 && id < o.numNodes && o.down[id]
}

// SetLinkDown opens (true) or closes (false) an outage window on the
// directed link from->to.
func (o *FaultOverlay) SetLinkDown(from, to int, down bool) {
	key := linkKey{from: from, to: to}
	if down {
		o.linkDown[key] = true
	} else {
		delete(o.linkDown, key)
	}
}

// SetPartition cuts the network along the given node-set boundary: packets
// cross cells only after ClearPartition. Nodes listed in groups[i] join cell
// i; unlisted nodes share the implicit remainder cell.
func (o *FaultOverlay) SetPartition(groups [][]int) {
	o.curEpoch++
	o.restCell = len(groups)
	for gi, g := range groups {
		for _, id := range g {
			if id >= 0 && id < o.numNodes {
				o.group[id] = gi
				o.groupEpoch[id] = o.curEpoch
			}
		}
	}
	o.partitioned = true
}

// cellOf resolves a node's partition cell: its stamped group when listed in
// the current partition, the remainder cell otherwise.
func (o *FaultOverlay) cellOf(id int) int {
	if o.groupEpoch[id] == o.curEpoch {
		return o.group[id]
	}
	return o.restCell
}

// ClearPartition heals the current partition.
func (o *FaultOverlay) ClearPartition() { o.partitioned = false }

// Blocked reports whether a current fault forbids delivery from->to.
func (o *FaultOverlay) Blocked(from, to int) bool {
	if o.NodeDown(from) || o.NodeDown(to) {
		return true
	}
	if len(o.linkDown) > 0 && o.linkDown[linkKey{from: from, to: to}] {
		return true
	}
	if o.partitioned && from >= 0 && from < o.numNodes && to >= 0 && to < o.numNodes &&
		o.cellOf(from) != o.cellOf(to) {
		return true
	}
	return false
}
