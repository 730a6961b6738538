package experiment

import (
	"unsafe"

	"lrseluge/internal/dissem"
	"lrseluge/internal/obs"
	"lrseluge/internal/topo"
)

// MemTable returns where the run's heap goes as it stands, one row per
// component, from struct sizes and counts rounded to the allocator's size
// classes (obs.AllocBytes), not from sampling. The per-node rows sum every
// node's dissem.Footprint: node, its Trickle timer, its handler and its
// transmission policy ("scheduler"). The run-wide rows are the event
// queue's records and arrays, the topology, the radio's per-node and pooled
// state, the shared unit store (Seluge and LR-Seluge) and the collector's
// per-node arrays. BytesPerNode divides by the run's node count. Callbacks
// queued events point to, packets in flight and map overhead are not
// counted, so the sum falls a little short of the live heap.
func (e *Env) MemTable() []obs.MemRow {
	var f dissem.Footprint
	for _, n := range e.nodes {
		g := n.Footprint()
		f.Node += g.Node
		f.Trickle += g.Trickle
		f.Handler += g.Handler
		f.Policy += g.Policy
	}
	var store int64
	if e.store != nil {
		store = e.store.HeapBytes()
	}
	rows := []obs.MemRow{
		{Component: "node", Bytes: f.Node},
		{Component: "trickle", Bytes: f.Trickle},
		{Component: "handler", Bytes: f.Handler},
		{Component: "scheduler", Bytes: f.Policy},
		{Component: "queue", Bytes: e.eng.HeapBytes()},
		{Component: "topology", Bytes: graphBytes(e.nw.Graph())},
		{Component: "radio", Bytes: e.nw.HeapBytes()},
		{Component: "store", Bytes: store},
		{Component: "metrics", Bytes: e.col.HeapBytes()},
	}
	for i := range rows {
		rows[i].BytesPerNode = float64(rows[i].Bytes) / float64(len(e.nodes))
	}
	return rows
}

// graphBytes is the heap bytes of g: its struct, its position and
// neighbor-list arrays, and the links of every list, summed over the lists'
// capacities and rounded once, as a range-built graph cuts them all from
// one array.
func graphBytes(g *topo.Graph) int64 {
	n := uintptr(g.NumNodes())
	var links uintptr
	for i := range g.NumNodes() {
		links += uintptr(cap(g.Neighbors(i)))
	}
	return obs.ObjectBytes(g) + obs.AllocBytes(n*unsafe.Sizeof(topo.Point{})) +
		obs.AllocBytes(n*unsafe.Sizeof([]topo.Link(nil))) + obs.AllocBytes(links*unsafe.Sizeof(topo.Link{}))
}
