// Package metrics collects the performance measures the paper reports: data,
// SNACK and advertisement packet counts, total communication cost in bytes,
// and dissemination latency (time until every node holds the full image),
// plus security counters for the adversarial experiments.
//
// The Collector is also the one place radio and the protocol nodes report a
// packet event: Tx, Rx, Drop, SigResult and Complete each count the event
// and then forward it to the run's tracer, so the counters and the trace
// stream are fed by a single call and cannot disagree.
package metrics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"

	"lrseluge/internal/obs"
	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
	"lrseluge/internal/trace"
)

// Collector accumulates counters for one simulation run. The zero value is
// not ready for use; call New.
type Collector struct {
	// tr receives every reported event after it is counted; nil (the
	// default) disables tracing. The per-delivery reports test it before
	// the call, so a run without tracing pays one branch per event.
	tr *trace.Tracer
	// txHash, when set by HashTx, hashes every transmission; txHdr is its
	// reused (time, sender) header.
	txHash hash.Hash
	txHdr  [10]byte

	// Per-type counters, indexed by packet.Type: one slot per value of the
	// type, so every index is in range.
	txCount [typeSlots]int64
	txBytes [typeSlots]int64
	rxCount [typeSlots]int64

	// drops counts dropped packets by trace.DropReason. Every drop has
	// exactly one reason, so channel and fault drops are disjoint.
	drops [dropSlots]int64

	// dataTxByUnit counts data transmissions per unit, grown on first use
	// of a unit like the per-node slices below.
	dataTxByUnit []int64

	// Per-node state is node-indexed, grown on first use of an id: ~18 B per
	// node instead of map entries, which matters at 100k nodes. Time slices
	// hold t+1, so zero means "never"; doneVer is the version each done time
	// belongs to. The completion count and latency cover version ver, the
	// newest reported, and are maintained incrementally so reporting never
	// rescans the slices.
	nodeTx  []int64
	done    []sim.Time
	doneVer []uint16
	ver     uint16
	nDone   int
	maxDone sim.Time

	// Fault-injection counters (see internal/fault).
	crashes       int64
	reboots       int64
	crashLostPkts int64      // packets of in-progress units lost to crashes (RAM wiped)
	refetched     int64      // packets re-fetched for crash-interrupted units after reboot
	downtime      sim.Time   // sum of closed crash->reboot windows
	lastCrash     []sim.Time // start of each node's open crash window
	lastReboot    []sim.Time // most recent reboot per node

	// Security counters.
	sigRejects       int64 // signature packets that failed full verification
	forgedAccepted   int64 // forged packets accepted (must stay zero)
	sigVerifications int64 // expensive signature verifications performed
}

// typeSlots is the number of packet.Type values; dropSlots the number of
// trace.DropReason values.
const (
	typeSlots = math.MaxUint8 + 1
	dropSlots = math.MaxUint8 + 1
)

// New returns an empty collector that forwards every reported event to tr;
// a nil tr disables tracing.
func New(tr *trace.Tracer) *Collector { return &Collector{tr: tr} }

// HeapBytes returns the heap bytes of the collector's struct and its
// per-node and per-unit arrays (obs.AllocBytes over struct sizes and
// counts). The tracer and transmission hash are not counted.
func (c *Collector) HeapBytes() int64 {
	return obs.ObjectBytes(c) + obs.SliceBytes(c.dataTxByUnit) + obs.SliceBytes(c.nodeTx) +
		obs.SliceBytes(c.done) + obs.SliceBytes(c.doneVer) + obs.SliceBytes(c.lastCrash) + obs.SliceBytes(c.lastReboot)
}

// Tracer returns the run's tracer; nil means tracing is off. Protocol nodes
// and the fault engine pick it up here for the events only they see.
func (c *Collector) Tracer() *trace.Tracer { return c.tr }

// grow returns s extended with zeros so that index i is valid.
func grow[T int64 | sim.Time | uint16](s []T, i int) []T {
	if i >= len(s) {
		s = append(s, make([]T, i+1-len(s))...)
	}
	return s
}

// valueAt returns s[id], or zero when s does not reach id.
func valueAt[T int64 | sim.Time](s []T, id packet.NodeID) T {
	if int(id) < len(s) {
		return s[id]
	}
	return 0
}

// Tx reports the transmission of p by node from, completed at virtual time
// at.
func (c *Collector) Tx(at sim.Time, from packet.NodeID, p packet.Packet) {
	c.txCount[p.Kind()]++
	c.txBytes[p.Kind()] += int64(p.WireSize())
	c.nodeTx = grow(c.nodeTx, int(from))
	c.nodeTx[from]++
	if d, ok := p.(*packet.Data); ok {
		c.dataTxByUnit = grow(c.dataTxByUnit, int(d.Unit))
		c.dataTxByUnit[d.Unit]++
	}
	if c.tr != nil {
		c.tr.Tx(from, p)
	}
	if c.txHash != nil {
		binary.BigEndian.PutUint64(c.txHdr[0:8], uint64(at))
		binary.BigEndian.PutUint16(c.txHdr[8:10], uint16(from))
		c.txHash.Write(c.txHdr[:])
		c.txHash.Write(p.Marshal())
	}
}

// HashTx hashes every transmission from now on, in global transmission
// order: the big-endian u64 virtual time, the big-endian u16 sender, then the
// packet's wire bytes. The returned function yields the hex sha256 of the
// trace so far. Trace hashes are the byte-identity referee across queue
// kinds, obs settings and code changes, so this layout must not change. A
// later call starts a new hash, and the earlier one stops advancing.
func (c *Collector) HashTx() func() string {
	h := sha256.New()
	c.txHash = h
	return func() string { return hex.EncodeToString(h.Sum(nil)) }
}

// DataTxFromUnit returns data-packet transmissions for all units >= u.
func (c *Collector) DataTxFromUnit(u int) int64 {
	var total int64
	for _, n := range c.dataTxByUnit[min(max(u, 0), len(c.dataTxByUnit)):] {
		total += n
	}
	return total
}

// Rx reports the delivery of p, sent by from, to node to.
func (c *Collector) Rx(to, from packet.NodeID, p packet.Packet) {
	c.rxCount[p.Kind()]++
	if c.tr != nil {
		c.tr.Rx(to, from, p)
	}
}

// Drop reports the death of p, sent by from, on its way to or inside node,
// attributed to exactly one reason.
func (c *Collector) Drop(node, from packet.NodeID, p packet.Packet, r trace.DropReason) {
	c.drops[r]++
	if c.tr != nil {
		c.tr.Drop(node, from, p, r)
	}
}

// SigResult reports the outcome of a node's full signature verification of
// a packet sent by from. A rejected signature counts as an authentication
// drop.
func (c *Collector) SigResult(node, from packet.NodeID, ok bool) {
	if !ok {
		c.sigRejects++
	}
	c.tr.SigResult(node, from, ok)
}

// Complete reports that node holds the full image of version at time t. It
// records and traces only the node's first report of each version and
// returns whether this was it. Completions and Latency count the newest
// version reported, so the first report of a newer version starts a fresh
// count and an older version's late reports are left out of it.
func (c *Collector) Complete(node packet.NodeID, version uint16, t sim.Time) bool {
	c.done = grow(c.done, int(node))
	c.doneVer = grow(c.doneVer, int(node))
	if c.done[node] > 0 && c.doneVer[node] == version {
		return false
	}
	c.done[node], c.doneVer[node] = t+1, version
	if version > c.ver {
		c.ver, c.nDone, c.maxDone = version, 0, 0
	}
	if version == c.ver {
		c.nDone++
		c.maxDone = max(c.maxDone, t)
	}
	c.tr.Complete(node)
	return true
}

// RecordForgedAccepted accounts a forged packet that slipped past
// authentication; any nonzero value is a protocol failure.
func (c *Collector) RecordForgedAccepted() { c.forgedAccepted++ }

// RecordSigVerification accounts one expensive signature verification.
func (c *Collector) RecordSigVerification() { c.sigVerifications++ }

// RecordCrash notes that node lost power at time t with lostPkts packets of
// its in-progress unit wiped from RAM (flash-resident completed units are
// retained and not counted).
func (c *Collector) RecordCrash(node packet.NodeID, t sim.Time, lostPkts int) {
	c.crashes++
	c.crashLostPkts += int64(lostPkts)
	c.lastCrash = grow(c.lastCrash, int(node))
	c.lastCrash[node] = t + 1
}

// RecordReboot notes that node powered back on at time t, closing its
// downtime window.
func (c *Collector) RecordReboot(node packet.NodeID, t sim.Time) {
	c.reboots++
	if down := valueAt(c.lastCrash, node); down > 0 {
		c.downtime += t - (down - 1)
		c.lastCrash[node] = 0
	}
	c.lastReboot = grow(c.lastReboot, int(node))
	c.lastReboot[node] = t + 1
}

// RecordRefetch accounts one packet re-fetched after a reboot for the unit a
// crash interrupted — the price of losing RAM assembly state. Packets of
// flash-retained units are never re-fetched, so this counter measures the
// crash recovery cost directly.
func (c *Collector) RecordRefetch() { c.refetched++ }

// Crashes returns the number of node crashes.
func (c *Collector) Crashes() int64 { return c.crashes }

// Reboots returns the number of node reboots.
func (c *Collector) Reboots() int64 { return c.reboots }

// CrashLostPkts returns the packets wiped from RAM across all crashes.
func (c *Collector) CrashLostPkts() int64 { return c.crashLostPkts }

// RefetchedPkts returns the packets re-fetched for crash-interrupted units.
func (c *Collector) RefetchedPkts() int64 { return c.refetched }

// TotalDowntime returns the summed duration of closed crash->reboot windows
// (a node still down when the run ends contributes nothing).
func (c *Collector) TotalDowntime() sim.Time { return c.downtime }

// MeanRecoveryLatencySec returns the average time from a node's most recent
// reboot to its completion, over nodes that completed after rebooting — the
// fault subsystem's recovery-latency measure. Zero when no node recovered.
func (c *Collector) MeanRecoveryLatencySec() float64 {
	var sum sim.Time
	var n int
	for node, reboot := range c.lastReboot {
		// Both slices hold t+1, so the offsets cancel.
		if done := valueAt(c.done, packet.NodeID(node)); reboot > 0 && done >= reboot {
			sum += done - reboot
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum.Seconds() / float64(n)
}

// TxOf returns the number of transmissions of the given type.
func (c *Collector) TxOf(t packet.Type) int64 { return c.txCount[t] }

// TxBytesOf returns the bytes transmitted for the given type.
func (c *Collector) TxBytesOf(t packet.Type) int64 { return c.txBytes[t] }

// RxOf returns the number of successful deliveries of the given type.
func (c *Collector) RxOf(t packet.Type) int64 { return c.rxCount[t] }

// TotalBytes returns the total communication cost in bytes across all packet
// types, the paper's fairness metric (§VI: SNACKs differ in length between
// schemes, so bytes are compared, not just counts).
func (c *Collector) TotalBytes() int64 {
	var total int64
	for _, b := range &c.txBytes {
		total += b
	}
	return total
}

// TotalPackets returns the total number of transmissions.
func (c *Collector) TotalPackets() int64 {
	var total int64
	for _, n := range &c.txCount {
		total += n
	}
	return total
}

// NodeTx returns the number of transmissions node id made, used by the
// denial-of-receipt experiment to measure victim load.
func (c *Collector) NodeTx(id packet.NodeID) int64 {
	return valueAt(c.nodeTx, id)
}

// Completions returns how many nodes have completed the newest version
// reported.
func (c *Collector) Completions() int { return c.nDone }

// CompletionTime returns when node finished the last version it completed,
// if it did.
func (c *Collector) CompletionTime(node packet.NodeID) (sim.Time, bool) {
	if t := valueAt(c.done, node); t > 0 {
		return t - 1, true
	}
	return 0, false
}

// Latency returns the overall dissemination latency: the maximum completion
// time over the nodes that completed the newest version reported.
func (c *Collector) Latency() sim.Time { return c.maxDone }

// AuthDrops returns the count of authentication rejections: packets
// per-packet authentication dropped plus signatures that failed full
// verification.
func (c *Collector) AuthDrops() int64 { return c.drops[trace.DropAuth] + c.sigRejects }

// ForgedAccepted returns the count of forged packets accepted.
func (c *Collector) ForgedAccepted() int64 { return c.forgedAccepted }

// SigVerifications returns the count of signature verifications.
func (c *Collector) SigVerifications() int64 { return c.sigVerifications }

// Drops returns the count of packets dropped for reason r: DropChannel for
// the lossy channel, DropFault for deliveries the fault overlay blocked,
// DropPuzzle for signature packets the weak authenticator rejected.
func (c *Collector) Drops(r trace.DropReason) int64 { return c.drops[r] }

// String renders a human-readable summary: a deterministic function of the
// counters alone, listing every transmitted packet type in type order.
func (c *Collector) String() string {
	var sb strings.Builder
	for t, n := range &c.txCount {
		if n > 0 {
			fmt.Fprintf(&sb, "%s: %d pkts / %d B; ", packet.Type(t), n, c.txBytes[t])
		}
	}
	fmt.Fprintf(&sb, "total %d B; latency %v; completed %d", c.TotalBytes(), c.Latency(), c.Completions())
	if faultDrops := c.drops[trace.DropFault]; c.crashes > 0 || c.reboots > 0 || faultDrops > 0 {
		fmt.Fprintf(&sb, "; faults[crashes %d reboots %d lost_pkts %d refetched %d fault_drops %d downtime %v",
			c.crashes, c.reboots, c.crashLostPkts, c.refetched, faultDrops, c.downtime)
		label := " still_down"
		for node, down := range c.lastCrash {
			if down > 0 {
				fmt.Fprintf(&sb, "%s %d", label, node)
				label = ""
			}
		}
		sb.WriteString("]")
	}
	return sb.String()
}
