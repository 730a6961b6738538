// Package metrics collects the performance measures the paper reports: data,
// SNACK and advertisement packet counts, total communication cost in bytes,
// and dissemination latency (time until every node holds the full image),
// plus security counters for the adversarial experiments.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
)

// Collector accumulates counters for one simulation run. The zero value is
// not ready for use; call New.
type Collector struct {
	// Per-type counters, indexed by packet.Type: one slot per value of the
	// type, so every index is in range.
	txCount [typeSlots]int64
	txBytes [typeSlots]int64
	rxCount [typeSlots]int64

	dataTxByUnit  map[int]int64
	dataTxByIndex map[[2]int]int64 // (unit, index) -> transmissions

	// Per-node state is node-indexed, grown on first use of an id: ~16 B per
	// node instead of map entries, which matters at 100k nodes. Time slices
	// hold t+1, so zero means "never". The completion count and latency are
	// maintained incrementally so reporting never rescans the slices.
	nodeTx  []int64
	done    []sim.Time
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
	authDrops        int64 // packets dropped by per-packet authentication
	forgedAccepted   int64 // forged packets accepted (must stay zero)
	sigVerifications int64 // expensive signature verifications performed
	puzzleRejects    int64 // signature packets rejected by the weak authenticator
	channelLosses    int64 // packets dropped by the lossy channel
	faultDrops       int64 // deliveries blocked by the fault overlay
}

// typeSlots is the number of packet.Type values.
const typeSlots = math.MaxUint8 + 1

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		dataTxByUnit:  make(map[int]int64),
		dataTxByIndex: make(map[[2]int]int64),
	}
}

// grow returns s extended with zeros so that index id is valid.
func grow[T int64 | sim.Time](s []T, id packet.NodeID) []T {
	if int(id) >= len(s) {
		s = append(s, make([]T, int(id)+1-len(s))...)
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

// RecordTx accounts one transmission of p by node from.
func (c *Collector) RecordTx(from packet.NodeID, p packet.Packet) {
	c.txCount[p.Kind()]++
	c.txBytes[p.Kind()] += int64(p.WireSize())
	c.nodeTx = grow(c.nodeTx, from)
	c.nodeTx[from]++
	if d, ok := p.(*packet.Data); ok {
		c.dataTxByUnit[int(d.Unit)]++
		c.dataTxByIndex[[2]int{int(d.Unit), int(d.Index)}]++
	}
}

// DataTxForIndex returns transmissions of one specific (unit, index) packet,
// used by scheduler diagnostics and ablation benches.
func (c *Collector) DataTxForIndex(u, idx int) int64 {
	return c.dataTxByIndex[[2]int{u, idx}]
}

// DataTxForUnit returns the number of data-packet transmissions for one
// unit, used by Fig. 3 to count page data packets separately from hash-page
// traffic.
func (c *Collector) DataTxForUnit(u int) int64 { return c.dataTxByUnit[u] }

// DataTxFromUnit returns data-packet transmissions for all units >= u.
func (c *Collector) DataTxFromUnit(u int) int64 {
	var total int64
	for unit, n := range c.dataTxByUnit {
		if unit >= u {
			total += n
		}
	}
	return total
}

// RecordRx accounts a successful delivery of p to a node.
func (c *Collector) RecordRx(p packet.Packet) { c.rxCount[p.Kind()]++ }

// RecordChannelLoss accounts a packet dropped by the channel. Channel and
// fault drops are disjoint: every lost delivery is recorded under exactly
// one of the two.
func (c *Collector) RecordChannelLoss() { c.channelLosses++ }

// RecordFaultDrop accounts a delivery blocked by the fault overlay (down
// endpoint, link outage window, or partition boundary).
func (c *Collector) RecordFaultDrop() { c.faultDrops++ }

// RecordAuthDrop accounts a packet rejected by immediate authentication.
func (c *Collector) RecordAuthDrop() { c.authDrops++ }

// RecordForgedAccepted accounts a forged packet that slipped past
// authentication; any nonzero value is a protocol failure.
func (c *Collector) RecordForgedAccepted() { c.forgedAccepted++ }

// RecordSigVerification accounts one expensive signature verification.
func (c *Collector) RecordSigVerification() { c.sigVerifications++ }

// RecordPuzzleReject accounts a signature packet filtered by the weak
// authenticator before any expensive verification.
func (c *Collector) RecordPuzzleReject() { c.puzzleRejects++ }

// RecordCompletion notes that node finished receiving the image at time t.
// Only the first completion per node is kept.
func (c *Collector) RecordCompletion(node packet.NodeID, t sim.Time) {
	c.done = grow(c.done, node)
	if c.done[node] == 0 {
		c.done[node] = t + 1
		c.nDone++
		if t > c.maxDone {
			c.maxDone = t
		}
	}
}

// RecordCrash notes that node lost power at time t with lostPkts packets of
// its in-progress unit wiped from RAM (flash-resident completed units are
// retained and not counted).
func (c *Collector) RecordCrash(node packet.NodeID, t sim.Time, lostPkts int) {
	c.crashes++
	c.crashLostPkts += int64(lostPkts)
	c.lastCrash = grow(c.lastCrash, node)
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
	c.lastReboot = grow(c.lastReboot, node)
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

// Tx returns the number of transmissions of the given type.
func (c *Collector) Tx(t packet.Type) int64 { return c.txCount[t] }

// TxBytesOf returns the bytes transmitted for the given type.
func (c *Collector) TxBytesOf(t packet.Type) int64 { return c.txBytes[t] }

// Rx returns the number of successful deliveries of the given type.
func (c *Collector) Rx(t packet.Type) int64 { return c.rxCount[t] }

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

// Completions returns how many nodes have completed.
func (c *Collector) Completions() int { return c.nDone }

// CompletionTime returns when node finished, if it did.
func (c *Collector) CompletionTime(node packet.NodeID) (sim.Time, bool) {
	if t := valueAt(c.done, node); t > 0 {
		return t - 1, true
	}
	return 0, false
}

// Latency returns the overall dissemination latency: the maximum completion
// time over all completed nodes.
func (c *Collector) Latency() sim.Time { return c.maxDone }

// AuthDrops returns the count of authentication rejections.
func (c *Collector) AuthDrops() int64 { return c.authDrops }

// ForgedAccepted returns the count of forged packets accepted.
func (c *Collector) ForgedAccepted() int64 { return c.forgedAccepted }

// SigVerifications returns the count of signature verifications.
func (c *Collector) SigVerifications() int64 { return c.sigVerifications }

// PuzzleRejects returns the count of weak-authenticator rejections.
func (c *Collector) PuzzleRejects() int64 { return c.puzzleRejects }

// ChannelLosses returns the count of channel-dropped packets (fault-blocked
// deliveries are counted separately; see FaultDrops).
func (c *Collector) ChannelLosses() int64 { return c.channelLosses }

// FaultDrops returns the count of deliveries blocked by the fault overlay.
func (c *Collector) FaultDrops() int64 { return c.faultDrops }

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
	if c.crashes > 0 || c.reboots > 0 || c.faultDrops > 0 {
		fmt.Fprintf(&sb, "; faults[crashes %d reboots %d lost_pkts %d refetched %d fault_drops %d downtime %v",
			c.crashes, c.reboots, c.crashLostPkts, c.refetched, c.faultDrops, c.downtime)
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
