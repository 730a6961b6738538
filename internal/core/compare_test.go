package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"lrseluge/internal/dissem"
	"lrseluge/internal/erasure/rs"
	"lrseluge/internal/packet"
)

// reach has dst complete every unit below upTo, taking each unit's packets
// from src in descending index order (parity first) until it completes.
func reach(t *testing.T, src, dst *Handler, upTo int) {
	t.Helper()
	for u := dst.CompleteUnits(); u < upTo; u++ {
		for idx := dst.PacketsInUnit(u) - 1; dst.CompleteUnits() == u; idx-- {
			if idx < 0 {
				t.Fatalf("unit %d incomplete after every packet", u)
			}
			if res := dst.Ingest(mustPacket(t, src, u, idx)); res == dissem.Rejected {
				t.Fatalf("unit %d idx %d rejected", u, idx)
			}
		}
	}
}

func mustPacket(t *testing.T, src *Handler, u, idx int) *packet.Data {
	t.Helper()
	d, err := src.Packet(u, idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// kept reports whether h keeps a pre-entry payload for packet idx of the
// unit in progress, rather than only its held bit.
func kept(h *Handler, idx int) bool {
	return idx < len(h.pre) && h.pre[idx] != nil
}

// alterShard replaces the payload h keeps at pre-entry slot idx with a copy
// whose byte at pos (mod its length) is XORed with mask: a white-box
// corruption after authentication that leaves the packet's own bytes
// untouched.
func alterShard(h *Handler, idx, pos int, mask byte) {
	c := bytes.Clone(h.pre[idx])
	c[pos%len(c)] ^= mask
	h.pre[idx] = c
}

// subsetKinds draw k'-subsets of a unit's n packet indices, the first k of
// them data (systematic) packets: all data, parity first (every parity
// packet, topped up with data ones when there are fewer than k'), and mixed.
var subsetKinds = []struct {
	name string
	pick func(rng *rand.Rand, k, n, need int) []int
}{
	{"data", func(rng *rand.Rand, k, n, need int) []int { return rng.Perm(k)[:need] }},
	{"parity-first", func(rng *rand.Rand, k, n, need int) []int {
		idxs := rng.Perm(n - k)
		for i := range idxs {
			idxs[i] += k
		}
		return append(idxs, rng.Perm(k)...)[:need]
	}},
	{"mixed", func(rng *rand.Rand, k, n, need int) []int { return rng.Perm(n)[:need] }},
}

// TestCompletionByComparison is the differential test of the two ways a
// unit completes. A first completer decodes every unit; then, for k'-subsets
// of every kind, a later completer holds that node's entry without decoding,
// keeping no payload (the entry existed before each packet, so no pre-entry
// slot is ever allocated), and the entry's blocks equal an independent RS
// decode of the same packets.
func TestCompletionByComparison(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 600, s)
		src := Preload(f.obj, f.store, f.sigCtx())
		first := f.receiver(t)
		relay(t, src, first, rand.New(rand.NewSource(1)))
		rng := rand.New(rand.NewSource(2))
		for u := 1; u < first.TotalUnits(); u++ {
			entry := f.store.Lookup(f.obj.Root(), u)
			if entry == nil || first.units[u-1] != entry {
				t.Fatalf("unit %d: first completer's entry not interned", u)
			}
			n, need, k := first.PacketsInUnit(u), first.NeededInUnit(u), len(entry.blocks)
			code, err := rs.New(k, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range subsetKinds {
				for draw := 0; draw < 3; draw++ {
					idxs := kind.pick(rng, k, n, need)
					dst := storeReceiver(t, f, f.store, src)
					reach(t, src, dst, u)
					shards := make([][]byte, n)
					for i, idx := range idxs {
						d := mustPacket(t, src, u, idx)
						shards[idx] = d.Payload
						res := dst.Ingest(d)
						if i < need-1 {
							if res != dissem.Stored || !dst.HasPacket(u, idx) || dst.pre != nil {
								t.Fatalf("unit %d %s %v: packet %d %v, held %v, slots %v", u, kind.name, idxs, idx, res, dst.HasPacket(u, idx), dst.pre != nil)
							}
						} else if res != dissem.UnitComplete {
							t.Fatalf("unit %d %s %v: completing packet %v", u, kind.name, idxs, res)
						}
					}
					if dst.units[u-1] != entry || dst.pre != nil {
						t.Fatalf("unit %d %s %v: holds another entry than the first completer's, or allocated slots", u, kind.name, idxs)
					}
					blocks, err := code.Decode(shards)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.EqualFunc(blocks, entry.blocks, bytes.Equal) {
						t.Fatalf("unit %d %s %v: entry differs from the RS decode of the same packets", u, kind.name, idxs)
					}
				}
			}
		}
	})
}

// TestEntryAppearsMidUnit has node A ingest j < k' packets of a unit, node B
// complete and intern it, and A finish: A keeps the payloads from before the
// entry, only the bits of the later packets, compares the kept payloads byte
// for byte and holds B's entry. Replacing any one of A's kept payloads with
// an altered copy makes the completing packet Rejected and wipes the unit in
// progress instead. (A later packet keeps no bytes to alter: it was compared
// with the entry on arrival.)
func TestEntryAppearsMidUnit(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 600, s)
		src := Preload(f.obj, f.store, f.sigCtx())
		rng := rand.New(rand.NewSource(3))
		for _, u := range []int{1, 2} {
			need, n := src.NeededInUnit(u), src.PacketsInUnit(u)
			for j := 1; j < need; j++ {
				// alter: -1 keeps every payload; otherwise the kept payload
				// at that position of the arrival order is altered.
				for alter := -1; alter < j; alter++ {
					store := NewStore()
					a, b := storeReceiver(t, f, store, src), storeReceiver(t, f, store, src)
					reach(t, src, b, u)
					reach(t, src, a, u)
					idxs := rng.Perm(n)[:need]
					for _, idx := range idxs[:j] {
						if res := a.Ingest(mustPacket(t, src, u, idx)); res != dissem.Stored {
							t.Fatalf("unit %d: packet %d before the entry: %v", u, idx, res)
						}
					}
					reach(t, src, b, u+1)
					entry := store.Lookup(f.obj.Root(), u)
					if entry == nil || b.units[u-1] != entry {
						t.Fatalf("unit %d: B did not intern the unit", u)
					}
					for _, idx := range idxs[j : need-1] {
						if res := a.Ingest(mustPacket(t, src, u, idx)); res != dissem.Stored {
							t.Fatalf("unit %d: packet %d after the entry: %v", u, idx, res)
						}
					}
					for i, idx := range idxs[:need-1] {
						if got, want := kept(a, idx), i < j; got != want || !a.HasPacket(u, idx) {
							t.Fatalf("unit %d j=%d: packet %d kept %v, want %v, held %v", u, j, idx, got, want, a.HasPacket(u, idx))
						}
					}
					if alter >= 0 {
						alterShard(a, idxs[alter], alter, 0x40)
					}
					res := a.Ingest(mustPacket(t, src, u, idxs[need-1]))
					if alter < 0 {
						if res != dissem.UnitComplete || a.units[u-1] != entry {
							t.Fatalf("unit %d j=%d: completing packet %v", u, j, res)
						}
						continue
					}
					if res != dissem.Rejected || a.CompleteUnits() != u || a.count != 0 {
						t.Fatalf("unit %d j=%d: altered payload %d gave %v, %d units, %d held", u, j, idxs[alter], res, a.CompleteUnits(), a.count)
					}
					for idx := 0; idx < n; idx++ {
						if a.HasPacket(u, idx) || kept(a, idx) {
							t.Fatalf("unit %d: packet %d survived the rejected completion", u, idx)
						}
					}
					if !slices.EqualFunc(entry.blocks, f.obj.units[u-1].blocks, bytes.Equal) {
						t.Fatalf("unit %d: altering a held shard changed the entry", u)
					}
					reach(t, src, a, u+1)
					if a.units[u-1] != entry {
						t.Fatalf("unit %d: genuine packets after the rejection did not complete", u)
					}
				}
			}
		}
	})
}

// storeReceiver returns a receiver on store that has verified src's
// signature.
func storeReceiver(t *testing.T, f *fixture, store *Store, src *Handler) *Handler {
	t.Helper()
	h, err := NewHandler(1, f.scheme, store, f.sigCtx())
	if err != nil {
		t.Fatal(err)
	}
	relaySig(t, src, h)
	return h
}

// TestNoCompletionBelowKPrime feeds k'-1 distinct genuine packets of a unit,
// then every one of them again and a forgery of each remaining index, with
// and without the unit's entry in the store: the unit never completes.
func TestNoCompletionBelowKPrime(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 600, s)
		src := Preload(f.obj, f.store, f.sigCtx())
		for _, u := range []int{1, 2} {
			for _, withEntry := range []bool{false, true} {
				store := NewStore()
				if withEntry {
					reach(t, src, storeReceiver(t, f, store, src), u+1)
				}
				dst := storeReceiver(t, f, store, src)
				reach(t, src, dst, u)
				need, n := dst.NeededInUnit(u), dst.PacketsInUnit(u)
				for idx := 0; idx < need-1; idx++ {
					dst.Ingest(mustPacket(t, src, u, idx))
				}
				for idx := 0; idx < n; idx++ {
					d := *mustPacket(t, src, u, idx)
					want := dissem.Duplicate
					if idx >= need-1 {
						d.Payload = bytes.Clone(d.Payload)
						d.Payload[0] ^= 1
						want = dissem.Rejected
					}
					if res := dst.Ingest(&d); res != want {
						t.Fatalf("unit %d entry=%v idx %d: %v, want %v", u, withEntry, idx, res, want)
					}
				}
				if dst.CompleteUnits() != u || dst.count != need-1 {
					t.Fatalf("unit %d entry=%v: %d units complete with %d of %d packets", u, withEntry, dst.CompleteUnits(), dst.count, need)
				}
			}
		}
	})
}

// FuzzIngestCompare drives two handlers, A and B, that share one store
// through one unit: M0 or page 1. The input picks the scheme and the unit,
// A's packet arrival order (one index per byte, repeats allowed), the step
// before which B completes the unit (never, when past the end), and an
// optional one-byte flip of a shard A holds, applied once B's entry exists.
// A must complete exactly when it holds k' distinct authentic packets,
// every entry it holds must equal the Object's unit byte for byte, and a
// completion over a flipped payload must be refused with the unit wiped.
// The first completer of a page has no entry to compare with, and a packet
// ingested after B's entry appeared keeps no payload, so flips apply only
// to payloads A kept before B's entry existed.
func FuzzIngestCompare(f *testing.F) {
	fixtures := make([]*fixture, len(schemes))
	for i, c := range schemes {
		s, err := c.new(c.params)
		if err != nil {
			f.Fatal(err)
		}
		fixtures[i] = newFixture(f, 300, s)
	}
	// The differential tests' cases, on LR-Seluge's 4-6-4 code unless
	// named: all data, parity first, mixed, rate 1/2 all parity, Seluge,
	// the entry appearing mid-unit, A completing first, and flips.
	for _, pick := range []uint8{0, 3} {
		f.Add(pick, []byte{0, 1, 2, 3}, uint8(0), uint16(0))
		f.Add(pick, []byte{5, 4, 0, 1}, uint8(0), uint16(0))
		f.Add(pick, []byte{2, 5, 2, 0, 3}, uint8(0), uint16(0))
		f.Add(pick, []byte{0, 4, 1}, uint8(2), uint16(0))
		f.Add(pick, []byte{4, 0, 1, 3}, uint8(200), uint16(0))
		f.Add(pick, []byte{1, 5, 0, 3, 4, 2}, uint8(2), uint16(0x0301))
		f.Add(pick, []byte{1, 5, 0, 3, 4, 2}, uint8(3), uint16(0x1f80))
	}
	f.Add(uint8(1), []byte{4, 5, 6, 7}, uint8(0), uint16(0))
	f.Add(uint8(4), []byte{7, 6, 5, 4}, uint8(1), uint16(0x0201))
	f.Add(uint8(2), []byte{3, 2, 1, 0}, uint8(1), uint16(0x0001))
	f.Add(uint8(5), []byte{3, 2, 1, 0, 3}, uint8(0), uint16(0))

	f.Fuzz(func(t *testing.T, pick uint8, order []byte, otherAt uint8, flip uint16) {
		fx := fixtures[int(pick)%len(fixtures)]
		u := 1 + int(pick)/len(fixtures)%2
		if len(order) > 64 {
			order = order[:64]
		}
		store := NewStore()
		src := Preload(fx.obj, store, fx.sigCtx())
		a, b := storeReceiver(t, fx, store, src), storeReceiver(t, fx, store, src)
		reach(t, src, b, u)
		reach(t, src, a, u)
		n, need := a.PacketsInUnit(u), a.NeededInUnit(u)
		held := map[int]bool{}
		flipped := false
		for step, c := range order {
			if step == int(otherAt) {
				reach(t, src, b, u+1)
			}
			low := slices.IndexFunc(a.pre, func(s []byte) bool { return s != nil })
			if flip != 0 && !flipped && b.CompleteUnits() > u && low >= 0 {
				// Alter the lowest-index payload A kept.
				alterShard(a, low, int(flip>>8), max(byte(flip), 1))
				flipped = true
			}
			idx := int(c) % n
			res := a.Ingest(mustPacket(t, src, u, idx))
			switch {
			case held[idx]:
				if res != dissem.Duplicate {
					t.Fatalf("repeated packet %d: %v", idx, res)
				}
			case len(held)+1 < need:
				if res != dissem.Stored {
					t.Fatalf("packet %d with %d held: %v", idx, len(held), res)
				}
				held[idx] = true
			case flipped:
				if res != dissem.Rejected || a.count != 0 || a.CompleteUnits() != u ||
					slices.ContainsFunc(a.pre, func(s []byte) bool { return s != nil }) {
					t.Fatalf("completion over a flipped payload: %v, %d held", res, a.count)
				}
				clear(held)
				flipped = false
			default:
				if res != dissem.UnitComplete {
					t.Fatalf("packet %d with %d distinct held: %v", idx, len(held), res)
				}
				if entry := store.Lookup(fx.obj.Root(), u); a.units[u-1] != entry ||
					(b.CompleteUnits() > u && b.units[u-1] != entry) {
					t.Fatal("A does not hold the store's entry")
				}
				for i, e := range a.units {
					if !slices.EqualFunc(e.blocks, fx.obj.units[i].blocks, bytes.Equal) {
						t.Fatalf("held unit %d differs from the Object's", i+1)
					}
				}
				return
			}
		}
		if a.CompleteUnits() != u || a.count != len(held) {
			t.Fatalf("%d units complete, %d packets held, want %d and %d", a.CompleteUnits(), a.count, u, len(held))
		}
	})
}

// TestPartlyBeforeEntryCompletes has node A ingest part of a unit's k'
// packets before node B interns the unit and the rest after: the early
// payloads sit in A's pre-entry slots, the later packets leave only their
// bits, and A completes by comparison holding B's entry, its slots cleared
// in place for the next unit rather than released.
func TestPartlyBeforeEntryCompletes(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 600, s)
		src := Preload(f.obj, f.store, f.sigCtx())
		for _, u := range []int{1, 2} {
			store := NewStore()
			a, b := storeReceiver(t, f, store, src), storeReceiver(t, f, store, src)
			reach(t, src, b, u)
			reach(t, src, a, u)
			need := a.NeededInUnit(u)
			before := (need + 1) / 2
			for idx := 0; idx < before; idx++ {
				if res := a.Ingest(mustPacket(t, src, u, idx)); res != dissem.Stored || !kept(a, idx) {
					t.Fatalf("unit %d: packet %d before the entry: %v, kept %v", u, idx, res, kept(a, idx))
				}
			}
			slots := &a.pre[:1][0]
			reach(t, src, b, u+1)
			entry := store.Lookup(f.obj.Root(), u)
			for idx := before; idx < need; idx++ {
				res := a.Ingest(mustPacket(t, src, u, idx))
				if kept(a, idx) {
					t.Fatalf("unit %d: packet %d after the entry kept its payload", u, idx)
				}
				switch {
				case idx == need-1 && res != dissem.UnitComplete:
					t.Fatalf("unit %d: completing packet %v", u, res)
				case idx < need-1 && (res != dissem.Stored || !a.HasPacket(u, idx)):
					t.Fatalf("unit %d: packet %d after the entry: %v", u, idx, res)
				}
			}
			if a.units[u-1] != entry || a.count != 0 {
				t.Fatalf("unit %d: A holds another entry than B's, or %d packets", u, a.count)
			}
			if a.pre == nil || &a.pre[:1][0] != slots || slices.ContainsFunc(a.pre, func(s []byte) bool { return s != nil }) {
				t.Fatalf("unit %d: pre-entry slots released or not cleared after completion", u)
			}
		}
	})
}

// TestPreEntrySlotsReusedAcrossUnits has one node first-complete M0 and
// then page 1, decoding both from its pre-entry slots. Under a scheme with
// n0 != n the one slot array, allocated on M0's first packet, serves both
// unit sizes; it is released once every unit is held.
func TestPreEntrySlotsReusedAcrossUnits(t *testing.T) {
	sized := false
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 600, s)
		dst := f.receiver(t)
		src := bootstrap(t, f, dst)
		if dst.pre != nil {
			t.Fatal("slots allocated before any packet")
		}
		n0, n := dst.PacketsInUnit(1), dst.PacketsInUnit(2)
		sized = sized || n0 != n
		var slots *[]byte
		for u := 1; u <= 2; u++ {
			for idx := 0; idx < dst.NeededInUnit(u); idx++ {
				if res := dst.Ingest(mustPacket(t, src, u, idx)); res == dissem.Rejected {
					t.Fatalf("unit %d packet %d rejected", u, idx)
				}
				if dst.CompleteUnits() == u && (!kept(dst, idx) || len(dst.slots(u)) != dst.PacketsInUnit(u)) {
					t.Fatalf("unit %d packet %d: kept %v in %d slots", u, idx, kept(dst, idx), len(dst.slots(u)))
				}
			}
			if dst.CompleteUnits() != u+1 || f.store.Lookup(f.obj.Root(), u) != dst.units[u-1] {
				t.Fatalf("unit %d: not first-completed", u)
			}
			if cap(dst.pre) != max(n0, n) {
				t.Fatalf("unit %d: %d slots, want room for max(n0=%d, n=%d)", u, cap(dst.pre), n0, n)
			}
			if slots == nil {
				slots = &dst.pre[:1][0]
			} else if &dst.pre[:1][0] != slots {
				t.Fatalf("unit %d: slot array reallocated", u)
			}
		}
		deliverSubset(t, src, dst, rand.New(rand.NewSource(6)))
		if !dst.MatchesImage(f.data) || dst.pre != nil {
			t.Fatalf("image ok %v, slots kept %v", dst.MatchesImage(f.data), dst.pre != nil)
		}
	})
	if !sized {
		t.Fatal("no scheme has n0 != n")
	}
}
