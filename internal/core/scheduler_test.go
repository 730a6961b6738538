package core

import (
	"fmt"
	"math/rand"
	"testing"

	"lrseluge/internal/packet"
)

func schedFor(n, kprime int) *Scheduler {
	return NewScheduler(func(int) int { return n }, func(int) int { return kprime })
}

func bitsFrom(s string) packet.BitVector {
	v := packet.NewBitVector(len(s))
	for i, c := range s {
		v.Set(i, c == '1')
	}
	return v
}

// TestTableIExample walks the paper's Table I setup (§IV-D.3): k = k0 = 3,
// n = 4 (so k' = 3), three requesting neighbors. With wanted-bit vectors
// v1=1101, v2=1100, v3=0101 the distance formula d = q + k' - n gives
// d1=2, d2=1, d3=1, and the algorithm proceeds exactly as the paper
// narrates its first steps: P2 is the most popular packet (popularity 3)
// and is transmitted first, dropping v2 and v3 from the table; the next
// packet is the first to P2's right with maximal popularity, P4, which
// satisfies v1 and empties the table.
func TestTableIExample(t *testing.T) {
	s := schedFor(4, 3)
	s.OnSNACK(1, 0, bitsFrom("1101"))
	s.OnSNACK(2, 0, bitsFrom("1100"))
	s.OnSNACK(3, 0, bitsFrom("0101"))

	_, dist := s.Tracking(0)
	if dist[1] != 2 || dist[2] != 1 || dist[3] != 1 {
		t.Fatalf("distances %v, want v1=2 v2=1 v3=1", dist)
	}

	// Popularities: P1=2, P2=3, P3=0, P4=2 -> transmit P2 (index 1).
	u, idx, ok := s.Next()
	if !ok || u != 0 || idx != 1 {
		t.Fatalf("first transmission: unit=%d idx=%d ok=%v, want P2 (idx 1)", u, idx, ok)
	}
	// v2 and v3 reached distance zero and were removed; v1 has d=1 and
	// still wants P1 and P4. The scan starts right of P2: P3 has
	// popularity 0, P4 has 1 -> P4.
	bits, dist := s.Tracking(0)
	if len(dist) != 1 || dist[1] != 1 || bits[1] != "1001" {
		t.Fatalf("table after P2: bits=%v dist=%v", bits, dist)
	}
	_, idx, ok = s.Next()
	if !ok || idx != 3 {
		t.Fatalf("second transmission: idx=%d, want P4 (idx 3)", idx)
	}
	if s.Pending() {
		t.Fatal("table should be empty after two transmissions")
	}
}

func TestDistanceFormula(t *testing.T) {
	// q ones with k'=8, n=12: d = q + 8 - 12.
	s := schedFor(12, 8)
	all := packet.NewBitVector(12)
	all.SetAll()
	s.OnSNACK(1, 0, all)
	_, dist := s.Tracking(0)
	if dist[1] != 8 {
		t.Fatalf("all-ones distance %d, want k'=8", dist[1])
	}
	// Exactly 8 transmissions satisfy the requester.
	count := 0
	for {
		if _, _, ok := s.Next(); !ok {
			break
		}
		count++
	}
	if count != 8 {
		t.Fatalf("transmitted %d, want 8", count)
	}
}

func TestRequesterAlreadySatisfiedDropped(t *testing.T) {
	s := schedFor(12, 8)
	// Only 3 missing but k'=8 of 12 means it already holds 9 >= 8.
	s.OnSNACK(1, 0, bitsFrom("111000000000"))
	if s.Pending() {
		t.Fatal("satisfiable requester should not create work")
	}
}

func TestPopularityDrivenOrder(t *testing.T) {
	s := schedFor(4, 4)
	s.OnSNACK(1, 0, bitsFrom("1100"))
	s.OnSNACK(2, 0, bitsFrom("0100"))
	u, idx, _ := s.Next()
	if u != 0 || idx != 1 {
		t.Fatalf("most popular packet not chosen: idx=%d", idx)
	}
}

func TestRoundRobinTieBreak(t *testing.T) {
	s := schedFor(4, 4)
	s.OnSNACK(1, 0, bitsFrom("1111"))
	order := []int{}
	for {
		_, idx, ok := s.Next()
		if !ok {
			break
		}
		order = append(order, idx)
	}
	if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 2 || order[3] != 3 {
		t.Fatalf("tie-break order %v, want 0,1,2,3", order)
	}
}

func TestRoundRobinPointerPersistsAcrossRounds(t *testing.T) {
	// After serving packets 0..3 of a round, a fresh request round must
	// continue to the right (fresh encoded packets), not rescan from 0.
	s := schedFor(8, 8)
	s.OnSNACK(1, 0, bitsFrom("11110000"))
	if got := len(drainAll(s)); got != 4 {
		t.Fatalf("first round sent %d", got)
	}
	s.OnSNACK(1, 0, bitsFrom("00001111")) // next round of needs
	_, idx, ok := s.Next()
	if !ok || idx != 4 {
		t.Fatalf("second round should continue at index 4, got %d", idx)
	}
}

func TestLowestUnitFirst(t *testing.T) {
	s := schedFor(4, 4)
	s.OnSNACK(1, 5, bitsFrom("1000"))
	s.OnSNACK(2, 2, bitsFrom("0100"))
	u, _, _ := s.Next()
	if u != 2 {
		t.Fatalf("served unit %d first, want 2", u)
	}
}

func TestOnDataOverheardUpdatesTable(t *testing.T) {
	s := schedFor(4, 4) // no redundancy: requester needs all 3 wanted packets
	s.OnSNACK(1, 0, bitsFrom("1110"))
	// Another server transmits indices 0 and 1: distance drops 3 -> 1.
	s.OnDataOverheard(0, 0)
	s.OnDataOverheard(0, 1)
	sent := drainAll(s)
	if len(sent) != 1 || sent[0] != 2 {
		t.Fatalf("after overhearing, should send only index 2: %v", sent)
	}
}

func TestOnDataOverheardCanSatisfyRequester(t *testing.T) {
	s := schedFor(4, 3)
	s.OnSNACK(1, 0, bitsFrom("1110")) // d = 3+3-4 = 2
	// Two overheard packets the requester wanted cover its distance.
	s.OnDataOverheard(0, 0)
	s.OnDataOverheard(0, 1)
	if s.Pending() {
		t.Fatal("requester should be satisfied by overheard transmissions")
	}
}

func TestDropRequester(t *testing.T) {
	s := schedFor(4, 4)
	s.OnSNACK(1, 0, bitsFrom("1111"))
	s.OnSNACK(2, 1, bitsFrom("1111"))
	s.DropRequester(1)
	sent := 0
	for {
		if _, _, ok := s.Next(); !ok {
			break
		}
		sent++
	}
	if sent != 4 {
		t.Fatalf("after dropping requester 1, %d transmissions, want 4 (unit 1 only)", sent)
	}
}

func TestMalformedBitLengthIgnored(t *testing.T) {
	s := schedFor(4, 4)
	s.OnSNACK(1, 0, bitsFrom("11111")) // 5 bits for a 4-packet unit
	if s.Pending() {
		t.Fatal("malformed SNACK created work")
	}
}

func TestSchedulerNeverExceedsUnionCount(t *testing.T) {
	// Property from the paper's motivation: the greedy scheduler transmits
	// at most as many packets as the union policy would for the same
	// requests (it stops when every distance reaches zero).
	reqs := []struct {
		from packet.NodeID
		bits string
	}{
		{1, "110101101010"},
		{2, "011011010110"},
		{3, "111000111000"},
	}
	sched := schedFor(12, 8)
	for _, r := range reqs {
		sched.OnSNACK(r.from, 0, bitsFrom(r.bits))
	}
	schedCount := len(drainAll(sched))

	union := packet.NewBitVector(12)
	for _, r := range reqs {
		union.Or(bitsFrom(r.bits))
	}
	if schedCount > union.Count() {
		t.Fatalf("scheduler sent %d > union %d", schedCount, union.Count())
	}
}

func TestResetClearsPointer(t *testing.T) {
	s := schedFor(4, 4)
	s.OnSNACK(1, 0, bitsFrom("1111"))
	drainAll(s)
	s.Reset()
	s.OnSNACK(1, 0, bitsFrom("1111"))
	_, idx, _ := s.Next()
	if idx != 0 {
		t.Fatalf("after Reset, expected scan from 0, got %d", idx)
	}
}

func drainAll(s *Scheduler) []int {
	var out []int
	for {
		_, idx, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, idx)
	}
}

// getLoopPopularity is the oracle for popularity: the per-index
// Get loop Next used before it walked set bits.
func getLoopPopularity(tbl *trackTable, n int) ([]int, int) {
	pop := make([]int, n)
	maxPop := 0
	for i := range tbl.entries {
		e := &tbl.entries[i]
		for j := 0; j < n; j++ {
			if e.bits.Get(j) {
				pop[j]++
				if pop[j] > maxPop {
					maxPop = pop[j]
				}
			}
		}
	}
	return pop, maxPop
}

// getLoopNext is Next with the oracle tally.
func getLoopNext(s *Scheduler) (int, int, bool) {
	for {
		u, tbl, ok := s.lowestUnit()
		if !ok {
			return 0, 0, false
		}
		n := s.sizeOf(u)
		pop, maxPop := getLoopPopularity(tbl, n)
		if maxPop == 0 {
			s.units[u] = nil
			continue
		}
		start := 0
		if tbl.last >= 0 {
			start = (tbl.last + 1) % n
		}
		choice := -1
		for off := 0; off < n; off++ {
			j := (start + off) % n
			if pop[j] == maxPop {
				choice = j
				break
			}
		}
		s.clearColumn(tbl, choice)
		tbl.last = choice
		s.lastIdx[u] = choice
		if len(tbl.entries) == 0 {
			s.units[u] = nil
		}
		return u, choice, true
	}
}

// TestPopularityMatchesGetLoop drives Next and the Get-loop oracle over the
// same random tracking tables, with SNACKs and overheard packets arriving
// between transmissions (new requests stop after 20 steps, so the tables
// drain). Requests may carry slack bits past n in their last
// byte, which both tallies must ignore (an entry wanting nothing else is
// dropped by both). The tallies and the choice sequences must be identical.
func TestPopularityMatchesGetLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 7, 8, 9, 48, 64} {
		for trial := 0; trial < 40; trial++ {
			kprime := 1 + rng.Intn(n)
			got, want := schedFor(n, kprime), schedFor(n, kprime)
			request := func() {
				v := packet.NewBitVector(n)
				density := rng.Float64()
				for j := 0; j < n; j++ {
					v.Set(j, rng.Float64() < density)
				}
				if n%8 != 0 && rng.Intn(4) == 0 {
					b := v.Bytes()
					b[len(b)-1] |= ^byte(0) << uint(n%8)
				}
				from, u := packet.NodeID(1+rng.Intn(8)), rng.Intn(3)
				got.OnSNACK(from, u, v)
				want.OnSNACK(from, u, v)
			}
			for i := rng.Intn(12); i >= 0; i-- {
				request()
			}
			for step := 0; ; step++ {
				for u, tbl := range got.units {
					if tbl == nil {
						continue
					}
					g := make([]int32, n)
					gmax := popularity(tbl, g)
					w, wmax := getLoopPopularity(tbl, n)
					if fmt.Sprint(g) != fmt.Sprint(w) || int(gmax) != wmax {
						t.Fatalf("n=%d trial %d step %d unit %d: tally %v max %d, Get loop %v max %d",
							n, trial, step, u, g, gmax, w, wmax)
					}
				}
				gu, gi, gok := got.Next()
				wu, wi, wok := getLoopNext(want)
				if gu != wu || gi != wi || gok != wok {
					t.Fatalf("n=%d trial %d step %d: Next (%d,%d,%v), Get loop (%d,%d,%v)",
						n, trial, step, gu, gi, gok, wu, wi, wok)
				}
				if !gok {
					break
				}
				switch rng.Intn(4) {
				case 0:
					if step < 20 {
						request()
					}
				case 1:
					u, idx := rng.Intn(3), rng.Intn(n)
					got.OnDataOverheard(u, idx)
					want.OnDataOverheard(u, idx)
				}
			}
		}
	}
}
