package topo

import (
	"fmt"
	"math"
	"testing"
)

func TestCompleteGraph(t *testing.T) {
	g, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 {
		t.Fatalf("nodes %d", g.NumNodes())
	}
	for i := 0; i < 5; i++ {
		links := g.Neighbors(i)
		if len(links) != 4 {
			t.Fatalf("node %d has %d neighbors", i, len(links))
		}
		for _, l := range links {
			if l.Quality != 1 {
				t.Fatalf("complete graph link quality %f", l.Quality)
			}
			if l.To == i {
				t.Fatal("self-loop")
			}
		}
	}
	if !g.Connected() {
		t.Fatal("complete graph not connected")
	}
}

func TestCompleteTooSmall(t *testing.T) {
	if _, err := Complete(1); err == nil {
		t.Fatal("1-node complete graph accepted")
	}
}

func TestGridDensities(t *testing.T) {
	tight, err := Grid(15, 15, Tight)
	if err != nil {
		t.Fatal(err)
	}
	medium, err := Grid(15, 15, Medium)
	if err != nil {
		t.Fatal(err)
	}
	if tight.NumNodes() != 225 || medium.NumNodes() != 225 {
		t.Fatal("grid size wrong")
	}
	if tight.AvgDegree() <= medium.AvgDegree() {
		t.Fatalf("tight grid (%f) should be denser than medium (%f)", tight.AvgDegree(), medium.AvgDegree())
	}
	if !tight.Connected() || !medium.Connected() {
		t.Fatal("grids must be connected")
	}
	// Medium spacing 20 with range 30: the grid is multi-hop, not a clique.
	if medium.AvgDegree() >= float64(medium.NumNodes()-1) {
		t.Fatal("medium grid should be multi-hop")
	}
}

func TestGridSymmetricLinks(t *testing.T) {
	g, _ := Grid(4, 4, Medium)
	for i := 0; i < g.NumNodes(); i++ {
		for _, l := range g.Neighbors(i) {
			found := false
			for _, back := range g.Neighbors(l.To) {
				if back.To == i {
					found = true
					if back.Quality != l.Quality {
						t.Fatalf("asymmetric link quality %d<->%d", i, l.To)
					}
				}
			}
			if !found {
				t.Fatalf("asymmetric adjacency %d->%d", i, l.To)
			}
		}
	}
}

func TestQualityDecreasesWithDistance(t *testing.T) {
	g, _ := Grid(1, 4, Tight) // nodes at 0, 10, 20, 30
	var q10, q30 float64
	for _, l := range g.Neighbors(0) {
		switch l.To {
		case 1:
			q10 = l.Quality
		case 3:
			q30 = l.Quality
		}
	}
	if q10 == 0 || q30 == 0 {
		t.Fatal("expected links at 10 and 30 units")
	}
	if q30 >= q10 {
		t.Fatalf("quality should fall with distance: q(10)=%f q(30)=%f", q10, q30)
	}
}

func TestGridInvalid(t *testing.T) {
	if _, err := Grid(0, 5, Tight); err == nil {
		t.Fatal("invalid grid accepted")
	}
}

func TestRandomDiskDeterministic(t *testing.T) {
	a, err := RandomDisk(30, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RandomDisk(30, 100, 7)
	for i := 0; i < 30; i++ {
		if a.Position(i) != b.Position(i) {
			t.Fatal("RandomDisk not deterministic")
		}
	}
	c, _ := RandomDisk(30, 100, 8)
	same := true
	for i := 0; i < 30; i++ {
		if a.Position(i) != c.Position(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical layout")
	}
}

func TestRandomDiskInvalid(t *testing.T) {
	if _, err := RandomDisk(1, 100, 1); err == nil {
		t.Fatal("single node accepted")
	}
	if _, err := RandomDisk(10, 0, 1); err == nil {
		t.Fatal("zero side accepted")
	}
}

func TestDistance(t *testing.T) {
	a := Point{X: 0, Y: 0}
	b := Point{X: 3, Y: 4}
	if a.Distance(b) != 5 {
		t.Fatalf("distance %f", a.Distance(b))
	}
}

func TestDensityString(t *testing.T) {
	if Tight.String() != "tight" || Medium.String() != "medium" {
		t.Fatal("density names wrong")
	}
	if Tight.Spacing() >= Medium.Spacing() {
		t.Fatal("tight spacing should be smaller")
	}
}

func TestDisconnectedDetection(t *testing.T) {
	// Two nodes far beyond comm range.
	g, err := RandomDisk(2, 10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		// Statistically near-impossible at side 10000 with range 30; if it
		// happens the seed placed them together — regenerate mentality not
		// needed, just check the primitive differently.
		t.Skip("nodes happened to land in range")
	}
}

// connectByRangeNaive is the all-pairs reference the grid-bucket index in
// connectByRange must reproduce byte-for-byte.
func connectByRangeNaive(g *Graph, commRange float64) {
	n := len(g.pos)
	for i := 0; i < n; i++ {
		var links []Link
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := g.pos[i].Distance(g.pos[j])
			if d > commRange {
				continue
			}
			links = append(links, Link{To: j, Quality: qualityAt(d, commRange)})
		}
		g.neighbors[i] = links
	}
}

func TestConnectByRangeMatchesNaive(t *testing.T) {
	type input struct {
		name  string
		build func() (*Graph, error)
		// sparse inputs must leave some node without links.
		sparse bool
	}
	var inputs []input
	for _, n := range []int{2, 17, 200, 1000} {
		inputs = append(inputs, input{fmt.Sprintf("RandomDisk(%d,200)", n), func() (*Graph, error) { return RandomDisk(n, 200, int64(n)) }, false})
	}
	inputs = append(inputs,
		// Lattice positions sit exactly on cell boundaries (spacing 10 and
		// 20 against 30-unit cells), and tight-grid pairs sit exactly at
		// the range edge.
		input{"Grid(15,15,Tight)", func() (*Graph, error) { return Grid(15, 15, Tight) }, false},
		input{"Grid(15,15,Medium)", func() (*Graph, error) { return Grid(15, 15, Medium) }, false},
		input{"Disk(4000,16)", func() (*Graph, error) { return Disk(4000, 16, 5) }, false},
		// Average degree ~0.2: most nodes have no links at all.
		input{"RandomDisk(300,2000)", func() (*Graph, error) { return RandomDisk(300, 2000, 9) }, true},
		// A field with far more commRange cells than nodes merges cells.
		input{"RandomDisk(40,1e6)", func() (*Graph, error) { return RandomDisk(40, 1e6, 4) }, true},
		// Offsets from node 0 at the range edge where Hypot and the squared
		// distance disagree, in both directions: only the Hypot test
		// reproduces the reference.
		input{"range-edge", func() (*Graph, error) {
			pos := []Point{{0, 0},
				{15.085889637051517, 25.930984051105767}, // Hypot 30.000000000000004, squared 900
				{14.170026898910784, 26.44258568453821},  // Hypot 30, squared 900.0000000000001
				{8.657120126593789, 28.723757955980005},  // Hypot 30.000000000000004, squared 899.9999999999999
				{29.84068966051085, 3.0875946277127926},  // Hypot 30, squared 900.0000000000001
			}
			g := &Graph{pos: pos, neighbors: make([][]Link, len(pos))}
			connectByRange(g, CommRange)
			return g, nil
		}, false},
	)
	for _, in := range inputs {
		g, err := in.build()
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		ref := &Graph{pos: g.pos, neighbors: make([][]Link, n)}
		connectByRangeNaive(ref, CommRange)
		isolated := 0
		for i := 0; i < n; i++ {
			got, want := g.Neighbors(i), ref.neighbors[i]
			if len(got) != len(want) {
				t.Fatalf("%s node %d: %d links, want %d", in.name, i, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s node %d link %d: %+v, want %+v", in.name, i, k, got[k], want[k])
				}
			}
			// Lists share one backing array: an append by a caller must
			// never write into the next node's links.
			if cap(got) != len(got) {
				t.Fatalf("%s node %d: cap %d != len %d", in.name, i, cap(got), len(got))
			}
			if len(got) == 0 {
				isolated++
				if got != nil {
					t.Fatalf("%s node %d: empty non-nil link list", in.name, i)
				}
			}
		}
		if in.sparse && isolated == 0 {
			t.Fatalf("%s: no isolated node; the sparse case is not covered", in.name)
		}
	}
}

// BenchmarkConnectByRange pins the spatial index's advantage over the former
// all-pairs scan; at constant density the indexed build is near-linear in n.
// The all-pairs scan is skipped at n=10000, the disk10k scale.
func BenchmarkConnectByRange(b *testing.B) {
	for _, n := range []int{250, 1000, 4000, 10000} {
		// Side grows with sqrt(n) so node density — and thus average degree —
		// stays constant across sizes.
		g, err := RandomDisk(n, 14*math.Sqrt(float64(n)), int64(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("indexed/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				connectByRange(g, CommRange)
			}
		})
		if n > 4000 {
			continue
		}
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				connectByRangeNaive(g, CommRange)
			}
		})
	}
}

func TestDiskTargetDegree(t *testing.T) {
	for _, target := range []float64{12, 24} {
		g, err := Disk(4000, target, 7)
		if err != nil {
			t.Fatal(err)
		}
		got := g.AvgDegree()
		// Edge effects thin the boundary; accept a wide but meaningful band.
		if got < target*0.7 || got > target*1.2 {
			t.Errorf("Disk(4000, %v): avg degree %.1f outside [%.1f, %.1f]", target, got, target*0.7, target*1.2)
		}
	}
}

func TestDiskRejectsBadDegree(t *testing.T) {
	if _, err := Disk(100, 0, 1); err == nil {
		t.Fatal("expected error for zero target degree")
	}
}

func TestDiskDeterministic(t *testing.T) {
	a, _ := Disk(500, 16, 3)
	b, _ := Disk(500, 16, 3)
	for i := 0; i < a.NumNodes(); i++ {
		if a.Position(i) != b.Position(i) {
			t.Fatalf("node %d position differs across identical seeds", i)
		}
		la, lb := a.Neighbors(i), b.Neighbors(i)
		if len(la) != len(lb) {
			t.Fatalf("node %d degree differs across identical seeds", i)
		}
	}
}

func TestRandomDiskRejectsNonFiniteSide(t *testing.T) {
	for _, side := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := RandomDisk(10, side, 1); err == nil {
			t.Fatalf("side %v accepted", side)
		}
	}
}
