// Package topo builds the network topologies used in the paper's
// evaluation: fully-connected one-hop neighborhoods (§VI-A/B) and 15x15
// multi-hop grids at two densities (§VI-C).
//
// The paper's multi-hop experiments use the TinyOS mica2 grid files
// 15-15-tight-mica2-grid.txt and 15-15-medium-mica2-grid.txt. Those files
// are not redistributable here, so Grid reproduces their structure
// parametrically: a 15x15 lattice whose spacing controls density, with a
// distance-dependent base link quality standing in for the empirical
// propagation data (see DESIGN.md §5).
package topo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Point is a node position in abstract distance units ("feet" in the mica2
// tradition).
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance to q.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Link is a directed edge with a base delivery quality in (0, 1]. The radio
// layer combines this quality with the experiment's loss model.
type Link struct {
	To      int
	Quality float64
}

// Graph is an immutable connectivity graph over indexed nodes. Node 0 is the
// base station by convention.
type Graph struct {
	pos       []Point
	neighbors [][]Link
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.pos) }

// Position returns node i's coordinates.
func (g *Graph) Position(i int) Point { return g.pos[i] }

// Neighbors returns node i's outgoing links. Callers must not modify the
// returned slice.
func (g *Graph) Neighbors(i int) []Link { return g.neighbors[i] }

// AvgDegree returns the mean neighbor count, the density measure the paper
// varies between its tight and medium grids.
func (g *Graph) AvgDegree() float64 {
	if len(g.pos) == 0 {
		return 0
	}
	total := 0
	for _, ns := range g.neighbors {
		total += len(ns)
	}
	return float64(total) / float64(len(g.pos))
}

// Complete returns a fully-connected graph of n nodes with unit link
// quality: the paper's one-hop scenario where "nodes are placed close enough
// to eliminate packet transmission errors caused by channel impairments"
// (§VI-A) and all loss is injected at the application layer.
func Complete(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topo: complete graph needs >= 2 nodes, got %d", n)
	}
	g := &Graph{pos: make([]Point, n), neighbors: make([][]Link, n)}
	for i := 0; i < n; i++ {
		g.pos[i] = Point{X: math.Cos(2 * math.Pi * float64(i) / float64(n)), Y: math.Sin(2 * math.Pi * float64(i) / float64(n))}
		links := make([]Link, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				links = append(links, Link{To: j, Quality: 1})
			}
		}
		g.neighbors[i] = links
	}
	return g, nil
}

// GridDensity selects the spacing of a Grid, mirroring the paper's two
// exemplary topologies.
type GridDensity int

// Grid densities.
const (
	// Tight is the high-density grid (15-15-tight-mica2-grid analogue).
	Tight GridDensity = iota
	// Medium is the low-density grid (15-15-medium-mica2-grid analogue).
	Medium
)

// String implements fmt.Stringer.
func (d GridDensity) String() string {
	switch d {
	case Tight:
		return "tight"
	case Medium:
		return "medium"
	default:
		return fmt.Sprintf("density(%d)", int(d))
	}
}

// Spacing returns the lattice spacing in distance units.
func (d GridDensity) Spacing() float64 {
	switch d {
	case Tight:
		return 10
	case Medium:
		return 20
	default:
		return 20
	}
}

// CommRange is the nominal radio range used by Grid and RandomDisk.
const CommRange = 30.0

// Grid builds a rows x cols lattice with the given density. Links exist
// between nodes within CommRange; base quality degrades smoothly with
// distance (perfect in the inner half of the range, quadratic falloff
// beyond), a standard abstraction of empirical mica2 connectivity curves.
func Grid(rows, cols int, density GridDensity) (*Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("topo: invalid grid %dx%d", rows, cols)
	}
	spacing := density.Spacing()
	n := rows * cols
	g := &Graph{pos: make([]Point, n), neighbors: make([][]Link, n)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.pos[r*cols+c] = Point{X: float64(c) * spacing, Y: float64(r) * spacing}
		}
	}
	connectByRange(g, CommRange)
	return g, nil
}

// RandomDisk scatters n nodes uniformly over a side x side square and
// connects nodes within CommRange, the "theoretical propagation model"
// topologies the paper mentions generating with the TinyOS tool.
func RandomDisk(n int, side float64, seed int64) (*Graph, error) {
	if n < 2 || side <= 0 {
		return nil, fmt.Errorf("topo: invalid random topology n=%d side=%f", n, side)
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{pos: make([]Point, n), neighbors: make([][]Link, n)}
	for i := range g.pos {
		g.pos[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	connectByRange(g, CommRange)
	return g, nil
}

// Disk builds an n-node random-disk topology sized so the expected average
// degree matches targetDegree: a node covers pi*CommRange^2 of the square, so
// side = sqrt(n*pi*CommRange^2/targetDegree) yields ~targetDegree expected
// in-range neighbors (edge effects thin the boundary slightly). This is the
// constructor the large-scale runner uses: callers pick a density, not a
// field size.
func Disk(n int, targetDegree float64, seed int64) (*Graph, error) {
	if targetDegree <= 0 {
		return nil, fmt.Errorf("topo: target degree must be positive, got %f", targetDegree)
	}
	side := math.Sqrt(float64(n) * math.Pi * CommRange * CommRange / targetDegree)
	return RandomDisk(n, side, seed)
}

// connectByRange links every pair of nodes within commRange. Candidates come
// from a uniform grid of commRange-sized cells: a node's neighbors can only
// live in its own cell or the eight surrounding ones, so each node examines
// O(degree) candidates instead of all n. Candidate indices are sorted before
// the distance test, so the emitted link lists are byte-identical
// (To-ascending) to the former all-pairs scan.
func connectByRange(g *Graph, commRange float64) {
	n := len(g.pos)
	type cell struct{ cx, cy int }
	cellOf := func(p Point) cell {
		return cell{cx: int(math.Floor(p.X / commRange)), cy: int(math.Floor(p.Y / commRange))}
	}
	buckets := make(map[cell][]int, n)
	for i, p := range g.pos {
		c := cellOf(p)
		buckets[c] = append(buckets[c], i)
	}
	var cand []int
	for i := 0; i < n; i++ {
		c := cellOf(g.pos[i])
		cand = cand[:0]
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				cand = append(cand, buckets[cell{cx: c.cx + dx, cy: c.cy + dy}]...)
			}
		}
		sort.Ints(cand)
		var links []Link
		for _, j := range cand {
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

// qualityAt maps distance to base delivery probability: near-perfect inside
// half the range, quadratic decay to 0.5 at the range edge.
func qualityAt(d, commRange float64) float64 {
	const inner = 0.5
	if d <= inner*commRange {
		return 0.98
	}
	frac := (d - inner*commRange) / ((1 - inner) * commRange)
	return 0.98 * (1 - 0.5*frac*frac)
}

// Connected reports whether every node is reachable from node 0, a sanity
// check experiments run before dissemination.
func (g *Graph) Connected() bool { return g.Unreachable() == 0 }

// Unreachable counts the nodes with no path from node 0 (the base station):
// nodes no dissemination can reach.
func (g *Graph) Unreachable() int {
	n := len(g.pos)
	if n == 0 {
		return 0
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range g.neighbors[cur] {
			if !seen[l.To] {
				seen[l.To] = true
				count++
				stack = append(stack, l.To)
			}
		}
	}
	return n - count
}
