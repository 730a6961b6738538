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

	"lrseluge/internal/xrand"
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
	if n < 2 || !(side > 0) || math.IsInf(side, 1) {
		return nil, fmt.Errorf("topo: invalid random topology n=%d side=%f", n, side)
	}
	rng := rand.New(xrand.NewSplitMix(seed))
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
// O(degree) candidates instead of all n.
//
// The grid is dense: cells are indexed by (row, col) offset from the minimum
// cell, and their members sit in one array with per-cell start offsets
// (CSR), ascending by node index within a cell. A row's cells are adjacent
// in that array, so a node's 3x3 neighborhood is three contiguous runs.
// A cheap squared-distance bound counts each node's links and sizes one
// backing array; the range test itself is an all-pairs scan's Hypot
// comparison (a squared test can differ from it in the last ulp at the
// range edge), and only the links found are ordered by To, so the link
// lists are byte-identical (To-ascending) to that scan's. Every list is
// carved from the backing array with cap == len, so a caller's append
// cannot reach the next node's links; a node without links keeps a nil
// list.
func connectByRange(g *Graph, commRange float64) {
	n := len(g.pos)
	// Cell coordinates are floor(x / commRange). A sparse field (few nodes
	// over a huge square) would have far more cells than nodes, so there
	// the cells merge k x k: each merged neighborhood still covers the 3x3
	// commRange cells, so no in-range pair is missed.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range g.pos {
		fx, fy := math.Floor(p.X/commRange), math.Floor(p.Y/commRange)
		minX, maxX = math.Min(minX, fx), math.Max(maxX, fx)
		minY, maxY = math.Min(minY, fy), math.Max(maxY, fy)
	}
	k := 1.0
	if cells, limit := (maxX-minX+1)*(maxY-minY+1), float64(4*n+64); cells > limit {
		k = math.Ceil(math.Sqrt(cells / limit))
	}
	minX, minY = math.Floor(minX/k), math.Floor(minY/k)
	cols := int(math.Floor(maxX/k)-minX) + 1
	rows := int(math.Floor(maxY/k)-minY) + 1

	// CSR bucket fill: count per cell, prefix-sum so start[c] is the end of
	// cell c, then place nodes from the last down, which leaves start[c] at
	// the cell's beginning and each cell ascending by node index.
	cellOf := make([]int32, n)
	start := make([]int32, rows*cols+1)
	for i, p := range g.pos {
		fx, fy := math.Floor(p.X/commRange), math.Floor(p.Y/commRange)
		c := int32(int(math.Floor(fy/k)-minY)*cols + int(math.Floor(fx/k)-minX))
		cellOf[i] = c
		start[c]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	members := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		c := cellOf[i]
		start[c]--
		members[start[c]] = int32(i)
	}

	// runs returns the three member runs (rows above, at and below, each
	// three cells wide, clipped at the grid edge) holding i's candidates.
	runs := func(i int) [3][]int32 {
		c := int(cellOf[i])
		row, col := c/cols, c%cols
		c0, c1 := max(col-1, 0), min(col+1, cols-1)
		run := func(r int) []int32 {
			if r < 0 || r >= rows {
				return nil
			}
			return members[start[r*cols+c0]:start[r*cols+c1+1]]
		}
		return [3][]int32{run(row - 1), run(row), run(row + 1)}
	}

	// Pass 1: an upper bound on each node's degree. The slack keeps the
	// squared bound conservative against Hypot's rounding, so pass 2 never
	// finds more links than counted here.
	bound := commRange * commRange * (1 + 1e-9)
	offset := make([]int, n+1)
	for i := 0; i < n; i++ {
		pi := g.pos[i]
		deg := 0
		for _, run := range runs(i) {
			for _, j := range run {
				dx, dy := pi.X-g.pos[j].X, pi.Y-g.pos[j].Y
				if dx*dx+dy*dy <= bound {
					deg++
				}
			}
		}
		offset[i+1] = offset[i] + deg - 1 // i is its own candidate, at distance 0
	}

	// Pass 2: the exact range test, then order the node's links by To.
	all := make([]Link, offset[n])
	for i := 0; i < n; i++ {
		pi := g.pos[i]
		links := all[offset[i]:offset[i]:offset[i+1]]
		for _, run := range runs(i) {
			for _, j := range run {
				dx, dy := pi.X-g.pos[j].X, pi.Y-g.pos[j].Y
				if dx*dx+dy*dy > bound || int(j) == i {
					continue
				}
				d := pi.Distance(g.pos[j])
				if d > commRange {
					continue
				}
				links = append(links, Link{To: int(j), Quality: qualityAt(d, commRange)})
			}
		}
		for a := 1; a < len(links); a++ {
			for b := a; b > 0 && links[b].To < links[b-1].To; b-- {
				links[b], links[b-1] = links[b-1], links[b]
			}
		}
		if len(links) > 0 {
			g.neighbors[i] = links[:len(links):len(links)]
		} else {
			g.neighbors[i] = nil
		}
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
	reached := g.Reached(len(g.pos))
	count := 0
	for _, ok := range reached {
		if !ok {
			count++
		}
	}
	return count
}

// Reached marks which of the first n nodes have a path from node 0 whose
// every hop stays among the first n nodes; later nodes (adversary slots)
// relay nothing.
func (g *Graph) Reached(n int) []bool {
	seen := make([]bool, n)
	if n == 0 {
		return seen
	}
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range g.neighbors[cur] {
			if l.To < n && !seen[l.To] {
				seen[l.To] = true
				stack = append(stack, l.To)
			}
		}
	}
	return seen
}
