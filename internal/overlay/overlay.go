// Package overlay builds a CRP-style partition overlay over a frozen graph
// snapshot: a deterministic recursive bisection of the node set into
// small cells, boundary-node identification, and per-cell clique matrices
// of boundary-to-boundary shortest distances (the "metric").
//
// Nothing in the attack pipeline queries it: the exclusivity oracle is the
// bounded CSR deviation round (graph.BestAlternativeWithin). The package
// stays as the build whose cost the repository benchmark traces.
package overlay

import (
	"context"
	"math/rand"
	"sort"

	"altroute/internal/graph"
)

// DefaultMaxCellSize is the partition leaf bound when Params.MaxCellSize
// is zero. Small enough that within-cell restricted Dijkstras stay in
// cache, large enough that the boundary graph is much smaller than the
// original.
const DefaultMaxCellSize = 64

// Params controls partition construction. The zero value is usable.
type Params struct {
	// MaxCellSize bounds the number of nodes per leaf cell.
	// Defaults to DefaultMaxCellSize when <= 0.
	MaxCellSize int
	// Seed drives the BFS-grown bisection's start-node choices. The
	// partition is a pure function of (topology, MaxCellSize, Seed).
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.MaxCellSize <= 0 {
		p.MaxCellSize = DefaultMaxCellSize
	}
	return p
}

// Overlay is the topology half of the CRP structure: the partition and
// boundary indexing. It is immutable after Build and safe for any number
// of concurrent readers. Weight-dependent state (the cliques) lives in
// Metric.
type Overlay struct {
	csr graph.CSRView

	numCells int
	cell     []int32 // node -> leaf cell

	// Boundary nodes are endpoints of cross-cell arcs. Global boundary
	// indices are cell-major (all of cell 0's boundaries first), ascending
	// node ID within a cell, so a cell's clique rows are contiguous.
	nb       int
	bNode    []int32 // global boundary index -> node
	cellBOff []int32 // cell -> first global boundary index of that cell
}

// Build constructs the partition overlay for snap. The partition is
// deterministic under p.Seed: recursive bisection where each half is
// grown by BFS (over the undirected adjacency, CSR slot order) from a
// seeded start node until it holds half the set. Disabled edges are
// ignored — the partition is topology-only, so disable/enable churn
// never invalidates it.
func Build(ctx context.Context, snap *graph.Snapshot, p Params) (*Overlay, error) {
	p = p.withDefaults()
	csr := snap.View()
	n := csr.N
	ov := &Overlay{csr: csr}

	b := &bisector{
		csr:      csr,
		max:      p.MaxCellSize,
		rng:      rand.New(rand.NewSource(p.Seed)),
		cell:     make([]int32, n),
		setStamp: make([]uint64, n),
		visStamp: make([]uint64, n),
		aStamp:   make([]uint64, n),
	}
	if n > 0 {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		if err := b.bisect(ctx, all); err != nil {
			return nil, err
		}
	}
	ov.numCells = int(b.numCells)
	ov.cell = b.cell

	// Group nodes by cell (counting sort; nodes ascend within a cell
	// because we scan them in order).
	cellOff := make([]int32, ov.numCells+1)
	for _, c := range ov.cell {
		cellOff[c+1]++
	}
	for c := 0; c < ov.numCells; c++ {
		cellOff[c+1] += cellOff[c]
	}
	cellNodes := make([]int32, n)
	cursor := append([]int32(nil), cellOff[:ov.numCells]...)
	for v := 0; v < n; v++ {
		c := ov.cell[v]
		cellNodes[cursor[c]] = int32(v)
		cursor[c]++
	}

	// Boundary detection: every arc appears exactly once in the forward
	// CSR.
	isB := make([]bool, n)
	for u := 0; u < n; u++ {
		cu := ov.cell[u]
		for i, end := csr.FwdOff[u], csr.FwdOff[u+1]; i < end; i++ {
			if v := csr.FwdTo[i]; ov.cell[v] != cu {
				isB[u] = true
				isB[v] = true
			}
		}
	}

	// Global boundary indices, cell-major.
	ov.cellBOff = make([]int32, ov.numCells+1)
	for c := 0; c < ov.numCells; c++ {
		ov.cellBOff[c] = int32(ov.nb)
		for i, end := cellOff[c], cellOff[c+1]; i < end; i++ {
			if v := cellNodes[i]; isB[v] {
				ov.bNode = append(ov.bNode, v)
				ov.nb++
			}
		}
	}
	ov.cellBOff[ov.numCells] = int32(ov.nb)
	return ov, nil
}

// bisector carries the recursive bisection's reusable scratch.
type bisector struct {
	csr      graph.CSRView
	max      int
	rng      *rand.Rand
	cell     []int32
	numCells int32

	setStamp []uint64 // node in the current set
	visStamp []uint64 // node visited by the current BFS
	aStamp   []uint64 // node assigned to side A
	cur      uint64
	queue    []int32
	order    []int32
}

// bisect assigns leaf cell IDs to set (sorted ascending), splitting it
// until leaves fit the cell bound. Halves are grown by BFS from an
// rng-chosen start; disconnected remainders reseed from the lowest
// unvisited member, so the split is total and deterministic.
func (b *bisector) bisect(ctx context.Context, set []int32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(set) <= b.max {
		id := b.numCells
		b.numCells++
		for _, v := range set {
			b.cell[v] = id
		}
		return nil
	}
	b.cur++
	cur := b.cur
	for _, v := range set {
		b.setStamp[v] = cur
	}
	half := (len(set) + 1) / 2
	b.order = b.order[:0]
	q := b.queue[:0]
	head := 0
	start := set[b.rng.Intn(len(set))]
	b.visStamp[start] = cur
	q = append(q, start)
	reseed := 0
	for len(b.order) < half {
		if head == len(q) {
			for b.visStamp[set[reseed]] == cur {
				reseed++
			}
			v := set[reseed]
			b.visStamp[v] = cur
			q = append(q, v)
		}
		u := q[head]
		head++
		b.order = append(b.order, u)
		if len(b.order) == half {
			break
		}
		for i, end := b.csr.FwdOff[u], b.csr.FwdOff[u+1]; i < end; i++ {
			v := b.csr.FwdTo[i]
			if b.setStamp[v] == cur && b.visStamp[v] != cur {
				b.visStamp[v] = cur
				q = append(q, v)
			}
		}
		for i, end := b.csr.RevOff[u], b.csr.RevOff[u+1]; i < end; i++ {
			v := b.csr.RevFrom[i]
			if b.setStamp[v] == cur && b.visStamp[v] != cur {
				b.visStamp[v] = cur
				q = append(q, v)
			}
		}
	}
	b.queue = q[:0]
	sideA := make([]int32, half)
	copy(sideA, b.order)
	for _, v := range sideA {
		b.aStamp[v] = cur
	}
	sort.Slice(sideA, func(i, j int) bool { return sideA[i] < sideA[j] })
	rest := make([]int32, 0, len(set)-half)
	for _, v := range set {
		if b.aStamp[v] != cur {
			rest = append(rest, v)
		}
	}
	if err := b.bisect(ctx, sideA); err != nil {
		return err
	}
	return b.bisect(ctx, rest)
}

// boundaryCount returns the number of boundary nodes of cell c.
func (ov *Overlay) boundaryCount(c int32) int {
	return int(ov.cellBOff[c+1] - ov.cellBOff[c])
}
