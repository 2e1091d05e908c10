package graph

import "time"

// This file is the frozen-snapshot layer every search kernel runs on: a
// CSR (compressed sparse row) image of the graph with materialized edge
// weights. The graph's own slice-of-slices adjacency
// plus a WeightFunc closure would cost two dependent loads and a dynamic
// call per edge relaxation; the frozen layout replaces them with four
// sequential array reads. Every Router query and the Brandes sweep run on
// a Snapshot; no kernel walks the Graph's adjacency lists directly.
// A router with no snapshot attached freezes one per call (see csr).
//
// Lifecycle: Freeze captures topology and weights at one instant, stamped
// with the graph's generation counter. Adding nodes or edges bumps the
// generation and invalidates the snapshot; the Router transparently
// rebuilds it (same weight function) on the next query. Disabling and
// enabling edges does NOT invalidate anything: the snapshot aliases the
// graph's disabled flags, so attack rounds toggling edges — and Yen spur
// bans, which live in per-router epoch-stamped overlay arrays — work
// against a frozen snapshot with zero rebuilds. Weights are fixed at
// Freeze, except that the snapshot's single owner may re-read the weight
// function for chosen edges with Reweight (traffic assignment does, after
// loading each path).

// Snapshot is a flat CSR image of a Graph under one weight function. It
// is safe for any number of concurrent readers (the parallel Yen spur
// workers and Brandes workers share one), as long as no edges are
// concurrently disabled or enabled — the same contract concurrent readers
// of the Graph itself have — and nobody calls Reweight meanwhile.
type Snapshot struct {
	g   *Graph
	gen uint64
	wf  WeightFunc

	n int // nodes at freeze time
	m int // edges at freeze time

	// Forward adjacency: slots fwdOff[u]..fwdOff[u+1] hold u's out-edges
	// in edge insertion order (the relaxation order every kernel uses),
	// with the head node, edge ID, and weight materialized per slot.
	fwdOff  []int32
	fwdTo   []int32
	fwdEdge []int32
	fwdW    []float64

	// Reverse adjacency, same layout over in-edges.
	revOff  []int32
	revFrom []int32
	revEdge []int32
	revW    []float64

	// w is the materialized weight per EdgeID (the same values as the
	// per-slot arrays, indexed by edge for path assembly and prefix sums).
	w []float64

	// disabled aliases the graph's disabled flags at freeze time, so
	// DisableEdge/EnableEdge are visible to the kernels immediately.
	// AddEdge may reallocate the underlying array, but it also bumps the
	// generation, which invalidates this snapshot first.
	disabled []bool

	// fwdSlot and revSlot map each edge to its forward and reverse slot.
	// Only Reweight needs them, so its first call builds them.
	fwdSlot []int32
	revSlot []int32

	// freezeNS is the wall-clock duration of the Freeze pass, surfaced in
	// registry shard stats next to overlay build/customize timings.
	freezeNS int64
}

// fillCSRSide flattens one direction's adjacency lists into CSR arrays.
// Freeze calls it twice (forward over out-lists with arc heads, reverse
// over in-lists with arc tails). Slot order within a node is list order,
// i.e. edge insertion order, which fixes every kernel's relaxation order
// and with it the tie-breaking between equal-length paths.
func fillCSRSide(lists [][]EdgeID, w []float64, off, node, edge []int32, slotW []float64, endpoint func(Arc) NodeID, arcs []Arc) {
	pos := 0
	for u := range lists {
		off[u] = int32(pos)
		for _, e := range lists[u] {
			edge[pos] = int32(e)
			node[pos] = int32(endpoint(arcs[e]))
			slotW[pos] = w[e]
			pos++
		}
	}
	off[len(lists)] = int32(pos)
}

// Freeze builds a frozen CSR snapshot of g with the weights of w
// materialized. It is an O(V+E) pass; the attack workloads amortize it
// over thousands of shortest-path queries. The weight function must be
// total over all edge IDs (disabled edges included) and must keep
// returning the same values for as long as the snapshot is used — every
// weight model in this repository is a pure table lookup, which
// satisfies both. The one sanctioned exception is Reweight: an owner
// whose weight function changes on known edges re-reads exactly those.
func Freeze(g *Graph, w WeightFunc) *Snapshot {
	start := time.Now() //lint:allow wallclock freeze duration feeds shard stats observability, never results
	n, m := g.NumNodes(), g.NumEdges()
	c := &Snapshot{
		g: g, gen: g.gen, wf: w, n: n, m: m,
		fwdOff:  make([]int32, n+1),
		fwdTo:   make([]int32, m),
		fwdEdge: make([]int32, m),
		fwdW:    make([]float64, m),
		revOff:  make([]int32, n+1),
		revFrom: make([]int32, m),
		revEdge: make([]int32, m),
		revW:    make([]float64, m),
		w:       make([]float64, m),
	}
	for e := 0; e < m; e++ {
		c.w[e] = w(EdgeID(e))
	}
	fillCSRSide(g.out[:n], c.w, c.fwdOff, c.fwdTo, c.fwdEdge, c.fwdW, func(a Arc) NodeID { return a.To }, g.arcs)
	fillCSRSide(g.in[:n], c.w, c.revOff, c.revFrom, c.revEdge, c.revW, func(a Arc) NodeID { return a.From }, g.arcs)
	c.disabled = g.disabled
	c.freezeNS = time.Since(start).Nanoseconds() //lint:allow wallclock freeze duration feeds shard stats observability, never results
	return c
}

// FreezeNanos returns the wall-clock nanoseconds the Freeze pass took —
// observability only (healthz shard stats), never part of any result.
func (c *Snapshot) FreezeNanos() int64 { return c.freezeNS }

// Graph returns the graph the snapshot was frozen from.
func (c *Snapshot) Graph() *Graph { return c.g }

// Valid reports whether the snapshot still matches its graph's topology
// (no nodes or edges were added since Freeze). Disabled-edge churn never
// invalidates a snapshot.
func (c *Snapshot) Valid() bool { return c.gen == c.g.gen }

// NumNodes returns the node count at freeze time.
func (c *Snapshot) NumNodes() int { return c.n }

// NumEdges returns the edge count at freeze time.
func (c *Snapshot) NumEdges() int { return c.m }

// Weight returns the materialized weight of edge e.
func (c *Snapshot) Weight(e EdgeID) float64 { return c.w[e] }

// CSRView exposes a snapshot's flat CSR arrays to sibling packages that
// build derived read-only structures over them (internal/overlay). Every
// slice aliases the snapshot's backing arrays: callers MUST treat them as
// immutable. Disabled aliases the graph's live disabled flags, exactly as
// the kernels see them.
type CSRView struct {
	N, M    int
	FwdOff  []int32
	FwdTo   []int32
	FwdEdge []int32
	FwdW    []float64
	RevOff  []int32
	RevFrom []int32
	RevEdge []int32
	RevW    []float64
	W       []float64

	Disabled []bool
}

// View returns the read-only CSR view of the snapshot.
func (c *Snapshot) View() CSRView {
	return CSRView{
		N: c.n, M: c.m,
		FwdOff: c.fwdOff, FwdTo: c.fwdTo, FwdEdge: c.fwdEdge, FwdW: c.fwdW,
		RevOff: c.revOff, RevFrom: c.revFrom, RevEdge: c.revEdge, RevW: c.revW,
		W:        c.w,
		Disabled: c.disabled,
	}
}

// Refresh returns c when it is still valid, or a fresh snapshot of the
// same graph under the same weight function when topology moved on.
func (c *Snapshot) Refresh() *Snapshot {
	if c.Valid() {
		return c
	}
	return Freeze(c.g, c.wf)
}

// Reweight re-reads the snapshot's weight function for the given edges
// and rewrites their materialized weights: the per-edge table and the one
// forward and one reverse slot each edge occupies. Slots are looked up by
// edge ID, not by endpoint, so parallel edges each keep their own weight.
// The first call builds the edge-to-slot table in one O(V+E) pass; every
// edge after that costs O(1), against O(V+E) for a fresh Freeze.
//
// Reweight is for the snapshot's owner alone: it writes arrays every
// query reads, so it must never run concurrently with a query, with
// Weight or View readers, or on a snapshot shared with anyone else (a
// roadnet.Network's cached snapshot, a registry shard's). Edges must be
// below NumEdges.
func (c *Snapshot) Reweight(edges []EdgeID) {
	if c.fwdSlot == nil {
		c.fwdSlot = edgeSlots(c.fwdOff, c.fwdEdge, c.n, c.m)
		c.revSlot = edgeSlots(c.revOff, c.revEdge, c.n, c.m)
	}
	for _, e := range edges {
		x := c.wf(e)
		c.w[e] = x
		c.fwdW[c.fwdSlot[e]] = x
		c.revW[c.revSlot[e]] = x
	}
}

// edgeSlots inverts one CSR side's slot-to-edge array: slot[e] is the
// slot edge e occupies.
func edgeSlots(off, edge []int32, n, m int) []int32 {
	slot := make([]int32, m)
	for u := 0; u < n; u++ {
		for i := off[u]; i < off[u+1]; i++ {
			slot[edge[i]] = i
		}
	}
	return slot
}

// UseSnapshot attaches a frozen snapshot to the router: subsequent
// queries run on it instead of each freezing its own. The snapshot must
// have been frozen from this router's graph under the SAME weight
// function the caller passes to the query methods — with a snapshot
// attached the materialized weights win, so passing a different
// WeightFunc is a programming error the router cannot detect. A stale
// snapshot (topology changed) is rebuilt transparently on the next
// query. UseSnapshot(nil) detaches it: each query then freezes the graph
// under its own weight function for that one call.
func (r *Router) UseSnapshot(c *Snapshot) { r.snap = c }

// Snapshot returns the attached snapshot, nil when none.
func (r *Router) Snapshot() *Snapshot { return r.snap }

// csr returns the snapshot a query under w runs on: the attached one,
// rebuilt first if topology moved on; or, with none attached (or one
// frozen from another graph), Freeze(g, w) for this one call — shared by
// the call's Yen spur workers but never cached across calls, because Go
// cannot compare WeightFuncs and some callers' weights change between
// calls. Callers that issue many queries attach a snapshot instead.
func (r *Router) csr(w WeightFunc) *Snapshot {
	if r.snap == nil || r.snap.g != r.g {
		return Freeze(r.g, w)
	}
	r.snap = r.snap.Refresh()
	return r.snap
}

// heapItem is a (priority, node) pair in a search heap.
type heapItem struct {
	dist float64
	node NodeID
}

// heapLess is the priority order of every search heap: distance, then
// node ID. The node tie-break makes the order total, so ANY correct heap
// pops the same value sequence from the same push sequence. That is what
// makes the kernels' output independent of heap arity, and what lets the
// test-only textbook references (a binary heap, weights read through the
// WeightFunc) reproduce it bit for bit on tied graphs (lattices tie
// constantly).
func heapLess(a, b heapItem) bool {
	if a.dist != b.dist { //lint:allow floateq heap order must be exact: near-ties are distinct priorities, equal bits fall through to the node tie-break
		return a.dist < b.dist
	}
	return a.node < b.node
}

// heap4 is a 4-ary implicit min-heap over heapItem in heapLess order.
// Lazy deletion (stale entries skipped on pop) avoids decrease-key
// bookkeeping. The wider fanout halves the depth of a binary heap,
// which cuts sift-down comparisons on the pop-heavy Dijkstra workloads;
// children of i sit at 4i+1..4i+4, cache-adjacent.
type heap4 []heapItem

// push and pop move a hole through the tree instead of swapping at every
// level (one write per level, not three). The element order produced is
// identical to textbook sift-up/down — the hole follows exactly the path
// the swaps would have taken.
func (h *heap4) push(it heapItem) {
	*h = append(*h, it)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !heapLess(it, hh[p]) {
			break
		}
		hh[i] = hh[p]
		i = p
	}
	hh[i] = it
}

func (h *heap4) pop() heapItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	*h = old[:last]
	if last == 0 {
		return top
	}
	it := old[last]
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		small := first
		end := first + 4
		if end > last {
			end = last
		}
		for child := first + 1; child < end; child++ {
			if heapLess(old[child], old[small]) {
				small = child
			}
		}
		if !heapLess(old[small], it) {
			break
		}
		old[i] = old[small]
		i = small
	}
	old[i] = it
	return top
}
