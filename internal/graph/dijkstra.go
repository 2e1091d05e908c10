package graph

import (
	"context"
	"math"
)

// Router runs shortest-path queries against a graph. It owns reusable
// per-node scratch arrays (epoch-stamped, so clearing between queries is
// O(1)), which matters because the attack algorithms issue thousands of
// Dijkstra queries per run. A Router is not safe for concurrent use; create
// one per goroutine.
type Router struct {
	g *Graph

	dist     []float64
	prevEdge []EdgeID
	stamp    []uint64
	cur      uint64

	distB  []float64
	stampB []uint64
	curB   uint64

	nodeBan  []uint64
	edgeBan  []uint64
	banEpoch uint64

	// The attached snapshot (nil: each query freezes its own, see csr)
	// and the forward and backward search heaps.
	snap *Snapshot
	h4   heap4
	h4B  heap4

	// Yen spur fan-out: worker routers sharing the read-only graph and
	// the coordinator's snapshot. Bans and scratch arrays are per-router,
	// so concurrent spur searches on distinct pool routers are race-free
	// by construction.
	spurWorkers int
	spurPool    []*Router

	// ctx, when set via SetContext, is polled between spur searches for
	// cooperative cancellation of k-shortest queries. nil disables checks.
	ctx context.Context
}

// NewRouter returns a Router for g. Every query runs on a frozen CSR
// snapshot: attach one with UseSnapshot to amortize it over many queries;
// without one each query freezes g under its own weight function. The
// router tracks g live either way: edges added, disabled, or enabled after
// creation are observed by later queries (scratch arrays grow lazily).
func NewRouter(g *Graph) *Router {
	return &Router{g: g}
}

// Graph returns the graph this router queries.
func (r *Router) Graph() *Graph { return r.g }

func (r *Router) grow() {
	// Size in one allocation per array: the first query on a 100k-node
	// city would otherwise pay ~400k incremental appends.
	n := r.g.NumNodes()
	if len(r.dist) < n {
		dist := make([]float64, n)
		copy(dist, r.dist)
		r.dist = dist
		prev := make([]EdgeID, n)
		copy(prev, r.prevEdge)
		for i := len(r.prevEdge); i < n; i++ {
			prev[i] = InvalidEdge
		}
		r.prevEdge = prev
		stamp := make([]uint64, n)
		copy(stamp, r.stamp)
		r.stamp = stamp
		ban := make([]uint64, n)
		copy(ban, r.nodeBan)
		r.nodeBan = ban
	}
	m := r.g.NumEdges()
	if len(r.edgeBan) < m {
		eban := make([]uint64, m)
		copy(eban, r.edgeBan)
		r.edgeBan = eban
	}
}

// clearBans invalidates all temporary node and edge bans.
func (r *Router) clearBans() { r.banEpoch++ }

func (r *Router) banNode(n NodeID) { r.nodeBan[n] = r.banEpoch }

func (r *Router) banEdge(e EdgeID) { r.edgeBan[e] = r.banEpoch }

func (r *Router) nodeBanned(n NodeID) bool { return r.nodeBan[n] == r.banEpoch }

func (r *Router) edgeBanned(e EdgeID) bool { return r.edgeBan[e] == r.banEpoch }

// ShortestPath returns a minimum-weight path from s to t under w, or
// ok == false if t is unreachable. If s == t the result is the trivial
// zero-length path. Ties between equal-length paths are broken arbitrarily
// but deterministically (by edge insertion order). Under a cancelled
// SetContext context the search stops early and reports no path; callers
// must re-check the context before trusting a negative.
func (r *Router) ShortestPath(s, t NodeID, w WeightFunc) (Path, bool) {
	r.grow()
	r.clearBans()
	return r.shortest(r.csr(w), s, t)
}

// ShortestPathAvoiding returns a minimum-weight s->t path that visits none
// of the avoid nodes. Appearances of s or t themselves in avoid are
// ignored.
func (r *Router) ShortestPathAvoiding(s, t NodeID, w WeightFunc, avoid []NodeID) (Path, bool) {
	r.grow()
	r.clearBans()
	for _, n := range avoid {
		if n != s && n != t && r.g.validNode(n) {
			r.banNode(n)
		}
	}
	return r.shortest(r.csr(w), s, t)
}

// shortest runs Dijkstra from s on c with the current bans in effect,
// stopping as soon as t's distance is final. Callers must have called
// grow().
func (r *Router) shortest(c *Snapshot, s, t NodeID) (Path, bool) {
	if !r.g.validNode(s) || !r.g.validNode(t) {
		return Path{}, false
	}
	if r.nodeBanned(s) || r.nodeBanned(t) {
		return Path{}, false
	}
	r.cur++
	r.h4 = r.h4[:0]
	r.setDist(s, 0, InvalidEdge)
	r.h4.push(heapItem{dist: 0, node: s})
	disabled := c.disabled

	for len(r.h4) > 0 {
		if r.interrupted() {
			return Path{}, false // cancelled mid-search (see SetContext)
		}
		it := r.h4.pop()
		// Early exit the moment t's distance is frontier-minimal: every
		// remaining entry has dist >= it.dist >= dist[t], and non-negative
		// weights mean no relaxation from such a node can strictly improve
		// any node on t's prev chain — so buildPath(s, t) here is the exact
		// path a textbook Dijkstra returns when t itself pops (the tied
		// smaller-ID nodes it still expands cannot change the chain).
		if r.stamp[t] == r.cur && r.dist[t] <= it.dist {
			return r.buildPath(s, t), true
		}
		u := it.node
		if it.dist > r.dist[u] || r.stamp[u] != r.cur {
			continue // stale heap entry
		}
		du := it.dist
		for i, end := c.fwdOff[u], c.fwdOff[u+1]; i < end; i++ {
			e := EdgeID(c.fwdEdge[i])
			if disabled[e] || r.edgeBanned(e) {
				continue
			}
			v := NodeID(c.fwdTo[i])
			if r.nodeBanned(v) {
				continue
			}
			nd := du + c.fwdW[i]
			if r.stamp[v] != r.cur || nd < r.dist[v] {
				r.setDist(v, nd, e)
				r.h4.push(heapItem{dist: nd, node: v})
			}
		}
	}
	return Path{}, false
}

func (r *Router) setDist(n NodeID, d float64, via EdgeID) {
	r.dist[n] = d
	r.prevEdge[n] = via
	r.stamp[n] = r.cur
}

func (r *Router) buildPath(s, t NodeID) Path {
	var edges []EdgeID
	for n := t; n != s; {
		e := r.prevEdge[n]
		edges = append(edges, e)
		n = r.g.arcs[e].From
	}
	// Reverse in place.
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	nodes := make([]NodeID, 0, len(edges)+1)
	nodes = append(nodes, s)
	for _, e := range edges {
		nodes = append(nodes, r.g.arcs[e].To)
	}
	return Path{Nodes: nodes, Edges: edges, Length: r.dist[t]}
}

// DistancesFrom runs a full single-source Dijkstra and returns the distance
// from s to every node (+Inf where unreachable). The returned slice is newly
// allocated. Under a cancelled SetContext context the sweep stops early and
// unsettled nodes keep +Inf; callers must re-check the context before
// treating the table as complete.
func (r *Router) DistancesFrom(s NodeID, w WeightFunc) []float64 {
	r.grow()
	r.clearBans()
	c := r.csr(w)
	out := make([]float64, r.g.NumNodes())
	for i := range out {
		out[i] = math.Inf(1)
	}
	if !r.g.validNode(s) {
		return out
	}
	r.cur++
	r.h4 = r.h4[:0]
	r.setDist(s, 0, InvalidEdge)
	r.h4.push(heapItem{dist: 0, node: s})
	disabled := c.disabled
	for len(r.h4) > 0 {
		if r.interrupted() {
			break // cancelled: unsettled nodes stay +Inf (see SetContext)
		}
		it := r.h4.pop()
		u := it.node
		if it.dist > r.dist[u] || r.stamp[u] != r.cur {
			continue
		}
		out[u] = it.dist
		for i, end := c.fwdOff[u], c.fwdOff[u+1]; i < end; i++ {
			e := EdgeID(c.fwdEdge[i])
			if disabled[e] {
				continue
			}
			v := NodeID(c.fwdTo[i])
			nd := it.dist + c.fwdW[i]
			if r.stamp[v] != r.cur || nd < r.dist[v] {
				r.setDist(v, nd, e)
				r.h4.push(heapItem{dist: nd, node: v})
			}
		}
	}
	return out
}
