package graph

import "math"

// Potential is a frozen table of exact shortest-path distances from every
// node TO a fixed target, computed by one reverse Dijkstra over the graph's
// enabled edges. It serves as the A* heuristic for every goal-directed
// query against that target.
//
// Admissibility under edge removal: the table is exact on the graph state
// it was computed in, and temporary bans and DisableEdge only *remove*
// edges, so true distances can only grow afterwards — h(v) stays a lower
// bound. It is moreover consistent (h(u) <= w(e) + h(v) holds per enabled
// edge e: u->v by the triangle inequality, and removing edges never breaks
// a per-edge inequality), so A* guided by it never needs to reopen settled
// nodes. The one state change that would invalidate a Potential is
// re-enabling an edge that was disabled at computation time; callers that
// cache a Potential across queries must compute it while every edge they
// might later enable is enabled (in practice: on the intact graph).
//
// A Potential is immutable after creation and safe for concurrent readers.
type Potential struct {
	target NodeID
	h      []float64
}

// Target returns the node the potential measures distances to.
func (p *Potential) Target() NodeID {
	if p == nil {
		return InvalidNode
	}
	return p.target
}

// At returns the exact distance from v to the target at computation time,
// or +Inf when the target was unreachable from v (or v is out of range). A
// nil Potential reports +Inf everywhere.
func (p *Potential) At(v NodeID) float64 {
	if p == nil || v < 0 || int(v) >= len(p.h) {
		return math.Inf(1)
	}
	return p.h[v]
}

// ReversePotential runs one full reverse Dijkstra from t (along in-edges,
// over enabled edges; temporary bans are ignored) and returns the
// distance-to-target table. It reuses the router's backward scratch arrays,
// so the only allocation is the returned table itself. Under a cancelled
// SetContext context the sweep stops early, leaving +Inf for unsettled
// nodes; the Yen loops that consume the potential re-check the context
// before trusting results built from it.
func (r *Router) ReversePotential(t NodeID, w WeightFunc) *Potential {
	r.grow()
	return r.reversePotential(r.csr(w), t)
}

// reversePotential is ReversePotential's sweep over c's reverse arrays.
func (r *Router) reversePotential(c *Snapshot, t NodeID) *Potential {
	r.growBackward()
	h := make([]float64, r.g.NumNodes())
	for i := range h {
		h[i] = math.Inf(1)
	}
	pot := &Potential{target: t, h: h}
	if !r.g.validNode(t) {
		return pot
	}
	r.curB++
	r.h4B = r.h4B[:0]
	r.setDistB(t, 0)
	r.h4B.push(heapItem{dist: 0, node: t})
	disabled := c.disabled
	for len(r.h4B) > 0 {
		if r.interrupted() {
			break // cancelled: unsettled nodes stay +Inf (see SetContext)
		}
		it := r.h4B.pop()
		u := it.node
		if it.dist > r.distB[u] || r.stampB[u] != r.curB {
			continue
		}
		h[u] = it.dist
		for i, end := c.revOff[u], c.revOff[u+1]; i < end; i++ {
			e := EdgeID(c.revEdge[i])
			if disabled[e] {
				continue
			}
			v := NodeID(c.revFrom[i])
			nd := it.dist + c.revW[i]
			if r.stampB[v] != r.curB || nd < r.distB[v] {
				r.setDistB(v, nd)
				r.h4B.push(heapItem{dist: nd, node: v})
			}
		}
	}
	return pot
}

// growBackward sizes the backward scratch arrays, one allocation per array
// as in grow().
func (r *Router) growBackward() {
	n := r.g.NumNodes()
	if len(r.distB) < n {
		dist := make([]float64, n)
		copy(dist, r.distB)
		r.distB = dist
		stamp := make([]uint64, n)
		copy(stamp, r.stampB)
		r.stampB = stamp
	}
}

func (r *Router) setDistB(n NodeID, d float64) {
	r.distB[n] = d
	r.stampB[n] = r.curB
}
