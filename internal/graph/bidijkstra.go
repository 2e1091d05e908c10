package graph

import "math"

// ShortestPathBidirectional returns a minimum-weight s->t path like
// ShortestPath, but searches simultaneously forward from s and backward
// from t (along in-edges), settling roughly half the nodes a unidirectional
// search would on metropolitan-scale graphs. Temporary bans are not
// supported here — Yen spur queries stay on the unidirectional search — so
// this is the fast path for plain point-to-point queries. Under a
// cancelled SetContext context the search stops early and reports no
// path; callers must re-check the context before trusting a negative.
func (r *Router) ShortestPathBidirectional(s, t NodeID, w WeightFunc) (Path, bool) {
	r.grow()
	r.growBackward()
	r.clearBans()
	if !r.g.validNode(s) || !r.g.validNode(t) {
		return Path{}, false
	}
	if s == t {
		return Path{Nodes: []NodeID{s}}, true
	}
	c := r.csr(w)
	r.cur++
	r.curB++
	fh := r.h4[:0]
	bh := r.h4B[:0]

	r.setDist(s, 0, InvalidEdge)
	fh.push(heapItem{dist: 0, node: s})
	r.setDistB(t, 0, InvalidEdge)
	bh.push(heapItem{dist: 0, node: t})

	best := math.Inf(1)
	var meet NodeID = InvalidNode
	disabled := c.disabled

	topOf := func(h heap4) float64 {
		if len(h) == 0 {
			return math.Inf(1)
		}
		return h[0].dist
	}

	cancelled := false
	for len(fh) > 0 || len(bh) > 0 {
		if r.interrupted() {
			cancelled = true // a found meet may be suboptimal: report no path
			break
		}
		// Termination: no better meeting can exist.
		if topOf(fh)+topOf(bh) >= best {
			break
		}
		// Expand the smaller frontier.
		forward := topOf(fh) <= topOf(bh)
		if forward {
			it := fh.pop()
			u := it.node
			if it.dist > r.dist[u] || r.stamp[u] != r.cur {
				continue
			}
			if r.settledF[u] == r.cur {
				continue
			}
			r.settledF[u] = r.cur
			if r.stampB[u] == r.curB {
				if d := it.dist + r.distB[u]; d < best {
					best = d
					meet = u
				}
			}
			for i, end := c.fwdOff[u], c.fwdOff[u+1]; i < end; i++ {
				e := EdgeID(c.fwdEdge[i])
				if disabled[e] {
					continue
				}
				v := NodeID(c.fwdTo[i])
				nd := it.dist + c.fwdW[i]
				if r.stamp[v] != r.cur || nd < r.dist[v] {
					r.setDist(v, nd, e)
					fh.push(heapItem{dist: nd, node: v})
					if r.stampB[v] == r.curB {
						if d := nd + r.distB[v]; d < best {
							best = d
							meet = v
						}
					}
				}
			}
		} else {
			it := bh.pop()
			u := it.node
			if it.dist > r.distB[u] || r.stampB[u] != r.curB {
				continue
			}
			if r.settledB[u] == r.curB {
				continue
			}
			r.settledB[u] = r.curB
			if r.stamp[u] == r.cur {
				if d := it.dist + r.dist[u]; d < best {
					best = d
					meet = u
				}
			}
			for i, end := c.revOff[u], c.revOff[u+1]; i < end; i++ {
				e := EdgeID(c.revEdge[i])
				if disabled[e] {
					continue
				}
				v := NodeID(c.revFrom[i])
				nd := it.dist + c.revW[i]
				if r.stampB[v] != r.curB || nd < r.distB[v] {
					r.setDistB(v, nd, e)
					bh.push(heapItem{dist: nd, node: v})
					if r.stamp[v] == r.cur {
						if d := nd + r.dist[v]; d < best {
							best = d
							meet = v
						}
					}
				}
			}
		}
	}
	r.h4 = fh
	r.h4B = bh

	if cancelled || meet == InvalidNode {
		return Path{}, false
	}
	// Assemble: forward half via prevEdge, backward half via prevEdgeB.
	forward := r.buildPath(s, meet)
	var tailEdges []EdgeID
	for n := meet; n != t; {
		e := r.prevEdgeB[n]
		tailEdges = append(tailEdges, e)
		n = r.g.arcs[e].To
	}
	nodes := forward.Nodes
	edges := forward.Edges
	for _, e := range tailEdges {
		edges = append(edges, e)
		nodes = append(nodes, r.g.arcs[e].To)
	}
	return Path{Nodes: nodes, Edges: edges, Length: best}, true
}

func (r *Router) growBackward() {
	// One allocation per array, matching grow().
	n := r.g.NumNodes()
	if len(r.distB) < n {
		dist := make([]float64, n)
		copy(dist, r.distB)
		r.distB = dist
		prev := make([]EdgeID, n)
		copy(prev, r.prevEdgeB)
		for i := len(r.prevEdgeB); i < n; i++ {
			prev[i] = InvalidEdge
		}
		r.prevEdgeB = prev
		stamp := make([]uint64, n)
		copy(stamp, r.stampB)
		r.stampB = stamp
		settled := make([]uint64, n)
		copy(settled, r.settledB)
		r.settledB = settled
	}
}

func (r *Router) setDistB(n NodeID, d float64, via EdgeID) {
	r.distB[n] = d
	r.prevEdgeB[n] = via
	r.stampB[n] = r.curB
}
