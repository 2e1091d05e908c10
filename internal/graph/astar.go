package graph

import "math"

// shortestAStar is the Yen spur search: a goal-directed A* on c from s to
// t guided by a reverse potential, honouring the current node/edge bans
// and disabled edges. With an exact (hence consistent) potential every
// settled node lies on a near-optimal corridor towards t, so the search
// touches a small fraction of what the goal-blind Dijkstra in shortest
// would. This is the hottest loop in the repository: every Yen spur
// search across every attack round lands here.
//
// Nodes the target was unreachable from at potential-computation time
// (h = +Inf) are pruned outright: bans only remove edges, so they cannot
// reach t now either. Callers must have called grow().
//
// rootLen and cutoff implement Yen's candidate-count bound (see spurBound):
// the search is abandoned — reported as "no path" — as soon as rootLen plus
// the minimum frontier f-value exceeds cutoff, because the total candidate
// length (rootLen + spur length) is then provably above the bound and the
// candidate could never be accepted. cutoff == +Inf disables the pruning.
func (r *Router) shortestAStar(c *Snapshot, s, t NodeID, pot *Potential, rootLen, cutoff float64) (Path, bool) {
	if !r.g.validNode(s) || !r.g.validNode(t) {
		return Path{}, false
	}
	if r.nodeBanned(s) || r.nodeBanned(t) {
		return Path{}, false
	}
	hs := pot.At(s)
	if math.IsInf(hs, 1) {
		return Path{}, false
	}
	potT := pot.At(t)
	r.cur++
	r.h4 = r.h4[:0]
	r.setDist(s, 0, InvalidEdge)
	r.h4.push(heapItem{dist: hs, node: s})
	disabled := c.disabled

	for len(r.h4) > 0 {
		it := r.h4.pop()
		// Early exit once t's f-value is frontier-minimal. The reverse
		// potential is consistent (exact unbanned distances; bans only
		// remove edges), so every remaining relaxation carries f >= it.dist
		// >= dist[t]+pot(t) and can never strictly improve a node on t's
		// prev chain: the path is bitwise the one a textbook A* returns
		// after grinding through the tied plateau to pop t itself.
		// dist[t]+potT recomputes exactly the float sum t's heap entry was
		// pushed with, so the comparison fires on the same pop where the
		// tie-broken heap would first surface an entry not before t's.
		// The cutoff clause keeps the exit aligned with the bound abort
		// below: an over-cutoff finish must report "no path", not a path
		// the textbook search would have abandoned one pop earlier.
		if r.stamp[t] == r.cur {
			ft := r.dist[t] + potT
			if ft <= it.dist && rootLen+ft <= cutoff {
				return r.buildPath(s, t), true
			}
		}
		// Bound abort: pops are non-decreasing, so once the frontier
		// passes the candidate cutoff no completion can come back under it.
		if rootLen+it.dist > cutoff {
			return Path{}, false
		}
		u := it.node
		if r.stamp[u] != r.cur {
			continue
		}
		gu := r.dist[u]
		if it.dist > gu+pot.At(u) {
			continue // stale heap entry
		}
		for i, end := c.fwdOff[u], c.fwdOff[u+1]; i < end; i++ {
			e := EdgeID(c.fwdEdge[i])
			if disabled[e] || r.edgeBanned(e) {
				continue
			}
			v := NodeID(c.fwdTo[i])
			if r.nodeBanned(v) {
				continue
			}
			hv := pot.At(v)
			if math.IsInf(hv, 1) {
				continue // v cannot reach t even without bans
			}
			nd := gu + c.fwdW[i]
			if r.stamp[v] != r.cur || nd < r.dist[v] {
				r.setDist(v, nd, e)
				r.h4.push(heapItem{dist: nd + hv, node: v})
			}
		}
	}
	return Path{}, false
}
