package graph

import (
	"container/heap"
	"math"
)

// Textbook references for the snapshot kernels. They walk the Graph's own
// adjacency lists, read every weight through the WeightFunc at relaxation
// time, and keep a container/heap binary heap in heapLess order. Because
// heapLess is a total order, any correct heap pops the same sequence from
// the same pushes, so these references must reproduce the kernels' output
// bit for bit — on tied lattices as much as on tie-free random graphs.

// refHeap is a binary min-heap of heapItems in heapLess order.
type refHeap []heapItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return heapLess(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refShortest is textbook Dijkstra from s to t under w, honouring
// disabled edges and r's temporary node and edge bans (r supplies nothing
// else). It stops when t pops. Callers must have called r.grow().
func refShortest(r *Router, s, t NodeID, w WeightFunc) (Path, bool) {
	g := r.g
	if !g.validNode(s) || !g.validNode(t) || r.nodeBanned(s) || r.nodeBanned(t) {
		return Path{}, false
	}
	dist := infTable(g.NumNodes())
	prev := make([]EdgeID, g.NumNodes())
	dist[s] = 0
	h := &refHeap{{dist: 0, node: s}}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		u := it.node
		if it.dist > dist[u] {
			continue // stale entry
		}
		if u == t {
			var edges []EdgeID
			for n := t; n != s; n = g.arcs[prev[n]].From {
				edges = append([]EdgeID{prev[n]}, edges...)
			}
			nodes := []NodeID{s}
			for _, e := range edges {
				nodes = append(nodes, g.arcs[e].To)
			}
			return Path{Nodes: nodes, Edges: edges, Length: dist[t]}, true
		}
		for _, e := range g.out[u] {
			if g.disabled[e] || r.edgeBanned(e) {
				continue
			}
			v := g.arcs[e].To
			if r.nodeBanned(v) {
				continue
			}
			if nd := it.dist + w(e); nd < dist[v] {
				dist[v], prev[v] = nd, e
				heap.Push(h, heapItem{dist: nd, node: v})
			}
		}
	}
	return Path{}, false
}

// refSweep is a textbook full Dijkstra sweep from root over enabled edges:
// along out-edges (distances from root) or, with reverse set, along
// in-edges (distances to root). Unreached nodes keep +Inf.
func refSweep(g *Graph, root NodeID, w WeightFunc, reverse bool) []float64 {
	dist := infTable(g.NumNodes())
	if !g.validNode(root) {
		return dist
	}
	adj := g.out
	if reverse {
		adj = g.in
	}
	dist[root] = 0
	h := &refHeap{{dist: 0, node: root}}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		u := it.node
		if it.dist > dist[u] {
			continue
		}
		for _, e := range adj[u] {
			if g.disabled[e] {
				continue
			}
			v := g.arcs[e].To
			if reverse {
				v = g.arcs[e].From
			}
			if nd := it.dist + w(e); nd < dist[v] {
				dist[v] = nd
				heap.Push(h, heapItem{dist: nd, node: v})
			}
		}
	}
	return dist
}

// refEdgeBetweenness is textbook serial Brandes over the adjacency lists
// with the same relaxation order, heap order, exact tie test and credit
// formula as the snapshot kernel, so scores must agree bit for bit.
func refEdgeBetweenness(g *Graph, w WeightFunc, opts BetweennessOptions) []float64 {
	n, m := g.NumNodes(), g.NumEdges()
	score := make([]float64, m)
	if n == 0 || m == 0 {
		return score
	}
	sources := opts.Sources
	if sources == nil {
		for i := 0; i < n; i++ {
			sources = append(sources, NodeID(i))
		}
	}
	for _, s := range sources {
		dist := infTable(n)
		sigma := make([]float64, n)
		delta := make([]float64, n)
		preds := make([][]EdgeID, n)
		settled := make([]bool, n)
		var order []NodeID
		dist[s], sigma[s] = 0, 1
		h := &refHeap{{dist: 0, node: s}}
		for h.Len() > 0 {
			u := heap.Pop(h).(heapItem).node
			if settled[u] {
				continue
			}
			settled[u] = true
			order = append(order, u)
			for _, e := range g.out[u] {
				if g.disabled[e] {
					continue
				}
				v := g.arcs[e].To
				nd := dist[u] + w(e)
				switch {
				case nd < dist[v]:
					dist[v] = nd
					sigma[v] = sigma[u]
					preds[v] = []EdgeID{e}
					heap.Push(h, heapItem{dist: nd, node: v})
				case nd == dist[v] && !settled[v]:
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], e)
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			for _, e := range preds[v] {
				u := g.arcs[e].From
				c := sigma[u] / sigma[v] * (1 + delta[v])
				score[e] += c
				delta[u] += c
			}
		}
	}
	if opts.Normalize && n > 1 {
		scale := float64(n) / float64(len(sources))
		norm := scale / (float64(n) * float64(n-1))
		for i := range score {
			score[i] *= norm
		}
	}
	return score
}

func infTable(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = math.Inf(1)
	}
	return d
}
