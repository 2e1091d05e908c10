package core

import (
	"fmt"

	"altroute/internal/graph"
)

// BuildViaPath constructs the attacker's alternative route for the paper's
// toll-road scenario (§II-A: "force victim vehicles onto a chosen road
// segment, such as a toll road"): the best simple s->d path that traverses
// the chosen edge, assembled from the shortest s->tail prefix, the edge
// itself, and the shortest head->d suffix. The suffix search bans the
// prefix's nodes so the result is simple.
//
// The returned path can be used directly as Problem.PStar; forcing it makes
// every optimally-routing victim travel the chosen segment.
func BuildViaPath(g *graph.Graph, s, d graph.NodeID, via graph.EdgeID, w graph.WeightFunc) (graph.Path, error) {
	if via < 0 || int(via) >= g.NumEdges() || g.EdgeDisabled(via) {
		return graph.Path{}, fmt.Errorf("%w: via edge %d is not a live edge", ErrInvalidProblem, via)
	}
	arc := g.Arc(via)
	r := graph.NewRouter(g)
	r.UseSnapshot(graph.Freeze(g, w)) // shared by the prefix and suffix searches

	prefix, ok := r.ShortestPath(s, arc.From, w)
	if !ok {
		return graph.Path{}, fmt.Errorf("%w: no path from source %d to via tail %d", ErrInfeasible, s, arc.From)
	}

	viaHop := graph.Path{
		Nodes:  []graph.NodeID{arc.From, arc.To},
		Edges:  []graph.EdgeID{via},
		Length: w(via),
	}
	head, err := prefix.Concat(viaHop)
	if err != nil {
		return graph.Path{}, fmt.Errorf("%w: %v", ErrInvalidProblem, err)
	}
	if !head.IsSimple() {
		return graph.Path{}, fmt.Errorf("%w: shortest prefix to via edge %d revisits its head", ErrInfeasible, via)
	}

	// Find the suffix avoiding every node already used (except arc.To, the
	// suffix's start).
	suffix, ok := shortestAvoiding(r, arc.To, d, w, head.Nodes[:len(head.Nodes)-1])
	if !ok {
		return graph.Path{}, fmt.Errorf("%w: no simple path from via head %d to destination %d avoiding the prefix", ErrInfeasible, arc.To, d)
	}
	full, err := head.Concat(suffix)
	if err != nil {
		return graph.Path{}, fmt.Errorf("%w: %v", ErrInvalidProblem, err)
	}
	if !full.IsSimple() {
		return graph.Path{}, fmt.Errorf("%w: via path is not simple", ErrInfeasible)
	}
	return full, nil
}

// shortestAvoiding finds the shortest s->d path that avoids the given
// nodes. It reuses the router's temporary ban mechanism through a one-shot
// Yen-style query: ban the nodes, run Dijkstra.
func shortestAvoiding(r *graph.Router, s, d graph.NodeID, w graph.WeightFunc, avoid []graph.NodeID) (graph.Path, bool) {
	return r.ShortestPathAvoiding(s, d, w, avoid)
}
