// Package core implements the paper's contribution: alternative route-based
// attacks on metropolitan traffic systems, modeled as the Force Path Cut
// problem on directed road graphs (adapted from Miller et al.,
// PATHATTACK, ECML 2021).
//
// Given a street graph, a victim source s and destination d, a chosen
// sub-optimal alternative route p*, per-edge traversal weights (the
// attacker's objective: LENGTH or TIME), and per-edge removal costs (the
// attacker's capability: UNIFORM, LANES, or WIDTH), the attacker removes a
// minimum-cost set of edges — none of them on p* — so that p* becomes the
// EXCLUSIVE shortest path from s to d, optionally subject to a removal
// budget.
//
// Four algorithms are provided, matching the paper's §III-A:
//
//   - LPPathCover: constraint generation + LP relaxation of weighted Set
//     Cover (solved with the internal simplex) + rounding.
//   - GreedyPathCover: constraint generation + greedy weighted Set Cover.
//   - GreedyEdge: iteratively cut the lowest-weight edge not on p* along
//     the current shortest path.
//   - GreedyEig: iteratively cut the edge not on p* along the current
//     shortest path with the highest eigenvector-centrality score to cost
//     ratio.
//
// All algorithms leave the input graph unchanged: cuts are simulated
// through a transaction and rolled back; the chosen edges are returned in
// the Result for the caller to apply.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// Sentinel errors returned by the attack algorithms.
var (
	// ErrInvalidProblem marks a structurally broken problem (bad endpoints,
	// missing functions, or a p* that is not a live path from s to d).
	ErrInvalidProblem = errors.New("core: invalid problem")
	// ErrInfeasible is returned when p* cannot be forced: some violating
	// path contains only p* edges, or the cut search exhausted its bounds.
	ErrInfeasible = errors.New("core: attack infeasible")
	// ErrBudgetExceeded is returned when a cut set exists but its total
	// removal cost exceeds the attacker's budget.
	ErrBudgetExceeded = errors.New("core: removal budget exceeded")
	// ErrRankUnavailable is returned by PStarByRank when the graph has
	// fewer than rank simple paths between the endpoints.
	ErrRankUnavailable = errors.New("core: path rank unavailable")
	// ErrTimeout is returned when an attack exceeds its deadline
	// (Options.Timeout or an ancestor context deadline). LP-PathCover
	// instead degrades to a greedy cover of its constraint pool when it has
	// one (Result.Degraded).
	ErrTimeout = errors.New("core: attack deadline exceeded")
	// ErrCancelled is returned when the attack's context is cancelled
	// before the attack completes.
	ErrCancelled = errors.New("core: attack cancelled")
	// ErrPanic is returned when an attack algorithm panicked. RunCtx
	// recovers the panic and wraps its value and stack trace, so one
	// poisoned instance costs one failed attack, never the process.
	ErrPanic = errors.New("core: attack panicked")
)

// Problem is one Force Path Cut instance.
type Problem struct {
	// G is the street graph. Algorithms temporarily disable edges on it
	// during the search and restore them before returning.
	G *graph.Graph
	// Source and Dest are the victim's endpoints (paper: random
	// intersection and hospital).
	Source graph.NodeID
	Dest   graph.NodeID
	// PStar is the alternative route the attacker forces. It must be a
	// simple, currently-live Source->Dest path; its Length is recomputed
	// from Weight during validation.
	PStar graph.Path
	// Weight is the attacker's path metric (roadnet LENGTH or TIME).
	Weight graph.WeightFunc
	// Cost is the edge-removal cost (roadnet UNIFORM, LANES, or WIDTH).
	Cost graph.WeightFunc
	// Budget caps the total removal cost. Zero or negative means
	// unlimited.
	Budget float64
	// Snapshot optionally carries a frozen CSR image of G under Weight
	// (graph.Freeze) for the oracle queries to run on. Callers that attack
	// the same network repeatedly (the experiment harness, the server's
	// pooled networks) pass their cached snapshot here; when nil (or frozen
	// from a different graph) the algorithms freeze one per run. Either
	// way the results are the same.
	Snapshot *graph.Snapshot
	// Potential optionally carries a cached reverse potential for Dest
	// under Weight (graph.ReversePotential), computed on a graph state
	// whose enabled-edge set contained every edge currently enabled — in
	// practice, the intact network (the city-shard registry and the
	// experiment runner keep one per hospital destination). When nil or
	// targeting a different node, the algorithms run their own reverse
	// Dijkstra, exactly as before; when supplied, its table is
	// bit-identical to what that Dijkstra would produce, so results are
	// unchanged.
	Potential *graph.Potential
}

// router returns a context-attached Router running on the problem's frozen
// snapshot for the oracle loops. The thousands of shortest-path queries an
// attack issues amortize the one O(V+E) freeze many times over.
func (p *Problem) router(ctx context.Context) *graph.Router {
	r := p.snapshotRouter()
	r.SetContext(ctx)
	return r
}

// snapshotRouter returns a Router on p.Snapshot, or on a fresh freeze of G
// under Weight when the problem carries none (or one from another graph).
func (p *Problem) snapshotRouter() *graph.Router {
	r := graph.NewRouter(p.G)
	snap := p.Snapshot
	if snap == nil || snap.Graph() != p.G {
		snap = graph.Freeze(p.G, p.Weight)
	}
	r.UseSnapshot(snap)
	return r
}

// potential returns the reverse potential the oracle loops should use:
// the cached one when it matches Dest, else one fresh reverse Dijkstra on
// r. Both are exact distance tables for Dest under Weight on the intact
// graph, so the choice never changes any result.
func (p *Problem) potential(r *graph.Router) *graph.Potential {
	if p.Potential != nil && p.Potential.Target() == p.Dest {
		return p.Potential
	}
	return r.ReversePotential(p.Dest, p.Weight)
}

// budgetOrInf returns the effective budget.
func (p *Problem) budgetOrInf() float64 {
	if p.Budget <= 0 {
		return math.Inf(1)
	}
	return p.Budget
}

// tieEps returns the tolerance under which two path lengths are considered
// tied (and thus p* is not yet exclusive).
func (p *Problem) tieEps() float64 {
	return 1e-9 * math.Max(1, p.PStar.Length)
}

// validate checks the problem and normalizes PStar.Length under Weight.
func (p *Problem) validate() error {
	if p.G == nil {
		return fmt.Errorf("%w: nil graph", ErrInvalidProblem)
	}
	if p.Weight == nil || p.Cost == nil {
		return fmt.Errorf("%w: nil weight or cost function", ErrInvalidProblem)
	}
	if p.PStar.Empty() {
		return fmt.Errorf("%w: empty p*", ErrInvalidProblem)
	}
	if p.PStar.Source() != p.Source || p.PStar.Target() != p.Dest {
		return fmt.Errorf("%w: p* runs %d->%d, problem endpoints are %d->%d",
			ErrInvalidProblem, p.PStar.Source(), p.PStar.Target(), p.Source, p.Dest)
	}
	if !p.PStar.IsSimple() {
		return fmt.Errorf("%w: p* is not a simple path", ErrInvalidProblem)
	}
	if err := p.PStar.Validate(p.G); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidProblem, err)
	}
	length := 0.0
	for _, e := range p.PStar.Edges {
		w := p.Weight(e)
		if w < 0 {
			return fmt.Errorf("%w: negative weight on edge %d", ErrInvalidProblem, e)
		}
		length += w
	}
	p.PStar.Length = length
	return nil
}

// violating returns a live s->d path, different from p*, whose length does
// not exceed p*'s (i.e. a witness that p* is not yet the exclusive shortest
// path), under the graph's current disabled-edge state. It is the one
// exclusivity oracle every attack loop calls once per round: a deviation
// round over p* bounded by the tie threshold, so spur searches that cannot
// come back under it are skipped or abandoned (graph.BestAlternativeWithin).
//
// pot is an optional cached reverse potential for p.Dest under p.Weight
// (nil: computed per call). The attack loops take it once on the
// unmodified graph and reuse it across every oracle round: candidate cuts
// only disable edges, which keeps the potential admissible.
func (p *Problem) violating(r *graph.Router, pot *graph.Potential) (graph.Path, bool) {
	return r.BestAlternativeWithin(p.Source, p.Dest, p.Weight, p.PStar, pot, p.PStar.Length+p.tieEps())
}

// IsExclusiveShortest reports whether p* is currently the strictly shortest
// s->d path under the problem's weight (the attack's success condition).
// A nil r means a router on the problem's snapshot (frozen here when the
// problem carries none).
func (p *Problem) IsExclusiveShortest(r *graph.Router) bool {
	if r == nil {
		r = p.snapshotRouter()
	}
	_, violated := p.violating(r, nil)
	return !violated
}

// cuttable reports whether edge e may be removed: enabled and not on p*.
func (p *Problem) cuttable(e graph.EdgeID, pstarSet map[graph.EdgeID]struct{}) bool {
	if p.G.EdgeDisabled(e) {
		return false
	}
	_, onPStar := pstarSet[e]
	return !onPStar
}

// PStarByRank returns the rank-th shortest simple path (1-based: rank 1 is
// the shortest) between s and d. The paper sets the alternative route to
// the 100th-shortest path.
func PStarByRank(g *graph.Graph, s, d graph.NodeID, rank int, w graph.WeightFunc) (graph.Path, error) {
	if rank < 1 {
		return graph.Path{}, fmt.Errorf("%w: rank %d < 1", ErrRankUnavailable, rank)
	}
	r := graph.NewRouter(g)
	r.UseSnapshot(graph.Freeze(g, w))
	paths := r.KShortest(s, d, rank, w)
	if len(paths) < rank {
		return graph.Path{}, fmt.Errorf("%w: only %d simple paths between %d and %d, want rank %d",
			ErrRankUnavailable, len(paths), s, d, rank)
	}
	return paths[rank-1], nil
}

// NewProblem assembles a Force Path Cut instance on a road network: the
// alternative route is the rank-th shortest path under the chosen weight
// type, and removal costs follow the chosen cost type. Budget 0 means
// unlimited.
func NewProblem(net *roadnet.Network, s, d graph.NodeID, rank int, wt roadnet.WeightType, ct roadnet.CostType, budget float64) (Problem, error) {
	w := net.Weight(wt)
	pstar, err := PStarByRank(net.Graph(), s, d, rank, w)
	if err != nil {
		return Problem{}, err
	}
	p := Problem{
		G:      net.Graph(),
		Source: s,
		Dest:   d,
		PStar:  pstar,
		Weight: w,
		Cost:   net.Cost(ct),
		Budget: budget,
	}
	if err := p.validate(); err != nil {
		return Problem{}, err
	}
	return p, nil
}

// Apply disables every edge in cut on g (committing an attack plan).
func Apply(g *graph.Graph, cut []graph.EdgeID) {
	for _, e := range cut {
		g.DisableEdge(e)
	}
}

// Restore re-enables every edge in cut on g.
func Restore(g *graph.Graph, cut []graph.EdgeID) {
	for _, e := range cut {
		g.EnableEdge(e)
	}
}

// TotalCost sums cost over the edges.
func TotalCost(cost graph.WeightFunc, edges []graph.EdgeID) float64 {
	total := 0.0
	for _, e := range edges {
		total += cost(e)
	}
	return total
}
