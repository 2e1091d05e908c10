package core

import (
	"context"
	"fmt"

	"altroute/internal/graph"
)

// greedyEdge implements the paper's GreedyEdge baseline: while p* is not
// the exclusive shortest path, take the current shortest (or tied) s->d
// path and cut its lowest-weight edge that is not on p*.
func greedyEdge(ctx context.Context, p Problem, opts Options) (Result, error) {
	return naiveCutLoop(ctx, p, opts, func(viol graph.Path, pstarSet map[graph.EdgeID]struct{}) graph.EdgeID {
		best := graph.InvalidEdge
		bestW := 0.0
		for _, e := range viol.Edges {
			if !p.cuttable(e, pstarSet) {
				continue
			}
			w := p.Weight(e)
			if best == graph.InvalidEdge || w < bestW || (w == bestW && e < best) { //lint:allow floateq deterministic tie-break: exact ties fall back to edge ID
				best, bestW = e, w
			}
		}
		return best
	})
}

// greedyEig implements the paper's GreedyEig baseline: like GreedyEdge, but
// the cut edge is the one on the current shortest path with the highest
// eigenvector-centrality score to removal-cost ratio. Scores default to a
// single computation on the intact graph (PATHATTACK's formulation);
// Options.RecomputeEigen rescoring after every cut is available as an
// ablation.
func greedyEig(ctx context.Context, p Problem, opts Options) (Result, error) {
	scores := graph.EdgeEigenScores(p.G, graph.EigenOptions{})
	return naiveCutLoop(ctx, p, opts, func(viol graph.Path, pstarSet map[graph.EdgeID]struct{}) graph.EdgeID {
		if opts.RecomputeEigen {
			scores = graph.EdgeEigenScores(p.G, graph.EigenOptions{})
		}
		best := graph.InvalidEdge
		bestRatio := 0.0
		for _, e := range viol.Edges {
			if !p.cuttable(e, pstarSet) {
				continue
			}
			c := p.Cost(e)
			if c <= 0 {
				c = 1e-12 // zero-cost edges are always the best choice
			}
			ratio := scores[e] / c
			if best == graph.InvalidEdge || ratio > bestRatio || (ratio == bestRatio && e < best) { //lint:allow floateq deterministic tie-break: exact ties fall back to edge ID
				best, bestRatio = e, ratio
			}
		}
		return best
	})
}

// naiveCutLoop is the shared skeleton of the two naive baselines: generate
// a violating path, let pick choose one of its cuttable edges, cut it, and
// repeat. Cuts are monotone (never reconsidered), which is what makes these
// algorithms fast and sub-optimal.
func naiveCutLoop(ctx context.Context, p Problem, opts Options, pick func(graph.Path, map[graph.EdgeID]struct{}) graph.EdgeID) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	r := p.router(ctx)
	pstarSet := p.PStar.EdgeSet()
	budget := p.budgetOrInf()
	// Taken before the first cut: cuts only disable edges, so the reverse
	// potential stays admissible for every later round.
	pot := p.potential(r)

	tx := p.G.Begin()
	defer tx.Rollback()

	var res Result
	total := 0.0
	for round := 0; ; round++ {
		injectRound(ctx)
		if round >= opts.MaxRounds {
			return Result{}, fmt.Errorf("%w: no solution within %d cuts", ErrInfeasible, opts.MaxRounds)
		}
		viol, violated := p.violating(r, pot)
		// The context check must precede the success test: a cancelled
		// oracle can report "no violation" spuriously.
		if ctx.Err() != nil {
			return Result{}, ctxErr(ctx)
		}
		if !violated {
			res.Removed = tx.Disabled()
			res.TotalCost = total
			res.Rounds = round
			res.ConstraintPaths = round
			return res, nil
		}
		e := pick(viol, pstarSet)
		if e == graph.InvalidEdge {
			return Result{}, fmt.Errorf("%w: violating path %v has no edge off p*", ErrInfeasible, viol)
		}
		c := p.Cost(e)
		if c < 0 {
			return Result{}, fmt.Errorf("%w: negative cost on edge %d", ErrInvalidProblem, e)
		}
		if total+c > budget {
			return Result{}, fmt.Errorf("%w: next cut (edge %d, cost %.3f) would exceed budget %.3f",
				ErrBudgetExceeded, e, c, p.Budget)
		}
		tx.Disable(e)
		total += c
	}
}
