package core

import (
	"context"
	"fmt"

	"altroute/internal/graph"
)

// VictimSpec is one victim trip in a coordinated multi-victim attack.
type VictimSpec struct {
	Source graph.NodeID
	Dest   graph.NodeID
	// PStar is the alternative route forced on this victim.
	PStar graph.Path
}

// MultiProblem is the coordinated version of the attack from §II-A: "a
// motivated attacker could feasibly ... coerce multiple drivers to take a
// chosen suboptimal alternative route". One edge cut must simultaneously
// make every victim's p* the exclusive shortest path for that victim's
// endpoints, without touching any victim's p*.
type MultiProblem struct {
	G       *graph.Graph
	Victims []VictimSpec
	Weight  graph.WeightFunc
	Cost    graph.WeightFunc
	// Budget caps the total removal cost; <= 0 means unlimited.
	Budget float64
}

// problems splits p into one Problem per victim, each carrying the shared
// graph, weight, cost, and budget. The PathCover loop validates them.
func (p *MultiProblem) problems() ([]Problem, error) {
	if len(p.Victims) == 0 {
		return nil, fmt.Errorf("%w: no victims", ErrInvalidProblem)
	}
	victims := make([]Problem, len(p.Victims))
	for i, v := range p.Victims {
		victims[i] = Problem{
			G: p.G, Source: v.Source, Dest: v.Dest, PStar: v.PStar,
			Weight: p.Weight, Cost: p.Cost, Budget: p.Budget,
		}
	}
	return victims, nil
}

// RunMulti computes one edge cut forcing every victim onto its alternative
// route. Only the constraint-generation algorithms generalize to multiple
// victims (their Set Cover pool simply accumulates constraints from every
// victim, in the same loop a single-victim Run uses); AlgGreedyEdge and
// AlgGreedyEig return ErrInvalidProblem.
//
// The graph is restored before returning; commit the cut with Apply.
// RunMulti is a thin context.Background() wrapper over RunMultiCtx.
func RunMulti(alg Algorithm, p MultiProblem, opts Options) (Result, error) {
	return RunMultiCtx(context.Background(), alg, p, opts)
}

// RunMultiCtx is RunMulti under a context, with the same cancellation,
// deadline, degradation, and panic-isolation semantics as RunCtx.
func RunMultiCtx(ctx context.Context, alg Algorithm, p MultiProblem, opts Options) (Result, error) {
	var cover func(context.Context, []Problem, Options) (Result, error)
	switch alg {
	case AlgGreedyPathCover:
		cover = greedyPathCover
	case AlgLPPathCover:
		cover = lpPathCover
	default:
		return Result{}, fmt.Errorf("%w: algorithm %v does not support multi-victim attacks (use GreedyPathCover or LP-PathCover)",
			ErrInvalidProblem, alg)
	}
	victims, err := p.problems()
	if err != nil {
		return Result{}, err
	}
	return run(ctx, alg, opts, func(ctx context.Context, opts Options) (Result, error) {
		return cover(ctx, victims, opts)
	})
}
