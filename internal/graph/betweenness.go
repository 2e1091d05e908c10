package graph

import "context"

// BetweennessOptions configures EdgeBetweenness.
type BetweennessOptions struct {
	// Sources restricts the accumulation to shortest-path trees rooted at
	// these nodes. Nil means every node, which is exact Brandes; a sample
	// gives the standard unbiased approximation and is what the experiment
	// harness uses on full-size city graphs.
	Sources []NodeID
	// Normalize divides the scores by n*(n-1), the number of ordered node
	// pairs, yielding the fraction-of-shortest-paths definition from the
	// paper's attacker-objective discussion.
	Normalize bool
}

// EdgeBetweenness computes weighted directed edge betweenness centrality
// with Brandes' algorithm: for each edge, the (optionally normalized) count
// of shortest paths between ordered node pairs that traverse it, with
// fractional credit when several shortest paths tie. Disabled edges score 0
// and are not traversed.
//
// The paper (§II-A) uses high edge betweenness to identify critical,
// highly-traveled roads an attacker would target.
func EdgeBetweenness(g *Graph, w WeightFunc, opts BetweennessOptions) []float64 {
	score, _ := EdgeBetweennessCtx(context.Background(), g, w, opts)
	return score
}

// EdgeBetweennessCtx is EdgeBetweenness with cooperative cancellation:
// the context is polled once per source tree (the natural unit of work,
// one full Dijkstra plus accumulation), and on cancellation the partial
// scores computed so far are returned alongside the context's error.
// Partial scores are NOT rescaled — they cover an unpredictable source
// prefix — so callers must treat them as diagnostic only when err != nil.
// It is BetweennessParallel with one worker on Freeze(g, w).
func EdgeBetweennessCtx(ctx context.Context, g *Graph, w WeightFunc, opts BetweennessOptions) ([]float64, error) {
	return BetweennessParallel(ctx, Freeze(g, w), opts, 1)
}

// TopEdgesByScore returns the indices of the k highest-scoring enabled
// edges, in descending score order (ties broken by lower edge ID).
func TopEdgesByScore(g *Graph, score []float64, k int) []EdgeID {
	if k <= 0 {
		return nil
	}
	type es struct {
		e EdgeID
		s float64
	}
	all := make([]es, 0, len(score))
	for e, s := range score {
		if !g.disabled[e] {
			all = append(all, es{e: EdgeID(e), s: s})
		}
	}
	// Partial selection sort is fine for small k; use full sort otherwise.
	if k > len(all) {
		k = len(all)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].s > all[best].s || (all[j].s == all[best].s && all[j].e < all[best].e) { //lint:allow floateq deterministic tie-break: exact ties fall back to edge ID
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	out := make([]EdgeID, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].e
	}
	return out
}
