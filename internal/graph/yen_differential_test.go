package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// This file retains the pre-optimization Yen implementation (goal-blind
// textbook Dijkstra per spur, see refShortest; no Lawler skip, string-key
// dedup, sequential) as a test-only reference, and property-checks that the optimized engine
// returns the exact same ordered path list — the optimisations must be
// invisible in the output.
//
// The randomized graphs use continuous random weights so no two distinct
// simple paths tie: under ties the k shortest paths are not unique and both
// implementations remain correct while being free to pick different
// representatives (TestKShortestTiedWeightsLengths covers that regime by
// comparing the — still unique — length sequence).

// yenReference is the seed KShortest, verbatim except for naming.
func yenReference(r *Router, s, t NodeID, k int, w WeightFunc) []Path {
	if k <= 0 {
		return nil
	}
	r.grow()
	r.clearBans()
	first, ok := refShortest(r, s, t, w)
	if !ok {
		return nil
	}
	accepted := []Path{first}
	seen := map[string]struct{}{first.Key(): {}}
	var cands refCandidateHeap

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		refSpurCandidates(r, prev, accepted, t, w, seen, &cands)
		if cands.Len() == 0 {
			break
		}
		best := heap.Pop(&cands).(Path)
		accepted = append(accepted, best)
	}
	return accepted
}

// refBestAlternative is the seed BestAlternative, verbatim except naming.
func refBestAlternative(r *Router, s, t NodeID, w WeightFunc, avoid Path) (Path, bool) {
	r.grow()
	r.clearBans()
	first, ok := refShortest(r, s, t, w)
	if !ok {
		return Path{}, false
	}
	if !first.SameEdges(avoid) {
		return first, true
	}
	seen := map[string]struct{}{avoid.Key(): {}}
	var cands refCandidateHeap
	refSpurCandidates(r, avoid, []Path{avoid}, t, w, seen, &cands)
	if cands.Len() == 0 {
		return Path{}, false
	}
	return heap.Pop(&cands).(Path), true
}

// refSpurCandidates is the seed deviation round: every spur index from 0,
// goal-blind banned Dijkstra, string-key dedup.
func refSpurCandidates(r *Router, base Path, accepted []Path, t NodeID, w WeightFunc, seen map[string]struct{}, cands *refCandidateHeap) {
	rootLen := 0.0
	for i := 0; i < len(base.Edges); i++ {
		spurNode := base.Nodes[i]

		r.clearBans()
		for _, p := range accepted {
			if i < len(p.Edges) && samePrefix(p, base, i) {
				r.banEdge(p.Edges[i])
			}
		}
		for j := 0; j < i; j++ {
			r.banNode(base.Nodes[j])
		}

		if spur, ok := refShortest(r, spurNode, t, w); ok {
			total := concatSpur(base, i, rootLen, spur)
			key := total.Key()
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				heap.Push(cands, total)
			}
		}
		rootLen += w(base.Edges[i])
	}
	r.clearBans()
}

type refCandidateHeap []Path

func (h refCandidateHeap) Len() int           { return len(h) }
func (h refCandidateHeap) Less(i, j int) bool { return pathLess(h[i], h[j]) }
func (h refCandidateHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refCandidateHeap) Push(x any)        { *h = append(*h, x.(Path)) }
func (h *refCandidateHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

// randomTieFreeGraph builds a random directed graph with continuous edge
// weights (no two path sums collide in practice), sometimes without
// guaranteed s->t connectivity and sometimes with disabled edges, so the
// differential test also covers unreachable targets and dead subgraphs.
func randomTieFreeGraph(rng *rand.Rand) (*Graph, WeightFunc) {
	n := 4 + rng.Intn(12)
	g := New(n)
	var weights []float64
	addEdge := func(a, b NodeID) {
		g.MustAddEdge(a, b)
		weights = append(weights, 0.5+10*rng.Float64())
	}
	if rng.Intn(4) > 0 {
		// Usually seed a random chain for base connectivity.
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			addEdge(NodeID(perm[i-1]), NodeID(perm[i]))
		}
	}
	m := rng.Intn(3 * n)
	for i := 0; i < m; i++ {
		addEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	// Occasionally disable a few edges: spur searches must respect them.
	for e := 0; e < g.NumEdges(); e++ {
		if rng.Intn(10) == 0 {
			g.DisableEdge(EdgeID(e))
		}
	}
	return g, func(e EdgeID) float64 { return weights[e] }
}

func samePathList(got, want []Path) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d paths, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].SameEdges(want[i]) {
			return fmt.Errorf("path %d: edges %v, want %v", i, got[i].Edges, want[i].Edges)
		}
		if got[i].Length != want[i].Length {
			return fmt.Errorf("path %d: length %v, want %v (bit-identical required)", i, got[i].Length, want[i].Length)
		}
		for j, nd := range want[i].Nodes {
			if got[i].Nodes[j] != nd {
				return fmt.Errorf("path %d: node %d is %d, want %d", i, j, got[i].Nodes[j], nd)
			}
		}
	}
	return nil
}

// TestKShortestMatchesReference is the differential property test: on
// random graphs (including disabled edges and unreachable targets) the
// optimized engine — serial and with the parallel spur fan-out forced on —
// returns the exact path list of the reference implementation.
func TestKShortestMatchesReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, w := randomTieFreeGraph(rng)
		n := g.NumNodes()
		s := NodeID(rng.Intn(n))
		tgt := NodeID(rng.Intn(n))
		k := 1 + rng.Intn(25)

		want := yenReference(NewRouter(g), s, tgt, k, w)

		serial := NewRouter(g)
		serial.SetSpurWorkers(1)
		if err := samePathList(serial.KShortest(s, tgt, k, w), want); err != nil {
			t.Logf("seed %d (serial, s=%d t=%d k=%d): %v", seed, s, tgt, k, err)
			return false
		}

		parallel := NewRouter(g)
		parallel.SetSpurWorkers(3)
		if err := samePathList(parallel.KShortest(s, tgt, k, w), want); err != nil {
			t.Logf("seed %d (parallel, s=%d t=%d k=%d): %v", seed, s, tgt, k, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestBestAlternativeMatchesReference runs the same differential check for
// the exclusivity oracle, avoiding each of the first few shortest paths.
func TestBestAlternativeMatchesReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, w := randomTieFreeGraph(rng)
		n := g.NumNodes()
		s := NodeID(rng.Intn(n))
		tgt := NodeID(rng.Intn(n))

		avoids := yenReference(NewRouter(g), s, tgt, 3, w)
		if len(avoids) == 0 {
			avoids = []Path{{}} // unreachable: both must report !ok
		}
		for _, avoid := range avoids {
			wantPath, wantOK := refBestAlternative(NewRouter(g), s, tgt, w, avoid)
			gotPath, gotOK := NewRouter(g).BestAlternative(s, tgt, w, avoid)
			if gotOK != wantOK {
				t.Logf("seed %d: ok=%v, want %v", seed, gotOK, wantOK)
				return false
			}
			if !wantOK {
				continue
			}
			if !gotPath.SameEdges(wantPath) || gotPath.Length != wantPath.Length {
				t.Logf("seed %d: alternative %v, want %v", seed, gotPath, wantPath)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestKShortestTiedWeightsLengths covers the tie regime the differential
// test deliberately avoids: with massively tied weights the chosen
// representatives may differ, but the sorted length sequence of the k
// shortest loopless paths is unique and must match the reference exactly,
// and every structural invariant must hold.
func TestKShortestTiedWeightsLengths(t *testing.T) {
	g, w := gridGraph(4, 5)
	want := yenReference(NewRouter(g), 0, 19, 60, w)

	for _, workers := range []int{1, 4} {
		r := NewRouter(g)
		r.SetSpurWorkers(workers)
		got := r.KShortest(0, 19, 60, w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %d paths, want %d", workers, len(got), len(want))
		}
		seen := pathSet{}
		for i, p := range got {
			if p.Length != want[i].Length {
				t.Errorf("workers=%d: path %d length %v, want %v", workers, i, p.Length, want[i].Length)
			}
			if !p.IsSimple() || p.Source() != 0 || p.Target() != 19 {
				t.Errorf("workers=%d: path %d malformed: %v", workers, i, p)
			}
			if err := p.Validate(g); err != nil {
				t.Errorf("workers=%d: path %d invalid: %v", workers, i, err)
			}
			if !seen.add(p.Edges) {
				t.Errorf("workers=%d: path %d duplicates an earlier path", workers, i)
			}
		}
	}
}

// TestKShortestCachedPotentialAfterDisables checks the admissibility
// argument the oracle caching relies on: a potential computed on the intact
// graph keeps BestAlternativeWithin exact after edges are disabled.
func TestKShortestCachedPotentialAfterDisables(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		g, w := randomTieFreeGraph(rng)
		n := g.NumNodes()
		s := NodeID(rng.Intn(n))
		tgt := NodeID(rng.Intn(n))
		r := NewRouter(g)
		pot := r.ReversePotential(tgt, w)

		avoid, ok := r.ShortestPath(s, tgt, w)
		if !ok {
			continue
		}
		// Disable a few random edges after the potential snapshot.
		tx := g.Begin()
		for e := 0; e < g.NumEdges(); e++ {
			if rng.Intn(6) == 0 {
				tx.Disable(EdgeID(e))
			}
		}
		wantPath, wantOK := refBestAlternative(NewRouter(g), s, tgt, w, avoid)
		gotPath, gotOK := r.BestAlternativeWithin(s, tgt, w, avoid, pot, math.Inf(1))
		tx.Rollback()

		if gotOK != wantOK {
			t.Fatalf("trial %d: ok=%v, want %v", trial, gotOK, wantOK)
		}
		if wantOK && (!gotPath.SameEdges(wantPath) || gotPath.Length != wantPath.Length) {
			t.Fatalf("trial %d: alternative %v, want %v", trial, gotPath, wantPath)
		}
	}
}

// TestKShortestWithPotentialMatches checks that a caller-supplied reverse
// potential — the registry's per-hospital cache — is invisible in the
// output: KShortestWithPotential with a precomputed potential returns the
// exact path list of KShortest, freezing per call and on an attached
// snapshot, and a nil or wrong-target potential degrades to a plain
// KShortest rather than a wrong answer.
func TestKShortestWithPotentialMatches(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, w := randomTieFreeGraph(rng)
		n := g.NumNodes()
		s := NodeID(rng.Intn(n))
		tgt := NodeID(rng.Intn(n))
		k := 1 + rng.Intn(20)

		want := NewRouter(g).KShortest(s, tgt, k, w)
		pot := NewRouter(g).ReversePotential(tgt, w)

		if err := samePathList(NewRouter(g).KShortestWithPotential(s, tgt, k, w, pot), want); err != nil {
			t.Logf("seed %d (per-call, s=%d t=%d k=%d): %v", seed, s, tgt, k, err)
			return false
		}

		frozen := NewRouter(g)
		frozen.UseSnapshot(Freeze(g, w))
		if err := samePathList(frozen.KShortestWithPotential(s, tgt, k, w, pot), want); err != nil {
			t.Logf("seed %d (frozen, s=%d t=%d k=%d): %v", seed, s, tgt, k, err)
			return false
		}

		wrong := NewRouter(g).ReversePotential(s, w) // wrong target: must be recomputed
		if err := samePathList(NewRouter(g).KShortestWithPotential(s, tgt, k, w, wrong), want); err != nil {
			t.Logf("seed %d (wrong-target pot): %v", seed, err)
			return false
		}
		if err := samePathList(NewRouter(g).KShortestWithPotential(s, tgt, k, w, nil), want); err != nil {
			t.Logf("seed %d (nil pot): %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// randomTiedMultiGraph builds a random directed graph whose small integer
// weights make exact path-length ties common and which holds parallel
// edges (twins of the same arc, some with equal weight), the two regimes
// the tie-free generator avoids.
func randomTiedMultiGraph(rng *rand.Rand) (*Graph, WeightFunc) {
	n := 4 + rng.Intn(10)
	g := New(n)
	var weights []float64
	addEdge := func(a, b NodeID, w float64) {
		g.MustAddEdge(a, b)
		weights = append(weights, w)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		addEdge(NodeID(perm[i-1]), NodeID(perm[i]), float64(1+rng.Intn(3)))
	}
	for i, m := 0, n+rng.Intn(3*n); i < m; i++ {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		w := float64(1 + rng.Intn(3))
		addEdge(a, b, w)
		if rng.Intn(4) == 0 { // parallel twin, tied half the time
			if rng.Intn(2) == 0 {
				w = float64(1 + rng.Intn(3))
			}
			addEdge(a, b, w)
		}
	}
	return g, func(e EdgeID) float64 { return weights[e] }
}

// TestBestAlternativeWithinMatchesUnbounded checks the attack loops'
// bounded exclusivity oracle against the unbounded deviation round. On
// each input family, with a potential built on the intact graph and a
// random set of edges disabled afterwards, BestAlternativeWithin must
// return the unbounded round's path bit for bit (edges, nodes and Length)
// whenever that path's Length is at most limit, and (Path{}, false)
// otherwise. The limits probe exactly the path length, one ulp either
// side of it, the attack loops' tie bound over avoid, zero, a random
// value, and +Inf.
//
// The unbounded round is BestAlternativeWithin at limit +Inf on the same
// potential. It must equal BestAlternative exactly, which computes its
// potential on the current state, whenever the two potentials could not
// break ties differently: on tie-free graphs, and on every graph before
// any edge is disabled. Under ties with edges disabled the two may pick
// different tied representatives, so there only their lengths must agree.
func TestBestAlternativeWithinMatchesUnbounded(t *testing.T) {
	inputs := []struct {
		name  string
		tied  bool
		build func(*rand.Rand) (*Graph, WeightFunc)
	}{
		{"tie-free", false, randomTieFreeGraph},
		{"tied-parallel", true, randomTiedMultiGraph},
		{"grid", true, func(*rand.Rand) (*Graph, WeightFunc) { return gridGraph(4, 5) }},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var pruned, kept int
			for trial := 0; trial < 150; trial++ {
				g, w := in.build(rng)
				n := g.NumNodes()
				s, tgt := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				avoids := NewRouter(g).KShortest(s, tgt, 1+rng.Intn(6), w)
				if len(avoids) == 0 {
					continue
				}
				avoid := avoids[len(avoids)-1]
				r := NewRouter(g)
				r.UseSnapshot(Freeze(g, w))
				pot := r.ReversePotential(tgt, w)

				tx := g.Begin()
				if trial%4 != 0 {
					for e := 0; e < g.NumEdges(); e++ {
						if rng.Intn(6) == 0 {
							tx.Disable(EdgeID(e))
						}
					}
				}
				want, wantOK := r.BestAlternativeWithin(s, tgt, w, avoid, pot, math.Inf(1))
				fresh, freshOK := NewRouter(g).BestAlternative(s, tgt, w, avoid)
				if !in.tied || len(tx.Disabled()) == 0 {
					if !samePath(want, fresh, wantOK, freshOK) {
						t.Fatalf("trial %d: unbounded round %v (ok=%v), BestAlternative %v (ok=%v)", trial, want, wantOK, fresh, freshOK)
					}
				} else if wantOK != freshOK || (wantOK && want.Length != fresh.Length) {
					t.Fatalf("trial %d: unbounded length %v (ok=%v), BestAlternative %v (ok=%v)", trial, want.Length, wantOK, fresh.Length, freshOK)
				}

				limits := []float64{0, math.Inf(1), rng.Float64() * 2 * avoid.Length,
					avoid.Length + 1e-9*math.Max(1, avoid.Length)}
				if wantOK {
					limits = append(limits, want.Length,
						math.Nextafter(want.Length, math.Inf(-1)), math.Nextafter(want.Length, math.Inf(1)))
				}
				for _, limit := range limits {
					got, gotOK := r.BestAlternativeWithin(s, tgt, w, avoid, pot, limit)
					if wantOK && want.Length <= limit {
						kept++
						if !samePath(got, want, gotOK, true) {
							t.Fatalf("trial %d limit %v: got %v (ok=%v), want %v", trial, limit, got, gotOK, want)
						}
						continue
					}
					pruned++
					if gotOK || !got.Empty() {
						t.Fatalf("trial %d limit %v: got %v (ok=%v), want (Path{}, false); unbounded %v (ok=%v)", trial, limit, got, gotOK, want, wantOK)
					}
				}
				tx.Rollback()
			}
			if pruned == 0 || kept == 0 {
				t.Fatalf("degenerate inputs: %d within-limit and %d over-limit queries", kept, pruned)
			}
		})
	}
}
