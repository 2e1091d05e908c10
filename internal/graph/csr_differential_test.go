package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Kernel differential tests: every Router query must return BIT-IDENTICAL
// results to the textbook references in reference_test.go — same edges,
// same nodes, same float length bits — on tie-free AND massively tied
// graphs, with disabled-edge overlays, ban overlays, and mid-run
// DisableEdge, whether the router has a snapshot attached or freezes one
// per call. The guarantee rests on the shared heapLess total order (dist,
// then node): any correct heap pops the same value sequence, so heap arity
// cannot show up in the output.

// frozenRouter returns a router for g with a fresh snapshot attached.
func frozenRouter(g *Graph, w WeightFunc) *Router {
	r := NewRouter(g)
	r.UseSnapshot(Freeze(g, w))
	return r
}

func samePath(got, want Path, gotOK, wantOK bool) bool {
	if gotOK != wantOK {
		return false
	}
	if !wantOK {
		return true
	}
	if got.Length != want.Length || !got.SameEdges(want) {
		return false
	}
	if len(got.Nodes) != len(want.Nodes) {
		return false
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			return false
		}
	}
	return true
}

// testGraphs yields the two weight regimes: continuous tie-free random
// graphs and a unit-weight grid where nearly everything ties.
func testGraphs(rng *rand.Rand) []struct {
	name string
	g    *Graph
	w    WeightFunc
} {
	rg, rw := randomTieFreeGraph(rng)
	gg, gw := gridGraph(4, 5)
	// Disable a few grid edges so the tied regime also covers overlays.
	for e := 0; e < gg.NumEdges(); e++ {
		if rng.Intn(12) == 0 {
			gg.DisableEdge(EdgeID(e))
		}
	}
	return []struct {
		name string
		g    *Graph
		w    WeightFunc
	}{
		{"random", rg, rw},
		{"grid", gg, gw},
	}
}

// TestPointQueriesMatchReference checks every point-to-point query and
// both full-sweep tables against the textbook references, on a router with
// a snapshot attached and on one that freezes per call. Dijkstra, the
// avoiding Dijkstra, DistancesFrom and ReversePotential must match bit for
// bit. A* and the bidirectional search must return a valid s->t path
// whose edge weights, summed in path order, equal the reference length
// exactly; the bidirectional search adds its two halves' distances, so
// its reported Length may differ from that sum in the last bits.
func TestPointQueriesMatchReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, tc := range testGraphs(rng) {
			n := tc.g.NumNodes()
			s := NodeID(rng.Intn(n))
			tgt := NodeID(rng.Intn(n))
			var avoid []NodeID
			for i := 0; i < rng.Intn(4); i++ {
				avoid = append(avoid, NodeID(rng.Intn(n)))
			}

			ref := NewRouter(tc.g)
			ref.grow()
			ref.clearBans()
			wantP, wantOK := refShortest(ref, s, tgt, tc.w)
			for _, nd := range avoid {
				if nd != s && nd != tgt {
					ref.banNode(nd)
				}
			}
			wantAvoidP, wantAvoidOK := refShortest(ref, s, tgt, tc.w)
			wantDist := refSweep(tc.g, s, tc.w, false)
			wantPot := refSweep(tc.g, tgt, tc.w, true)

			for _, r := range []*Router{frozenRouter(tc.g, tc.w), NewRouter(tc.g)} {
				mode := "attached"
				if r.Snapshot() == nil {
					mode = "per-call"
				}
				fail := func(format string, args ...any) bool {
					t.Logf("seed %d %s %s: "+format, append([]any{seed, tc.name, mode}, args...)...)
					return false
				}
				if p, ok := r.ShortestPath(s, tgt, tc.w); !samePath(p, wantP, ok, wantOK) {
					return fail("ShortestPath %v/%v, want %v/%v", p, ok, wantP, wantOK)
				}
				if p, ok := r.ShortestPathAvoiding(s, tgt, tc.w, avoid); !samePath(p, wantAvoidP, ok, wantAvoidOK) {
					return fail("ShortestPathAvoiding %v/%v, want %v/%v", p, ok, wantAvoidP, wantAvoidOK)
				}
				zero := func(NodeID) float64 { return 0 }
				potH := func(v NodeID) float64 { return wantPot[v] }
				for name, q := range map[string]func() (Path, bool){
					"ShortestPathBidirectional": func() (Path, bool) { return r.ShortestPathBidirectional(s, tgt, tc.w) },
					"ShortestPathAStar(zero)":   func() (Path, bool) { return r.ShortestPathAStar(s, tgt, tc.w, zero) },
					"ShortestPathAStar(exact)":  func() (Path, bool) { return r.ShortestPathAStar(s, tgt, tc.w, potH) },
				} {
					p, ok := q()
					if ok != wantOK {
						return fail("%s reachable=%v, want %v", name, ok, wantOK)
					}
					if !ok {
						continue
					}
					if p.Validate(tc.g) != nil || p.Source() != s || p.Target() != tgt {
						return fail("%s returned an invalid path %v", name, p)
					}
					sum := 0.0
					for _, e := range p.Edges {
						sum += tc.w(e)
					}
					if sum != wantP.Length || math.Abs(p.Length-sum) > 1e-12*sum {
						return fail("%s length %v (edge sum %v), want %v", name, p.Length, sum, wantP.Length)
					}
				}
				pot := r.ReversePotential(tgt, tc.w)
				dist := r.DistancesFrom(s, tc.w)
				for v := 0; v < n; v++ {
					if pot.At(NodeID(v)) != wantPot[v] {
						return fail("ReversePotential differs at %d: %v vs %v", v, pot.At(NodeID(v)), wantPot[v])
					}
					if dist[v] != wantDist[v] {
						return fail("DistancesFrom differs at %d: %v vs %v", v, dist[v], wantDist[v])
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestYenMatchesReferenceBothModes checks the full Yen engine — serial
// and with the parallel spur fan-out forced on — on a router with a
// snapshot attached and on one that freezes per call (its spur workers
// then share the per-call snapshot). Every mode must return the same
// path list bit for bit. On tie-free graphs that list must also equal
// yenReference's exactly; on the tied grid, where the goal-blind
// reference may pick other representatives, its length sequence must.
// The exclusivity oracle gets the same treatment under cuts, with a
// potential cached before the cuts.
func TestYenMatchesReferenceBothModes(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, tc := range testGraphs(rng) {
			n := tc.g.NumNodes()
			s := NodeID(rng.Intn(n))
			tgt := NodeID(rng.Intn(n))
			k := 1 + rng.Intn(20)
			tied := tc.name == "grid"

			ref := yenReference(NewRouter(tc.g), s, tgt, k, tc.w)
			var first []Path
			for _, workers := range []int{1, 3} {
				for _, r := range []*Router{frozenRouter(tc.g, tc.w), NewRouter(tc.g)} {
					r.SetSpurWorkers(workers)
					got := r.KShortest(s, tgt, k, tc.w)
					if first == nil {
						first = got
					}
					err := samePathList(got, first)
					if err == nil && !tied {
						err = samePathList(got, ref)
					}
					if err == nil && tied {
						err = sameLengths(got, ref)
					}
					if err != nil {
						t.Logf("seed %d %s workers=%d attached=%v: %v", seed, tc.name, workers, r.Snapshot() != nil, err)
						return false
					}
				}
			}

			if len(ref) == 0 {
				continue
			}
			froz := frozenRouter(tc.g, tc.w)
			pot := froz.ReversePotential(tgt, tc.w)
			tx := tc.g.Begin()
			for e := 0; e < tc.g.NumEdges(); e++ {
				if rng.Intn(8) == 0 {
					tx.Disable(EdgeID(e))
				}
			}
			wantAlt, wantOK := refBestAlternative(NewRouter(tc.g), s, tgt, tc.w, ref[0])
			gotAlt, gotOK := froz.BestAlternativeWithin(s, tgt, tc.w, ref[0], pot, math.Inf(1))
			perCallAlt, perCallOK := NewRouter(tc.g).BestAlternativeWithin(s, tgt, tc.w, ref[0], pot, math.Inf(1))
			tx.Rollback()
			ok := samePath(perCallAlt, gotAlt, perCallOK, gotOK)
			if tied {
				ok = ok && gotOK == wantOK && (!gotOK || gotAlt.Length == wantAlt.Length)
			} else {
				ok = ok && samePath(gotAlt, wantAlt, gotOK, wantOK)
			}
			if !ok {
				t.Logf("seed %d %s: BestAlternative under cuts mismatch", seed, tc.name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// sameLengths reports whether two path lists have bit-identical length
// sequences.
func sameLengths(got, want []Path) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d paths, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Length != want[i].Length {
			return fmt.Errorf("path %d: length %v, want %v", i, got[i].Length, want[i].Length)
		}
	}
	return nil
}

// TestFrozenDisableEdgeOverlay locks in the no-rebuild contract: toggling
// edges between queries must be visible to the kernels through the
// aliased disabled flags, with the snapshot pointer unchanged.
func TestFrozenDisableEdgeOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		g, w := randomTieFreeGraph(rng)
		n := g.NumNodes()
		s := NodeID(rng.Intn(n))
		tgt := NodeID(rng.Intn(n))

		froz := frozenRouter(g, w)
		snap := froz.Snapshot()
		ref := NewRouter(g)
		ref.grow()
		ref.clearBans()

		p, ok := froz.ShortestPath(s, tgt, w)
		if !ok || len(p.Edges) == 0 {
			continue
		}
		// Attack-round pattern: disable an edge on the current shortest
		// path, re-query, restore.
		cut := p.Edges[rng.Intn(len(p.Edges))]
		g.DisableEdge(cut)
		lp, lok := refShortest(ref, s, tgt, w)
		fp, fok := froz.ShortestPath(s, tgt, w)
		g.EnableEdge(cut)
		if !samePath(fp, lp, fok, lok) {
			t.Fatalf("trial %d: post-disable mismatch: %v/%v vs %v/%v", trial, fp, fok, lp, lok)
		}
		if fok && fp.HasEdge(cut) {
			t.Fatalf("trial %d: kernel traversed the disabled edge %d", trial, cut)
		}
		if froz.Snapshot() != snap {
			t.Fatalf("trial %d: DisableEdge forced a snapshot rebuild", trial)
		}
		// After restore the original answer comes back.
		fp, fok = froz.ShortestPath(s, tgt, w)
		if !samePath(fp, p, fok, true) {
			t.Fatalf("trial %d: post-enable answer differs from original", trial)
		}
	}
}

// TestFrozenSnapshotInvalidation: adding topology must bump the
// generation, invalidate the snapshot, and make the router rebuild it
// transparently on the next query — observing the new edge.
func TestFrozenSnapshotInvalidation(t *testing.T) {
	g := New(3)
	e01 := g.MustAddEdge(0, 1)
	e12 := g.MustAddEdge(1, 2)
	weights := map[EdgeID]float64{e01: 5, e12: 5}
	w := func(e EdgeID) float64 { return weights[e] }

	r := frozenRouter(g, w)
	old := r.Snapshot()
	if !old.Valid() {
		t.Fatal("fresh snapshot invalid")
	}
	if p, ok := r.ShortestPath(0, 2, w); !ok || p.Length != 10 {
		t.Fatalf("pre-mutation path: %v %v", p, ok)
	}

	shortcut := g.MustAddEdge(0, 2)
	weights[shortcut] = 1
	if old.Valid() {
		t.Fatal("snapshot still valid after AddEdge")
	}
	p, ok := r.ShortestPath(0, 2, w)
	if !ok || p.Length != 1 || len(p.Edges) != 1 || p.Edges[0] != shortcut {
		t.Fatalf("post-mutation path did not use the new edge: %v %v", p, ok)
	}
	if r.Snapshot() == old || !r.Snapshot().Valid() {
		t.Fatal("router did not rebuild the stale snapshot")
	}
}

// TestBetweennessParallelMatchesSerial: bitwise equality with the
// textbook serial Brandes (refEdgeBetweenness) for EdgeBetweenness and
// several worker counts, with sampling, normalization, and disabled edges
// in the mix.
func TestBetweennessParallelMatchesSerial(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, tc := range testGraphs(rng) {
			opts := BetweennessOptions{Normalize: rng.Intn(2) == 0}
			if rng.Intn(2) == 0 {
				n := tc.g.NumNodes()
				k := 1 + rng.Intn(n)
				for _, i := range rng.Perm(n)[:k] {
					opts.Sources = append(opts.Sources, NodeID(i))
				}
			}
			want := refEdgeBetweenness(tc.g, tc.w, opts)
			runs := map[string][]float64{"EdgeBetweenness": EdgeBetweenness(tc.g, tc.w, opts)}
			snap := Freeze(tc.g, tc.w)
			for _, workers := range []int{1, 2, 5} {
				got, err := BetweennessParallel(t.Context(), snap, opts, workers)
				if err != nil {
					t.Logf("seed %d %s workers=%d: %v", seed, tc.name, workers, err)
					return false
				}
				runs[fmt.Sprintf("workers=%d", workers)] = got
			}
			for name, got := range runs {
				for e := range want {
					if got[e] != want[e] {
						t.Logf("seed %d %s %s: edge %d: %v vs %v (bit-identical required)",
							seed, tc.name, name, e, got[e], want[e])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestFrozenSpurBansStayRouterLocal: two routers sharing one snapshot
// must not see each other's ban overlays — the overlay is per-router
// epoch state, not snapshot state.
func TestFrozenSpurBansStayRouterLocal(t *testing.T) {
	g, w := gridGraph(3, 4)
	snap := Freeze(g, w)
	r1 := NewRouter(g)
	r1.UseSnapshot(snap)
	r2 := NewRouter(g)
	r2.UseSnapshot(snap)

	unbanned, ok := r2.ShortestPath(0, 11, w)
	if !ok {
		t.Fatal("grid corner unreachable")
	}
	// Ban every node of r2's path on r1; r2 must be unaffected.
	p1, ok1 := r1.ShortestPathAvoiding(0, 11, w, unbanned.Nodes[1:len(unbanned.Nodes)-1])
	p2, ok2 := r2.ShortestPath(0, 11, w)
	if !samePath(p2, unbanned, ok2, true) {
		t.Fatalf("r1's bans leaked into r2: %v %v", p2, ok2)
	}
	if ok1 {
		for _, nd := range unbanned.Nodes[1 : len(unbanned.Nodes)-1] {
			for _, got := range p1.Nodes {
				if got == nd {
					t.Fatalf("avoiding query visited banned node %d", nd)
				}
			}
		}
	}
}

// TestFreezeWeightTable: the materialized weight array must agree with
// the weight function on every edge, and the reverse arrays must mirror
// the forward ones.
func TestFreezeWeightTable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, w := randomTieFreeGraph(rng)
	snap := Freeze(g, w)
	if snap.NumNodes() != g.NumNodes() || snap.NumEdges() != g.NumEdges() {
		t.Fatalf("snapshot dims %d/%d, graph %d/%d", snap.NumNodes(), snap.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for e := 0; e < g.NumEdges(); e++ {
		if snap.Weight(EdgeID(e)) != w(EdgeID(e)) {
			t.Fatalf("edge %d: materialized weight %v, want %v", e, snap.Weight(EdgeID(e)), w(EdgeID(e)))
		}
	}
	// Forward and reverse slot counts must both equal the edge count, and
	// each slot must be consistent with the arc table.
	for u := 0; u < g.NumNodes(); u++ {
		out := g.OutEdges(NodeID(u))
		lo, hi := snap.fwdOff[u], snap.fwdOff[u+1]
		if int(hi-lo) != len(out) {
			t.Fatalf("node %d: %d fwd slots, want %d", u, hi-lo, len(out))
		}
		for i, e := range out {
			slot := lo + int32(i)
			if EdgeID(snap.fwdEdge[slot]) != e || NodeID(snap.fwdTo[slot]) != g.To(e) || snap.fwdW[slot] != w(e) {
				t.Fatalf("node %d slot %d inconsistent", u, i)
			}
		}
		in := g.InEdges(NodeID(u))
		lo, hi = snap.revOff[u], snap.revOff[u+1]
		if int(hi-lo) != len(in) {
			t.Fatalf("node %d: %d rev slots, want %d", u, hi-lo, len(in))
		}
		for i, e := range in {
			slot := lo + int32(i)
			if EdgeID(snap.revEdge[slot]) != e || NodeID(snap.revFrom[slot]) != g.From(e) || snap.revW[slot] != w(e) {
				t.Fatalf("node %d rev slot %d inconsistent", u, i)
			}
		}
	}
	// Refresh on a valid snapshot is the identity; after topology moves it
	// is a rebuild.
	if snap.Refresh() != snap {
		t.Fatal("Refresh rebuilt a valid snapshot")
	}
	g.AddNode()
	if snap.Refresh() == snap || snap.Valid() {
		t.Fatal("Refresh did not rebuild a stale snapshot")
	}
}

// TestFrozenDistancesBellmanFord cross-checks the frozen full sweep
// against the independent Bellman-Ford oracle.
func TestFrozenDistancesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		g, w := randomTieFreeGraph(rng)
		weights := make([]float64, g.NumEdges())
		for e := range weights {
			weights[e] = w(EdgeID(e))
		}
		s := NodeID(rng.Intn(g.NumNodes()))
		want := bellmanFord(g, s, weights)
		got := frozenRouter(g, w).DistancesFrom(s, w)
		for v := range want {
			if got[v] != want[v] && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("trial %d node %d: %v, want %v", trial, v, got[v], want[v])
			}
		}
	}
}

// TestSnapshotReweight: Reweight rewrites exactly the named edges — in
// the per-edge table and in their forward and reverse slots, found by
// edge ID so each of several parallel edges keeps its own weight — and
// leaves every other edge at its frozen weight. Queries afterwards run on
// the new weights.
func TestSnapshotReweight(t *testing.T) {
	g := New(3)
	a := g.MustAddEdge(0, 1)
	b := g.MustAddEdge(0, 1) // parallel to a
	c := g.MustAddEdge(0, 1) // parallel to a and b
	d := g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	weights := []float64{5, 6, 7, 1, 9}
	w := func(e EdgeID) float64 { return weights[e] }
	r := frozenRouter(g, w)
	snap := r.Snapshot()
	if p, ok := r.ShortestPath(0, 2, w); !ok || p.Length != 6 || p.Edges[0] != a {
		t.Fatalf("before Reweight: %v %v, want 6 via edge %d", p, ok, a)
	}

	weights[a], weights[c] = 20, 2
	snap.Reweight([]EdgeID{a, c})
	fresh := Freeze(g, w)
	for i := range fresh.w {
		if snap.w[i] != fresh.w[i] || snap.fwdW[i] != fresh.fwdW[i] || snap.revW[i] != fresh.revW[i] {
			t.Fatalf("slot/edge %d: reweighted (%v, %v, %v), fresh Freeze (%v, %v, %v)", i,
				snap.w[i], snap.fwdW[i], snap.revW[i], fresh.w[i], fresh.fwdW[i], fresh.revW[i])
		}
	}
	ref := NewRouter(g)
	ref.grow()
	ref.clearBans()
	want, wantOK := refShortest(ref, 0, 2, w)
	got, ok := r.ShortestPath(0, 2, w)
	if !samePath(got, want, ok, wantOK) || got.Length != 3 || got.Edges[0] != c || got.Edges[1] != d {
		t.Fatalf("after Reweight: %v %v, want %v (3 via edges %d, %d)", got, ok, want, c, d)
	}
	weights[b] = 0.5 // changed but never reweighted: the snapshot keeps 6
	if snap.Weight(b) != 6 {
		t.Fatalf("edge %d: snapshot weight %v, want the frozen 6", b, snap.Weight(b))
	}
}
