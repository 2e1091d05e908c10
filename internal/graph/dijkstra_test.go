package graph

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// diamond builds the graph 0->1->3, 0->2->3 with configurable weights.
func diamond(w01, w13, w02, w23 float64) (*Graph, WeightFunc) {
	g := New(4)
	weights := []float64{w01, w13, w02, w23}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(2, 3)
	return g, func(e EdgeID) float64 { return weights[e] }
}

func TestShortestPathBasic(t *testing.T) {
	g, w := diamond(1, 1, 5, 5)
	r := NewRouter(g)
	p, ok := r.ShortestPath(0, 3, w)
	if !ok {
		t.Fatal("ShortestPath found no path")
	}
	if p.Length != 2 {
		t.Errorf("Length = %v, want 2", p.Length)
	}
	wantNodes := []NodeID{0, 1, 3}
	if len(p.Nodes) != len(wantNodes) {
		t.Fatalf("Nodes = %v, want %v", p.Nodes, wantNodes)
	}
	for i := range wantNodes {
		if p.Nodes[i] != wantNodes[i] {
			t.Fatalf("Nodes = %v, want %v", p.Nodes, wantNodes)
		}
	}
	if err := p.Validate(g); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestShortestPathTrivial(t *testing.T) {
	g := New(1)
	r := NewRouter(g)
	p, ok := r.ShortestPath(0, 0, func(EdgeID) float64 { return 1 })
	if !ok {
		t.Fatal("s == t should be reachable")
	}
	if !p.Empty() && (p.Length != 0 || p.Hops() != 0) {
		t.Errorf("trivial path = %v, want empty zero-length", p)
	}
	if p.Source() != 0 || p.Target() != 0 {
		t.Errorf("trivial path endpoints = %d, %d, want 0, 0", p.Source(), p.Target())
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	r := NewRouter(g)
	if _, ok := r.ShortestPath(0, 2, func(EdgeID) float64 { return 1 }); ok {
		t.Error("found path to unreachable node")
	}
}

func TestShortestPathInvalidNodes(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1)
	r := NewRouter(g)
	if _, ok := r.ShortestPath(-1, 1, func(EdgeID) float64 { return 1 }); ok {
		t.Error("negative source accepted")
	}
	if _, ok := r.ShortestPath(0, 7, func(EdgeID) float64 { return 1 }); ok {
		t.Error("out-of-range target accepted")
	}
}

func TestShortestPathRespectsDisabled(t *testing.T) {
	g, w := diamond(1, 1, 5, 5)
	r := NewRouter(g)
	g.DisableEdge(0) // kill 0->1
	p, ok := r.ShortestPath(0, 3, w)
	if !ok {
		t.Fatal("no path after disabling one branch")
	}
	if p.Length != 10 {
		t.Errorf("Length = %v, want 10 (detour)", p.Length)
	}
	g.EnableEdge(0)
	p, _ = r.ShortestPath(0, 3, w)
	if p.Length != 2 {
		t.Errorf("Length after re-enable = %v, want 2", p.Length)
	}
}

func TestShortestPathDirected(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1)
	r := NewRouter(g)
	w := func(EdgeID) float64 { return 1 }
	if _, ok := r.ShortestPath(1, 0, w); ok {
		t.Error("traversed directed edge backwards")
	}
}

func TestShortestPathPrefersParallelCheaperEdge(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1) // weight 9
	cheap := g.MustAddEdge(0, 1)
	weights := []float64{9, 2}
	r := NewRouter(g)
	p, ok := r.ShortestPath(0, 1, func(e EdgeID) float64 { return weights[e] })
	if !ok || p.Length != 2 || p.Edges[0] != cheap {
		t.Errorf("path = %+v, want single edge %d with length 2", p, cheap)
	}
}

func TestDistancesFrom(t *testing.T) {
	g, w := diamond(1, 1, 5, 5)
	r := NewRouter(g)
	d := r.DistancesFrom(0, w)
	want := []float64{0, 1, 5, 2}
	for i, wd := range want {
		if d[i] != wd {
			t.Errorf("dist[%d] = %v, want %v", i, d[i], wd)
		}
	}
	// Unreachable node.
	g2 := New(2)
	d2 := NewRouter(g2).DistancesFrom(0, w)
	if !math.IsInf(d2[1], 1) {
		t.Errorf("dist to isolated node = %v, want +Inf", d2[1])
	}
}

func TestRouterReuseAcrossGraphGrowth(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1)
	r := NewRouter(g)
	w := func(EdgeID) float64 { return 1 }
	if _, ok := r.ShortestPath(0, 1, w); !ok {
		t.Fatal("initial query failed")
	}
	c := g.AddNode()
	g.MustAddEdge(1, c)
	p, ok := r.ShortestPath(0, c, w)
	if !ok || p.Length != 2 {
		t.Errorf("after growth: path = %+v, ok = %v, want length 2", p, ok)
	}
}

// randomGraph builds a connected-ish random digraph with n nodes and ~m
// extra random edges, returning integer-valued weights (exact float math).
func randomGraph(rng *rand.Rand, n, m int) (*Graph, []float64) {
	g := New(n)
	var weights []float64
	addEdge := func(a, b NodeID) {
		g.MustAddEdge(a, b)
		weights = append(weights, float64(1+rng.Intn(20)))
	}
	// Random spanning arborescence-ish chain for base connectivity.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		addEdge(NodeID(perm[i-1]), NodeID(perm[i]))
	}
	for i := 0; i < m; i++ {
		addEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return g, weights
}

// bellmanFord is the test oracle for Dijkstra.
func bellmanFord(g *Graph, s NodeID, weights []float64) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for e := 0; e < g.NumEdges(); e++ {
			if g.EdgeDisabled(EdgeID(e)) {
				continue
			}
			arc := g.Arc(EdgeID(e))
			if nd := dist[arc.From] + weights[e]; nd < dist[arc.To] {
				dist[arc.To] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraMatchesBellmanFordProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g, weights := randomGraph(rng, n, 2*n)
		w := func(e EdgeID) float64 { return weights[e] }
		s := NodeID(rng.Intn(n))

		r := NewRouter(g)
		got := r.DistancesFrom(s, w)
		want := bellmanFord(g, s, weights)
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: dist[%d] = %v, oracle %v", seed, i, got[i], want[i])
				return false
			}
		}
		// Spot-check path reconstruction consistency.
		tgt := NodeID(rng.Intn(n))
		if p, ok := r.ShortestPath(s, tgt, w); ok {
			if p.Length != want[tgt] {
				return false
			}
			if err := p.Validate(g); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		} else if !math.IsInf(want[tgt], 1) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestShortestPathInterleavesWithReversePotential alternates forward
// point queries and reverse sweeps on one router: the two keep separate
// scratch arrays and heaps, so neither may disturb the other's answers.
func TestShortestPathInterleavesWithReversePotential(t *testing.T) {
	g, w := gridGraph(6, 6)
	r := NewRouter(g)
	for i := 0; i < 20; i++ {
		s := NodeID(i % 36)
		d := NodeID((i*5 + 7) % 36)
		got, ok := r.ShortestPath(s, d, w)
		want, wantOK := NewRouter(g).ShortestPath(s, d, w)
		if !samePath(got, want, ok, wantOK) {
			t.Fatalf("iteration %d: ShortestPath %v/%v, want %v/%v", i, got, ok, want, wantOK)
		}
		pot := r.ReversePotential(d, w)
		wantPot := NewRouter(g).ReversePotential(d, w)
		for v := 0; v < g.NumNodes(); v++ {
			if pot.At(NodeID(v)) != wantPot.At(NodeID(v)) {
				t.Fatalf("iteration %d: potential at %d = %v, want %v", i, v, pot.At(NodeID(v)), wantPot.At(NodeID(v)))
			}
		}
		if pot.At(s) != got.Length {
			t.Fatalf("iteration %d: potential at source %v, path length %v", i, pot.At(s), got.Length)
		}
	}
}

// TestConcurrentRouters verifies the documented concurrency contract: one
// Router per goroutine over a shared immutable graph is race-free (run
// with -race).
func TestConcurrentRouters(t *testing.T) {
	g, w := gridGraph(10, 10)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r := NewRouter(g)
			for i := 0; i < 50; i++ {
				s := NodeID((i*k + 3) % 100)
				d := NodeID((i + k*13) % 100)
				if _, ok := r.ShortestPath(s, d, w); !ok {
					errs <- "grid query failed"
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
