package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// multiGraph builds a two-destination network:
//
//	s0 --fast0--> d   and   s1 --fast1--> d
//	s0 --slow0--> d   and   s1 --slow1--> d
//
// Node layout: s0=0, s1=1, d=2, m0=3 (fast mid for s0), m1=4 (fast mid for
// s1), n0=5 (slow mid for s0), n1=6 (slow mid for s1).
func multiGraph(t *testing.T) (*weighted, []VictimSpec) {
	t.Helper()
	w := &weighted{g: graph.New(7)}
	// s0 routes.
	w.addEdge(t, 0, 3, 1, 1)
	w.addEdge(t, 3, 2, 1, 1)
	e03 := w.addEdge(t, 0, 5, 3, 1)
	e04 := w.addEdge(t, 5, 2, 3, 1)
	// s1 routes.
	w.addEdge(t, 1, 4, 1, 1)
	w.addEdge(t, 4, 2, 1, 1)
	e13 := w.addEdge(t, 1, 6, 3, 1)
	e14 := w.addEdge(t, 6, 2, 3, 1)

	victims := []VictimSpec{
		{Source: 0, Dest: 2, PStar: graph.Path{Nodes: []graph.NodeID{0, 5, 2}, Edges: []graph.EdgeID{e03, e04}}},
		{Source: 1, Dest: 2, PStar: graph.Path{Nodes: []graph.NodeID{1, 6, 2}, Edges: []graph.EdgeID{e13, e14}}},
	}
	return w, victims
}

func TestRunMultiForcesAllVictims(t *testing.T) {
	for _, alg := range []Algorithm{AlgGreedyPathCover, AlgLPPathCover} {
		t.Run(alg.String(), func(t *testing.T) {
			w, victims := multiGraph(t)
			p := MultiProblem{G: w.g, Victims: victims, Weight: w.wf(), Cost: w.cf()}
			res, err := RunMulti(alg, p, Options{})
			if err != nil {
				t.Fatalf("RunMulti: %v", err)
			}
			// Both fast routes must be severed: 2 cuts (one per victim).
			if len(res.Removed) != 2 {
				t.Errorf("removed %v, want 2 cuts", res.Removed)
			}
			// Verify per-victim exclusivity after applying the cut.
			Apply(w.g, res.Removed)
			r := graph.NewRouter(w.g)
			for i, v := range victims {
				sp, ok := r.ShortestPath(v.Source, v.Dest, w.wf())
				if !ok || !sp.SameEdges(v.PStar) {
					t.Errorf("victim %d path after attack = %v, want its p*", i, sp)
				}
			}
			Restore(w.g, res.Removed)
			if w.g.NumEnabledEdges() != w.g.NumEdges() {
				t.Error("graph not restored")
			}
		})
	}
}

func TestRunMultiSharedCutIsCheaperThanSeparate(t *testing.T) {
	// Two victims share the same fast corridor: one cut should serve both.
	//
	//	0 -> 2 -> 3 (fast shared tail 2->3)
	//	1 -> 2 -> 3
	// alternatives: 0 -> 3 direct (slow), 1 -> 3 direct (slow).
	w := &weighted{g: graph.New(4)}
	w.addEdge(t, 0, 2, 1, 1)
	e23 := w.addEdge(t, 2, 3, 1, 5) // shared fast tail
	w.addEdge(t, 1, 2, 1, 1)
	a0 := w.addEdge(t, 0, 3, 9, 1)
	a1 := w.addEdge(t, 1, 3, 9, 1)

	victims := []VictimSpec{
		{Source: 0, Dest: 3, PStar: graph.Path{Nodes: []graph.NodeID{0, 3}, Edges: []graph.EdgeID{a0}}},
		{Source: 1, Dest: 3, PStar: graph.Path{Nodes: []graph.NodeID{1, 3}, Edges: []graph.EdgeID{a1}}},
	}
	p := MultiProblem{G: w.g, Victims: victims, Weight: w.wf(), Cost: w.cf()}
	res, err := RunMulti(AlgGreedyPathCover, p, Options{})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	// Cutting the shared tail edge (cost 5) serves both victims; cutting
	// per-victim heads costs 2 total. Either is feasible; the cover should
	// find the cheaper 2-cut... but a single shared cut also covers both
	// constraints at cost 5. GreedyCover coverage/cost: shared edge covers
	// 2 paths at cost 5 (0.4/unit); head edges cover 1 path at cost 1
	// (1/unit): heads win. Verify total cost is minimal (2).
	if res.TotalCost > 2+1e-9 {
		t.Errorf("total cost = %v, want 2 (two cheap head cuts)", res.TotalCost)
	}
	if len(res.Removed) == 1 && res.Removed[0] == e23 {
		t.Error("cover picked the expensive shared edge")
	}
}

func TestRunMultiInfeasibleWhenPStarsConflict(t *testing.T) {
	// Victim 1's p* IS victim 0's violating path and cannot be cut.
	// s=0, d=2; routes: 0->1->2 (fast, also victim 1's p* ... construct:
	// victim 0: 0->2 forced to slow direct; victim 1: 0->2 forced to the
	// fast route. The fast route must be cut for victim 0 but is protected
	// by victim 1.
	w := &weighted{g: graph.New(3)}
	e01 := w.addEdge(t, 0, 1, 1, 1)
	e12 := w.addEdge(t, 1, 2, 1, 1)
	direct := w.addEdge(t, 0, 2, 9, 1)

	victims := []VictimSpec{
		{Source: 0, Dest: 2, PStar: graph.Path{Nodes: []graph.NodeID{0, 2}, Edges: []graph.EdgeID{direct}}},
		{Source: 0, Dest: 2, PStar: graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []graph.EdgeID{e01, e12}}},
	}
	p := MultiProblem{G: w.g, Victims: victims, Weight: w.wf(), Cost: w.cf()}
	if _, err := RunMulti(AlgGreedyPathCover, p, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestRunMultiBudget(t *testing.T) {
	w, victims := multiGraph(t)
	p := MultiProblem{G: w.g, Victims: victims, Weight: w.wf(), Cost: w.cf(), Budget: 1}
	if _, err := RunMulti(AlgGreedyPathCover, p, Options{}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestRunMultiValidation(t *testing.T) {
	w, victims := multiGraph(t)
	tests := []struct {
		name string
		p    MultiProblem
		alg  Algorithm
	}{
		{"nil graph", MultiProblem{Victims: victims, Weight: w.wf(), Cost: w.cf()}, AlgGreedyPathCover},
		{"no victims", MultiProblem{G: w.g, Weight: w.wf(), Cost: w.cf()}, AlgGreedyPathCover},
		{"nil weight", MultiProblem{G: w.g, Victims: victims, Cost: w.cf()}, AlgGreedyPathCover},
		{"naive algorithm", MultiProblem{G: w.g, Victims: victims, Weight: w.wf(), Cost: w.cf()}, AlgGreedyEdge},
		{"bad victim endpoints", MultiProblem{
			G: w.g,
			Victims: []VictimSpec{{
				Source: 1, Dest: 2,
				PStar: victims[0].PStar, // runs 0->2, not 1->2
			}},
			Weight: w.wf(), Cost: w.cf(),
		}, AlgGreedyPathCover},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := RunMulti(tt.alg, tt.p, Options{}); !errors.Is(err, ErrInvalidProblem) {
				t.Errorf("err = %v, want ErrInvalidProblem", err)
			}
		})
	}
}

func TestRunMultiAlreadyExclusive(t *testing.T) {
	w, victims := multiGraph(t)
	// Force the fast routes themselves: nothing to cut.
	fast := []VictimSpec{
		{Source: 0, Dest: 2, PStar: graph.Path{Nodes: []graph.NodeID{0, 3, 2}, Edges: []graph.EdgeID{0, 1}}},
		{Source: 1, Dest: 2, PStar: graph.Path{Nodes: []graph.NodeID{1, 4, 2}, Edges: []graph.EdgeID{4, 5}}},
	}
	_ = victims
	p := MultiProblem{G: w.g, Victims: fast, Weight: w.wf(), Cost: w.cf()}
	res, err := RunMulti(AlgLPPathCover, p, Options{})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if len(res.Removed) != 0 {
		t.Errorf("removed %v, want nothing", res.Removed)
	}
}

// TestRunMultiOneVictimMatchesRun pins the claim that the single-victim
// and multi-victim attacks are one constraint-generation loop: a one-victim
// RunMulti returns exactly what Run returns (every Result field but
// Runtime, bit for bit, and the same error), whether or not the Problem
// carries a cached snapshot and potential. Instances are random graphs and
// a small calibrated city under both weights and every cost.
func TestRunMultiOneVictimMatchesRun(t *testing.T) {
	compared, cuts := 0, 0
	check := func(t *testing.T, name string, p Problem, seed int64) {
		t.Helper()
		compared++
		mp := MultiProblem{
			G:       p.G,
			Victims: []VictimSpec{{Source: p.Source, Dest: p.Dest, PStar: p.PStar}},
			Weight:  p.Weight, Cost: p.Cost, Budget: p.Budget,
		}
		cached := p
		cached.Snapshot = graph.Freeze(p.G, p.Weight)
		cached.Potential = graph.NewRouter(p.G).ReversePotential(p.Dest, p.Weight)
		for _, alg := range []Algorithm{AlgGreedyPathCover, AlgLPPathCover} {
			opts := Options{Seed: seed}
			got, errGot := RunMulti(alg, mp, opts)
			for variant, pv := range map[string]Problem{"nil": p, "cached": cached} {
				want, errWant := Run(alg, pv, opts)
				if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
					t.Fatalf("%s %v (%s): RunMulti err %v, Run err %v", name, alg, variant, errGot, errWant)
				}
				got.Runtime, want.Runtime = 0, 0
				if !reflect.DeepEqual(got, want) || math.Float64bits(got.TotalCost) != math.Float64bits(want.TotalCost) {
					t.Fatalf("%s %v (%s): RunMulti %+v, Run %+v", name, alg, variant, got, want)
				}
			}
			if len(got.Removed) > 0 {
				cuts++
			}
		}
	}

	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 8 + rng.Intn(12)
			w := &weighted{g: graph.New(n)}
			for i := 0; i < n; i++ {
				w.weight = append(w.weight, float64(1+rng.Intn(9)))
				w.cost = append(w.cost, float64(1+rng.Intn(4)))
				w.g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
			}
			for i := 0; i < 2*n; i++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a == b {
					continue
				}
				w.weight = append(w.weight, float64(1+rng.Intn(9)))
				w.cost = append(w.cost, float64(1+rng.Intn(4)))
				w.g.MustAddEdge(graph.NodeID(a), graph.NodeID(b))
			}
			s, d := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if s == d {
				continue
			}
			pstar, err := PStarByRank(w.g, s, d, 2+rng.Intn(6), w.wf())
			if err != nil {
				continue
			}
			// Every fourth instance carries a tight budget, so the budget
			// error path is compared too.
			budget := 0.0
			if seed%4 == 0 {
				budget = 2
			}
			p := Problem{G: w.g, Source: s, Dest: d, PStar: pstar, Weight: w.wf(), Cost: w.cf(), Budget: budget}
			check(t, fmt.Sprintf("seed %d", seed), p, seed)
		}
	})

	t.Run("city", func(t *testing.T) {
		net, err := citygen.Build(citygen.Boston, 0.03, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		hospitals := net.POIsOfKind(citygen.KindHospital)
		for _, wt := range roadnet.WeightTypes() {
			for _, ct := range roadnet.CostTypes() {
				for k := 0; k < 2; k++ {
					s := graph.NodeID(rng.Intn(net.NumIntersections()))
					d := hospitals[k].Node
					p, err := NewProblem(net, s, d, 10, wt, ct, 0)
					if err != nil {
						continue
					}
					check(t, fmt.Sprintf("%v/%v %d->%d", wt, ct, s, d), p, 1)
				}
			}
		}
	})

	// Guard against a vacuous pass: most instances must be attackable,
	// and most attacks must actually cut something.
	if !t.Failed() && (compared < 30 || cuts < compared) {
		t.Fatalf("compared %d instances with %d non-empty cuts; the generators no longer exercise the loop", compared, cuts)
	}
}
