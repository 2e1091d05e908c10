package sim

import (
	"errors"
	"math"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/geo"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// corridor builds a two-route network:
//
//	fast: 0 ->1-> 3  (two segments, 10s each)
//	slow: 0 ->2-> 3  (two segments, 30s each)
func corridor(t *testing.T) (*roadnet.Network, [4]graph.NodeID, graph.EdgeID) {
	t.Helper()
	n := roadnet.NewNetwork("corridor")
	a := n.AddIntersection(geo.Point{Lat: 42.000, Lon: -71.000})
	b := n.AddIntersection(geo.Point{Lat: 42.001, Lon: -71.000})
	c := n.AddIntersection(geo.Point{Lat: 42.000, Lon: -71.001})
	d := n.AddIntersection(geo.Point{Lat: 42.001, Lon: -71.001})
	add := func(x, y graph.NodeID, length, speed float64) graph.EdgeID {
		t.Helper()
		e, err := n.AddRoad(x, y, roadnet.Road{LengthM: length, SpeedMS: speed})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	fast1 := add(a, b, 100, 10) // 10 s
	add(b, d, 100, 10)          // 10 s
	add(a, c, 300, 10)          // 30 s
	add(c, d, 300, 10)          // 30 s
	return n, [4]graph.NodeID{a, b, c, d}, fast1
}

func TestRunNoBlockagesTakesFastRoute(t *testing.T) {
	net, nodes, _ := corridor(t)
	res, err := Run(Config{
		Net:      net,
		Vehicles: []Vehicle{{ID: 1, Source: nodes[0], Dest: nodes[3]}},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	v := res.Vehicles[0]
	if !v.Arrived || v.Stranded {
		t.Fatalf("vehicle = %+v", v)
	}
	if math.Abs(v.TravelTimeS-20) > 1e-9 {
		t.Errorf("travel time = %v, want 20", v.TravelTimeS)
	}
	if v.Hops != 2 || v.Reroutes != 0 {
		t.Errorf("hops/reroutes = %d/%d, want 2/0", v.Hops, v.Reroutes)
	}
	if res.ArrivedCount != 1 {
		t.Errorf("arrived = %d", res.ArrivedCount)
	}
}

func TestRunPreDepartureBlockageForcesSlowRoute(t *testing.T) {
	net, nodes, fast1 := corridor(t)
	res, err := Run(Config{
		Net:       net,
		Vehicles:  []Vehicle{{ID: 1, Source: nodes[0], Dest: nodes[3]}},
		Blockages: []Blockage{{Edge: fast1, AtS: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Vehicles[0]
	if !v.Arrived || math.Abs(v.TravelTimeS-60) > 1e-9 {
		t.Errorf("vehicle = %+v, want 60s via slow route", v)
	}
	// Network restored after Run.
	if net.Graph().NumEnabledEdges() != net.NumSegments() {
		t.Error("Run left blockages applied")
	}
}

func TestRunMidTripBlockageTriggersReroute(t *testing.T) {
	net, nodes, _ := corridor(t)
	g := net.Graph()
	// Block the second fast segment (b -> d) at t=5, while the vehicle is
	// still traversing a -> b. It must re-route at b: back? There is no
	// edge b->a, so it gets stranded... Add recovery edges b->a.
	if _, err := net.AddRoad(nodes[1], nodes[0], roadnet.Road{LengthM: 100, SpeedMS: 10}); err != nil {
		t.Fatal(err)
	}
	bd := g.FindEdge(nodes[1], nodes[3])
	res, err := Run(Config{
		Net:       net,
		Vehicles:  []Vehicle{{ID: 7, Source: nodes[0], Dest: nodes[3]}},
		Blockages: []Blockage{{Edge: bd, AtS: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Vehicles[0]
	if !v.Arrived {
		t.Fatalf("vehicle = %+v", v)
	}
	if v.Reroutes == 0 {
		t.Error("no reroute recorded after mid-trip blockage")
	}
	// 10s out, 10s back, 30+30 slow route = 80.
	if math.Abs(v.TravelTimeS-80) > 1e-9 {
		t.Errorf("travel time = %v, want 80", v.TravelTimeS)
	}
}

func TestRunStranded(t *testing.T) {
	net, nodes, fast1 := corridor(t)
	g := net.Graph()
	slow1 := g.FindEdge(nodes[0], nodes[2])
	res, err := Run(Config{
		Net:      net,
		Vehicles: []Vehicle{{ID: 1, Source: nodes[0], Dest: nodes[3]}},
		Blockages: []Blockage{
			{Edge: fast1, AtS: 0},
			{Edge: slow1, AtS: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Vehicles[0]
	if v.Arrived || !v.Stranded {
		t.Errorf("vehicle = %+v, want stranded", v)
	}
	if res.ArrivedCount != 0 {
		t.Errorf("arrived = %d", res.ArrivedCount)
	}
}

func TestRunHorizon(t *testing.T) {
	net, nodes, _ := corridor(t)
	res, err := Run(Config{
		Net:      net,
		Vehicles: []Vehicle{{ID: 1, Source: nodes[0], Dest: nodes[3]}},
		HorizonS: 15, // fast route takes 20s: never arrives
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Vehicles[0].Arrived {
		t.Error("vehicle arrived past the horizon")
	}
}

func TestRunTrivialTrip(t *testing.T) {
	net, nodes, _ := corridor(t)
	res, err := Run(Config{
		Net:      net,
		Vehicles: []Vehicle{{ID: 1, Source: nodes[0], Dest: nodes[0], DepartS: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Vehicles[0]
	if !v.Arrived || v.TravelTimeS != 0 || v.Hops != 0 {
		t.Errorf("trivial trip = %+v", v)
	}
}

func TestRunValidation(t *testing.T) {
	net, nodes, _ := corridor(t)
	if _, err := Run(Config{Net: net}); !errors.Is(err, ErrNoVehicles) {
		t.Error("no-vehicle config accepted")
	}
	if _, err := Run(Config{}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := Run(Config{
		Net:      net,
		Vehicles: []Vehicle{{Source: nodes[0], Dest: 99}},
	}); err == nil {
		t.Error("invalid destination accepted")
	}
}

func TestRunMultipleVehiclesDeterministic(t *testing.T) {
	net, nodes, fast1 := corridor(t)
	cfg := Config{
		Net: net,
		Vehicles: []Vehicle{
			{ID: 1, Source: nodes[0], Dest: nodes[3], DepartS: 0},
			{ID: 2, Source: nodes[0], Dest: nodes[3], DepartS: 3},
			{ID: 3, Source: nodes[1], Dest: nodes[2], DepartS: 1},
		},
		Blockages: []Blockage{{Edge: fast1, AtS: 2}},
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Vehicles {
		if r1.Vehicles[i] != r2.Vehicles[i] {
			t.Fatalf("nondeterministic: %+v vs %+v", r1.Vehicles[i], r2.Vehicles[i])
		}
	}
	// Vehicle 1 departed before the blockage and uses the fast first hop;
	// vehicle 2 departed after and must take the slow route.
	if !r1.Vehicles[0].Arrived || !r1.Vehicles[1].Arrived {
		t.Fatal("vehicles did not arrive")
	}
	if r1.Vehicles[1].TravelTimeS <= r1.Vehicles[0].TravelTimeS {
		t.Errorf("post-blockage vehicle (%.0fs) not slower than pre-blockage (%.0fs)",
			r1.Vehicles[1].TravelTimeS, r1.Vehicles[0].TravelTimeS)
	}
}

// TestCompareAttackWithForcedRoute wires the simulator to the core attack:
// force p* (3rd shortest) on a synthetic city and verify the attacked fleet
// is delayed and every victim ends up on p*'s travel time.
func TestCompareAttackWithForcedRoute(t *testing.T) {
	net, err := citygen.Build(citygen.Chicago, 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := net.POIsOfKind(citygen.KindHospital)[0]
	w := net.Weight(roadnet.WeightTime)

	var (
		src   graph.NodeID
		pstar graph.Path
		found bool
	)
	for n := 0; n < net.NumIntersections() && !found; n++ {
		if graph.NodeID(n) == h.Node {
			continue
		}
		if p, err := core.PStarByRank(net.Graph(), graph.NodeID(n), h.Node, 5, w); err == nil {
			src, pstar, found = graph.NodeID(n), p, true
		}
	}
	if !found {
		t.Skip("no viable source at this scale")
	}
	prob := core.Problem{
		G: net.Graph(), Source: src, Dest: h.Node, PStar: pstar,
		Weight: w, Cost: net.Cost(roadnet.CostUniform),
	}
	attack, err := core.Run(core.AlgGreedyPathCover, prob, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var blocks []Blockage
	for _, e := range attack.Removed {
		blocks = append(blocks, Blockage{Edge: e, AtS: 0})
	}
	baseline, attacked, delay, err := CompareAttack(Config{
		Net:       net,
		Vehicles:  []Vehicle{{ID: 1, Source: src, Dest: h.Node}},
		Blockages: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.Vehicles[0].Arrived || !attacked.Vehicles[0].Arrived {
		t.Fatalf("vehicles did not arrive: %+v / %+v", baseline.Vehicles[0], attacked.Vehicles[0])
	}
	if delay < 0 {
		t.Errorf("delay = %v, want >= 0", delay)
	}
	// The attacked vehicle must travel exactly p*'s time (it re-routes
	// onto the forced alternative).
	if math.Abs(attacked.Vehicles[0].TravelTimeS-pstar.Length) > 1e-6 {
		t.Errorf("attacked travel time = %v, want p* length %v", attacked.Vehicles[0].TravelTimeS, pstar.Length)
	}
}

// TestMidRunBlockageReroutesThroughSnapshot: Run plans on the network's
// cached snapshot, so a blockage applied after departure reaches the
// router only through the snapshot's aliased disabled flags. The vehicle
// must follow its plan up to the blocked edge, re-plan there exactly once
// onto the best detour, and the snapshot must never be rebuilt.
func TestMidRunBlockageReroutesThroughSnapshot(t *testing.T) {
	net, err := citygen.Build(citygen.Chicago, 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	w := net.Weight(roadnet.WeightTime)
	snap := net.Snapshot(roadnet.WeightTime)
	src := graph.NodeID(0)
	dst := net.POIsOfKind(citygen.KindHospital)[0].Node
	plan, ok := net.Router().ShortestPath(src, dst, w)
	if !ok || len(plan.Edges) < 4 {
		t.Fatalf("free-flow plan %v/%v too short for a mid-run blockage", plan, ok)
	}
	k := len(plan.Edges) / 2
	blocked := plan.Edges[k]

	// Expected: the plan's first k edges, then the best detour from the
	// blocked edge's tail, computed on a per-call snapshot of the blocked
	// graph.
	g.DisableEdge(blocked)
	detour, ok := graph.NewRouter(g).ShortestPath(plan.Nodes[k], dst, w)
	g.EnableEdge(blocked)
	if !ok {
		t.Fatal("no detour around the blocked edge")
	}
	want := 0.0
	for _, e := range append(append([]graph.EdgeID(nil), plan.Edges[:k]...), detour.Edges...) {
		want += w(e)
	}

	res, err := Run(Config{
		Net:       net,
		Vehicles:  []Vehicle{{ID: 1, Source: src, Dest: dst}},
		Blockages: []Blockage{{Edge: blocked, AtS: w(plan.Edges[0]) / 2}}, // while on the first edge
	})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Vehicles[0]
	if !v.Arrived || v.Reroutes != 1 || v.Hops != k+len(detour.Edges) || v.TravelTimeS != want {
		t.Fatalf("vehicle %+v; want arrival after 1 reroute, %d hops, %v s", v, k+len(detour.Edges), want)
	}
	if net.Snapshot(roadnet.WeightTime) != snap {
		t.Fatal("the blockage forced a snapshot rebuild")
	}
	if g.EdgeDisabled(blocked) {
		t.Fatal("Run left the blockage applied")
	}
}
