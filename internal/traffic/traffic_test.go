package traffic

import (
	"container/heap"
	"errors"
	"math"
	"math/rand"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/geo"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// twoRoutes builds parallel routes between 0 and 3:
//
//	fast: 0-1-3 (2 x 100m @ 10 m/s = 20 s free flow), 1 lane
//	slow: 0-2-3 (2 x 150m @ 10 m/s = 30 s free flow), 2 lanes
func twoRoutes(t *testing.T) (*roadnet.Network, [4]graph.NodeID) {
	t.Helper()
	n := roadnet.NewNetwork("tworoutes")
	var ids [4]graph.NodeID
	pts := []geo.Point{
		{Lat: 42.000, Lon: -71.000},
		{Lat: 42.001, Lon: -71.000},
		{Lat: 41.999, Lon: -71.000},
		{Lat: 42.002, Lon: -71.000},
	}
	for i, p := range pts {
		ids[i] = n.AddIntersection(p)
	}
	add := func(a, b graph.NodeID, length float64, lanes int) {
		t.Helper()
		if _, err := n.AddRoad(a, b, roadnet.Road{LengthM: length, SpeedMS: 10, Lanes: lanes}); err != nil {
			t.Fatal(err)
		}
	}
	add(ids[0], ids[1], 100, 1)
	add(ids[1], ids[3], 100, 1)
	add(ids[0], ids[2], 150, 2)
	add(ids[2], ids[3], 150, 2)
	return n, ids
}

func TestCongestedTimeBPR(t *testing.T) {
	n, _ := twoRoutes(t)
	free := n.Road(0).TravelTimeS()
	if got := CongestedTime(n, 0, 0); got != free {
		t.Errorf("zero volume time = %v, want free flow %v", got, free)
	}
	// At volume == capacity the BPR multiplier is 1 + Alpha.
	cap0 := Capacity(n, 0)
	if cap0 != LaneCapacityVPH {
		t.Fatalf("capacity = %v, want %v", cap0, LaneCapacityVPH)
	}
	want := free * (1 + Alpha)
	if got := CongestedTime(n, 0, cap0); math.Abs(got-want) > 1e-9 {
		t.Errorf("at-capacity time = %v, want %v", got, want)
	}
	// Monotone in volume.
	if CongestedTime(n, 0, 2*cap0) <= CongestedTime(n, 0, cap0) {
		t.Error("congested time not monotone")
	}
}

func TestAssignIncrementalLowDemandUsesFastRoute(t *testing.T) {
	n, ids := twoRoutes(t)
	a, err := AssignIncremental(n, []Demand{{Source: ids[0], Dest: ids[3], VehiclesPerHour: 100}}, 4)
	if err != nil {
		t.Fatalf("AssignIncremental: %v", err)
	}
	// 100 vph barely congests a 1800 vph lane: everything on the fast
	// route.
	if a.Volumes[0] != 100 || a.Volumes[1] != 100 {
		t.Errorf("fast route volumes = %v, %v, want 100", a.Volumes[0], a.Volumes[1])
	}
	if a.Volumes[2] != 0 {
		t.Errorf("slow route carries %v, want 0", a.Volumes[2])
	}
	if a.Unrouted != 0 {
		t.Errorf("unrouted = %v", a.Unrouted)
	}
}

func TestAssignIncrementalHighDemandSpills(t *testing.T) {
	n, ids := twoRoutes(t)
	// 6000 vph >> one lane's capacity: congestion must push later slices
	// onto the slow route.
	a, err := AssignIncremental(n, []Demand{{Source: ids[0], Dest: ids[3], VehiclesPerHour: 6000}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Volumes[2] == 0 {
		t.Error("no spillover to the slow route under heavy demand")
	}
	if a.Volumes[0]+a.Volumes[2] != 6000 {
		t.Errorf("total leaving volume = %v, want 6000", a.Volumes[0]+a.Volumes[2])
	}
}

func TestAssignIncrementalValidation(t *testing.T) {
	n, ids := twoRoutes(t)
	if _, err := AssignIncremental(n, nil, 4); !errors.Is(err, ErrNoDemand) {
		t.Error("empty demand accepted")
	}
	if _, err := AssignIncremental(n, []Demand{{Source: ids[0], Dest: ids[3], VehiclesPerHour: -1}}, 4); err == nil {
		t.Error("negative demand accepted")
	}
	// Default slices.
	if _, err := AssignIncremental(n, []Demand{{Source: ids[0], Dest: ids[3], VehiclesPerHour: 10}}, 0); err != nil {
		t.Errorf("default slices: %v", err)
	}
}

func TestAssignIncrementalUnroutedDemand(t *testing.T) {
	n, ids := twoRoutes(t)
	a, err := AssignIncremental(n, []Demand{{Source: ids[3], Dest: ids[0], VehiclesPerHour: 50}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Unrouted != 50 {
		t.Errorf("unrouted = %v, want 50 (one-way network)", a.Unrouted)
	}
}

func TestAssignmentWeightAndSystemTime(t *testing.T) {
	n, ids := twoRoutes(t)
	a, err := AssignIncremental(n, []Demand{{Source: ids[0], Dest: ids[3], VehiclesPerHour: 1800}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := a.Weight(n)
	// Congested weight of a loaded edge exceeds free flow.
	if a.Volumes[0] > 0 && w(0) <= n.Road(0).TravelTimeS() {
		t.Error("congested weight not above free flow")
	}
	if got := a.TotalVehicleSeconds(n); got <= 0 {
		t.Errorf("system time = %v", got)
	}
	var zero Assignment
	if zero.Weight(n)(0) != n.Road(0).TravelTimeS() {
		t.Error("zero assignment weight != free flow")
	}
}

func TestAttackImpact(t *testing.T) {
	n, ids := twoRoutes(t)
	demands := []Demand{{Source: ids[0], Dest: ids[3], VehiclesPerHour: 1000}}
	// Cut the fast route's first edge.
	before, after, extra, stranded, err := AttackImpact(n, demands, []graph.EdgeID{0}, 4)
	if err != nil {
		t.Fatalf("AttackImpact: %v", err)
	}
	if before.Volumes[0] == 0 {
		t.Error("baseline ignores fast route")
	}
	if after.Volumes[0] != 0 {
		t.Error("attacked assignment still uses cut edge")
	}
	if after.Volumes[2] != 1000 {
		t.Errorf("attacked slow-route volume = %v, want 1000", after.Volumes[2])
	}
	if extra <= 0 {
		t.Errorf("extra vehicle-seconds = %v, want > 0", extra)
	}
	if stranded != 0 {
		t.Errorf("stranded = %v, want 0 (slow route available)", stranded)
	}
	// Graph restored.
	if n.Graph().NumEnabledEdges() != n.NumSegments() {
		t.Error("AttackImpact left the cut applied")
	}
	// Cutting both routes strands the demand.
	_, _, _, stranded, err = AttackImpact(n, demands, []graph.EdgeID{0, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stranded != 1000 {
		t.Errorf("stranded = %v, want 1000", stranded)
	}
}

// TestAttackUnderCongestedWeights runs the paper's attack with a
// congestion-aware objective: the attacker forces an alternative route
// where path metrics are congested TIME rather than free-flow TIME.
func TestAttackUnderCongestedWeights(t *testing.T) {
	net, err := citygen.Build(citygen.Chicago, 0.01, 6)
	if err != nil {
		t.Fatal(err)
	}
	h := net.POIsOfKind(citygen.KindHospital)[0]

	// Background traffic between the other hospitals.
	pois := net.POIsOfKind(citygen.KindHospital)
	demands := []Demand{
		{Source: pois[1].Node, Dest: pois[2].Node, VehiclesPerHour: 2500},
		{Source: pois[3].Node, Dest: pois[1].Node, VehiclesPerHour: 2500},
	}
	a, err := AssignIncremental(net, demands, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := a.Weight(net)

	var (
		src   graph.NodeID
		pstar graph.Path
		found bool
	)
	for nID := 0; nID < net.NumIntersections() && !found; nID++ {
		if graph.NodeID(nID) == h.Node {
			continue
		}
		if p, err := core.PStarByRank(net.Graph(), graph.NodeID(nID), h.Node, 4, w); err == nil {
			src, pstar, found = graph.NodeID(nID), p, true
		}
	}
	if !found {
		t.Skip("no viable source at this scale")
	}
	prob := core.Problem{
		G: net.Graph(), Source: src, Dest: h.Node, PStar: pstar,
		Weight: w, Cost: net.Cost(roadnet.CostUniform),
	}
	res, err := core.Run(core.AlgGreedyPathCover, prob, core.Options{})
	if err != nil {
		t.Fatalf("congested attack: %v", err)
	}
	core.Apply(net.Graph(), res.Removed)
	defer core.Restore(net.Graph(), res.Removed)
	sp, ok := graph.NewRouter(net.Graph()).ShortestPath(src, h.Node, w)
	if !ok || !sp.SameEdges(pstar) {
		t.Fatalf("p* not exclusive under congested weights")
	}
}

// refAssign is AssignIncremental with weights evaluated at relaxation
// time: every slice of every demand runs a textbook Dijkstra (binary heap
// in (distance, node) order, out-edges in insertion order, stop when the
// destination pops) that calls the congested weight function on each
// edge it relaxes, so no weight is ever cached between paths.
func refAssign(net *roadnet.Network, demands []Demand, slices int) Assignment {
	g := net.Graph()
	a := Assignment{Volumes: make([]float64, g.NumEdges())}
	w := a.Weight(net)
	for s := 0; s < slices; s++ {
		for _, d := range demands {
			rate := d.VehiclesPerHour / float64(slices)
			if rate == 0 {
				continue
			}
			edges, ok := refDijkstra(g, d.Source, d.Dest, w)
			if !ok {
				a.Unrouted += rate
				continue
			}
			for _, e := range edges {
				a.Volumes[e] += rate
			}
		}
	}
	return a
}

type refItem struct {
	dist float64
	node graph.NodeID
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func refDijkstra(g *graph.Graph, s, t graph.NodeID, w graph.WeightFunc) ([]graph.EdgeID, bool) {
	dist := make([]float64, g.NumNodes())
	prev := make([]graph.EdgeID, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	h := &refHeap{{dist: 0, node: s}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		u := it.node
		if it.dist > dist[u] {
			continue
		}
		if u == t {
			var edges []graph.EdgeID
			for n := t; n != s; n = g.From(prev[n]) {
				edges = append([]graph.EdgeID{prev[n]}, edges...)
			}
			return edges, true
		}
		for _, e := range g.OutEdges(u) {
			if g.EdgeDisabled(e) {
				continue
			}
			v := g.To(e)
			if nd := it.dist + w(e); nd < dist[v] {
				dist[v], prev[v] = nd, e
				heap.Push(h, refItem{dist: nd, node: v})
			}
		}
	}
	return nil, false
}

// uniformGrid is the tie-heavy lattice: identical two-way single-lane
// roads on an exact rows x cols grid, so equal-hop routes tie exactly at
// every congestion level.
func uniformGrid(t *testing.T, rows, cols int) *roadnet.Network {
	t.Helper()
	n := roadnet.NewNetwork("uniform-grid")
	id := make([]graph.NodeID, rows*cols)
	for i := range id {
		id[i] = n.AddIntersection(geo.Point{Lat: 42 + 0.001*float64(i/cols), Lon: -71 + 0.001*float64(i%cols)})
	}
	road := roadnet.Road{LengthM: 100, SpeedMS: 10, Lanes: 1}
	for i := range id {
		for _, j := range []int{i + 1, i + cols} {
			if (j == i+1 && j%cols == 0) || j >= len(id) {
				continue
			}
			if _, _, err := n.AddTwoWayRoad(id[i], id[j], road); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n
}

// TestAssignIncrementalMatchesRelaxationTimeReference: the snapshot
// assignment (one Freeze per call, Reweight after each loaded path) must
// be bit-identical to refAssign on a tie-heavy lattice, a lattice city
// and an organic city, on the intact network and with a cut applied.
func TestAssignIncrementalMatchesRelaxationTimeReference(t *testing.T) {
	chicago, err := citygen.Build(citygen.Chicago, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	boston, err := citygen.Build(citygen.Boston, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*roadnet.Network{uniformGrid(t, 8, 9), chicago, boston} {
		g := net.Graph()
		rng := rand.New(rand.NewSource(int64(g.NumEdges())))
		var demands []Demand
		for i := 0; i < 12; i++ {
			demands = append(demands, Demand{
				Source:          graph.NodeID(rng.Intn(g.NumNodes())),
				Dest:            graph.NodeID(rng.Intn(g.NumNodes())),
				VehiclesPerHour: 500 + 2000*rng.Float64(),
			})
		}
		// The cut: the first edge of three demands' free-flow routes, so
		// traffic must divert, plus a seeded scatter of other edges.
		var cut []graph.EdgeID
		for _, d := range demands[:3] {
			if p, ok := net.Router().ShortestPath(d.Source, d.Dest, net.Weight(roadnet.WeightTime)); ok && len(p.Edges) > 0 {
				cut = append(cut, p.Edges[0])
			}
		}
		for e := 0; e < g.NumEdges(); e++ {
			if rng.Intn(40) == 0 {
				cut = append(cut, graph.EdgeID(e))
			}
		}
		for _, cutName := range []string{"intact", "cut"} {
			tx := g.Begin()
			if cutName == "cut" {
				for _, e := range cut {
					tx.Disable(e)
				}
			}
			got, err := AssignIncremental(net, demands, 6)
			want := refAssign(net, demands, 6)
			tx.Rollback()
			if err != nil {
				t.Fatalf("%s %s: %v", net.Name(), cutName, err)
			}
			if got.Unrouted != want.Unrouted {
				t.Errorf("%s %s: unrouted %v, reference %v", net.Name(), cutName, got.Unrouted, want.Unrouted)
			}
			loaded := 0
			for e := range want.Volumes {
				if got.Volumes[e] != want.Volumes[e] {
					t.Fatalf("%s %s: edge %d volume %v, reference %v (bit-identical required)",
						net.Name(), cutName, e, got.Volumes[e], want.Volumes[e])
				}
				if want.Volumes[e] > 0 {
					loaded++
				}
			}
			if loaded == 0 {
				t.Fatalf("%s %s: no edge carries traffic; the comparison is vacuous", net.Name(), cutName)
			}
		}
	}
}
