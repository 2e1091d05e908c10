package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/graph"
	"altroute/internal/overlay"
	"altroute/internal/roadnet"
	"altroute/internal/traffic"
)

const (
	// impactDemands and impactSlices size one AttackImpact call: 16
	// origin-destination flows loaded in 8 increments, before and after
	// the cut, so 256 point-to-point queries per call.
	impactDemands = 16
	impactSlices  = 8
	// impactGroups is the number of seeded demand groups a run cycles
	// through; a round is one AttackImpact call per group.
	impactGroups = 4
)

var trafficCity = cityPlan{citygen.LosAngeles, []roadnet.WeightType{roadnet.WeightTime}}

// impactDemandsFor draws one seeded demand group. Its first demand is the
// attacked trip itself (the attack's source to its hospital), so the cut
// diverts traffic. Demand i > 0 starts at a seeded node of district i of a
// 4 x 4 grid over the city and ends at the node at a seeded Dijkstra rank
// in the rank band from its origin. Fixed districts and Dijkstra ranks,
// rather than free draws, keep the search work of a group alike across
// groups and seeds.
func impactDemandsFor(net *roadnet.Network, victim traffic.Demand, seed int64, group int) []traffic.Demand {
	rng := rand.New(rand.NewSource(seed*104729 + int64(group)*7 + 3))
	r := net.Router()
	w := net.Weight(roadnet.WeightTime)
	n := net.NumIntersections()
	victim.VehiclesPerHour = 300 + 300*rng.Float64()
	out := []traffic.Demand{victim}
	districts := byDistrict(net)
	for len(out) < impactDemands {
		d := districts[len(out)]
		if len(d) == 0 {
			d = districts[0] // an empty district borrows the whole city's nodes
		}
		s := d[rng.Intn(len(d))]
		k := int((rankBandLo + (rankBandHi-rankBandLo)*rng.Float64()) * float64(n))
		dist := r.DistancesFrom(s, w)
		order := make([]graph.NodeID, 0, n)
		for v, d := range dist {
			if !math.IsInf(d, 1) {
				order = append(order, graph.NodeID(v))
			}
		}
		if len(order) <= k {
			continue
		}
		sort.Slice(order, func(i, j int) bool {
			di, dj := dist[order[i]], dist[order[j]]
			if di != dj {
				return di < dj
			}
			return order[i] < order[j]
		})
		out = append(out, traffic.Demand{Source: s, Dest: order[k], VehiclesPerHour: 300 + 300*rng.Float64()})
	}
	return out
}

// byDistrict splits the nodes into the 16 districts of a 4 x 4 grid over
// the city's bounding box, row-major; entry 0 also gets every node, for
// empty districts to borrow.
func byDistrict(net *roadnet.Network) [][]graph.NodeID {
	box := net.BBox()
	cell := func(v, lo, hi float64) int {
		return min(3, max(0, int(4*(v-lo)/(hi-lo))))
	}
	out := make([][]graph.NodeID, impactDemands+1)
	for v := 0; v < net.NumIntersections(); v++ {
		p := net.Point(graph.NodeID(v))
		i := 1 + 4*cell(p.Lat, box.MinLat, box.MaxLat) + cell(p.Lon, box.MinLon, box.MaxLon)
		out[i] = append(out[i], graph.NodeID(v))
		out[0] = append(out[0], graph.NodeID(v))
	}
	return out
}

// impactCut is the setup attack: GreedyPathCover from a seeded source to a
// seeded hospital, with p* the 100th-shortest path under TIME. The source
// is drawn from the same Dijkstra rank band as the demands, towards the
// hospital, so the attacked trip costs the queries what the others do.
func impactCut(ctx context.Context, net *roadnet.Network, seed int64, tr *tracer) (cut []graph.EdgeID, victim traffic.Demand, calls, misses int, err error) {
	rng := rand.New(rand.NewSource(seed*15485863 + 5))
	hs := net.POIsOfKind(citygen.KindHospital)
	h := hs[rng.Intn(len(hs))]
	w := net.Weight(roadnet.WeightTime)
	near := byDistanceTo(net, h.Node)
	n := net.NumIntersections()
	lo, hi := int(rankBandLo*float64(n)), int(rankBandHi*float64(n))
	for attempt := 0; attempt < 50; attempt++ {
		src := near[lo+rng.Intn(hi-lo)]
		t0 := now()
		pstar, err := core.PStarByRank(net.Graph(), src, h.Node, pathRank, w)
		tr.add("core.PStarByRank", 0, 1, t0, now())
		calls++
		if err != nil {
			misses++
			continue
		}
		p := core.Problem{
			G: net.Graph(), Source: src, Dest: h.Node, PStar: pstar,
			Weight: w, Cost: net.Cost(roadnet.CostUniform), Snapshot: net.Snapshot(roadnet.WeightTime),
		}
		res, err := core.RunCtx(ctx, core.AlgGreedyPathCover, p, core.Options{Seed: seed})
		if err != nil {
			return nil, victim, calls, misses, fmt.Errorf("setup attack: %w", err)
		}
		return res.Removed, traffic.Demand{Source: src, Dest: h.Node}, calls, misses, nil
	}
	return nil, victim, calls, misses, fmt.Errorf("setup attack: no source with a rank-%d path to %s", pathRank, h.Name)
}

// impactCall is one timed AttackImpact call and its outputs.
type impactCall struct {
	ms                  float64
	extraVehS, stranded float64
}

// callImpact times one AttackImpact call, inside a span when traced.
func callImpact(net *roadnet.Network, demands []traffic.Demand, cut []graph.EdgeID, tr *tracer, trace int) (impactCall, error) {
	var c impactCall
	var err error
	t0 := now()
	_, _, c.extraVehS, c.stranded, err = traffic.AttackImpact(net, demands, cut, impactSlices)
	t1 := now()
	tr.add("traffic.AttackImpact", 0, trace, t0, t1)
	c.ms = ms(t1.Sub(t0))
	return c, err
}

func runTrafficImpact(e *env) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	nets, st, err := buildCities([]cityPlan{trafficCity})
	if err != nil {
		return nil, err
	}
	net := nets[0]
	o.setSetup(st)
	o.set("heap_mb", heapMB())
	fmt.Fprintf(e.log, "perfbench: traffic-impact setup %.3fs\n", st.totalS)

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	cut, victim, pstarCalls, misses, err := impactCut(ctx, net, e.seed, tr)
	if err != nil {
		return nil, err
	}
	groups := make([][]traffic.Demand, impactGroups)
	for g := range groups {
		groups[g] = impactDemandsFor(net, victim, e.seed, g)
	}

	// first holds each group's first outputs, which every later call on
	// the group must repeat exactly.
	first := make([]*impactCall, impactGroups)
	callMS := make([][]float64, impactGroups)
	var rounds []float64
	// measure runs at least n rounds, and with timed set keeps going while
	// the run's seconds allow. It returns the rounds' mean call times.
	measure := func(tr *tracer, n int, timed bool) []float64 {
		var out []float64
		start := now()
		for i := 0; i < n || (timed && more(now().Sub(start), i, e.seconds)); i++ {
			total := 0.0
			for g, demands := range groups {
				c, err := callImpact(net, demands, cut, tr, len(rounds)*impactGroups+g+1)
				o.attempted++
				if err != nil {
					o.failed++
					o.check(false, "AttackImpact: %v", err)
					return out
				}
				if ref := first[g]; ref == nil {
					first[g] = &c
				} else {
					o.check(sameFloat(c.extraVehS, ref.extraVehS) && sameFloat(c.stranded, ref.stranded),
						"AttackImpact group %d: (extraVehSeconds %v, strandedVPH %v) differs from its first call's (%v, %v)",
						g, c.extraVehS, c.stranded, ref.extraVehS, ref.stranded)
				}
				total += c.ms
				callMS[g] = append(callMS[g], c.ms)
			}
			out = append(out, total/impactGroups)
			rounds = append(rounds, total/impactGroups)
			fmt.Fprintf(e.log, "perfbench: round %d: %.3fs per AttackImpact call %v\n", len(rounds), total/impactGroups/1000, callMS)
		}
		return out
	}
	var untraced []float64
	if e.trace {
		untraced = measure(nil, 1, false)
	} else {
		untraced = measure(nil, 2, true)
	}
	for g, c := range first {
		fmt.Fprintf(e.log, "perfbench: group %d: extra %.6g veh-s, stranded %.6g veh/h\n", g, c.extraVehS, c.stranded)
	}
	o.set("op_ms_p50", median(untraced))
	o.set("op_ms_tail", tail(untraced))
	o.set("ops_per_s", 1000/(sum(untraced)/float64(len(untraced))))
	o.set("impact_s", median(untraced)/1000)
	if !e.trace {
		return o, nil
	}

	before := readGoStats()
	traced := measure(tr, 1, false)
	o.setGoDelta(before)
	o.set("trace.overhead_pct", overheadPct(median(untraced), median(traced)))
	queries := float64(2 * impactSlices * impactDemands)
	o.set("traffic.queries", queries)
	o.set("traffic.ms_per_query", median(traced)/queries)
	demands := groups[0]
	yen := durationsMS(tr.named("core.PStarByRank"))
	o.set("graph.yen_ms_p50", median(yen))
	o.set("graph.yen_ms_p90", percentile(yen, 90))
	o.set("graph.yen_rank_miss_ratio", ratio(float64(misses), float64(pstarCalls)))

	id := tr.timed("traffic.AssignIncremental", 0, 0, func() {
		_, err = traffic.AssignIncremental(net, demands, impactSlices)
	})
	o.check(err == nil, "AssignIncremental: %v", err)
	o.set("traffic.assign_ms", ms(tr.get(id).dur()))

	g := net.Graph()
	free := traffic.Assignment{Volumes: make([]float64, g.NumEdges())}.Weight(net)
	live := graph.NewRouter(g)
	csr := graph.NewRouter(g)
	csr.UseSnapshot(net.Snapshot(roadnet.WeightTime))
	w := net.Weight(roadnet.WeightTime)
	for _, d := range demands {
		var lp, cp graph.Path
		var lok, cok bool
		tr.timed("graph.ShortestPath.live", 0, 0, func() { lp, lok = live.ShortestPath(d.Source, d.Dest, free) })
		tr.timed("graph.ShortestPath.csr", 0, 0, func() { cp, cok = csr.ShortestPath(d.Source, d.Dest, w) })
		o.check(lok == cok && len(lp.Edges) == len(cp.Edges), "demand %d->%d: live and snapshot shortest paths differ", d.Source, d.Dest)
	}
	o.set("graph.p2p_live_ms_p50", median(durationsMS(tr.named("graph.ShortestPath.live"))))
	o.set("graph.p2p_csr_ms_p50", median(durationsMS(tr.named("graph.ShortestPath.csr"))))

	id = tr.timed("graph.EdgeEigenScores", 0, 0, func() { graph.EdgeEigenScores(g, graph.EigenOptions{}) })
	o.set("graph.eigen_ms", ms(tr.get(id).dur()))
	id = tr.timed("overlay.Build", 0, 0, func() {
		ov, err := overlay.Build(ctx, net.Snapshot(roadnet.WeightTime), overlay.Params{Seed: citySeed})
		if err == nil {
			_, err = overlay.NewMetric(ctx, ov)
		}
		o.check(err == nil, "overlay build: %v", err)
	})
	o.set("overlay.build_ms", ms(tr.get(id).dur()))
	return o, tr.write(fmt.Sprintf("%s/trace-traffic-impact-%d.json", e.workDir, e.seed))
}
