// Benchmark harness regenerating every table and figure in the paper's
// evaluation (§III). Each BenchmarkTable* target reproduces one table: it
// runs the same algorithm x cost grid over the same sampled
// source->hospital workload and reports the paper's metrics as benchmark
// metrics (ANER = average number of edges removed, ACRE = average cost of
// removed edges; ns/op is the attack computation runtime the paper's
// "Avg. Runtime" column measures).
//
//	go test -bench=BenchmarkTableII -benchmem
//	go test -bench=. -benchmem              # everything
//
// Cities are generated at benchScale of their Table I size (see DESIGN.md:
// the substitution preserves topology shape, not absolute runtime), so
// compare relative numbers — who wins, by what factor — with the paper.
package altroute_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"altroute"
	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/experiment"
	"altroute/internal/graph"
	"altroute/internal/metrics"
	"altroute/internal/roadnet"
	"altroute/internal/traffic"
)

const (
	benchScale   = 0.04
	benchSeed    = 1
	benchRank    = 15
	benchSources = 3 // sources per hospital (paper: 10)
)

var (
	benchMu    sync.Mutex
	benchNets  = map[citygen.City]*altroute.Network{}
	benchUnits = map[string][]experiment.Unit{}
)

// benchNetwork builds (once) the synthetic city for benchmarks.
func benchNetwork(b *testing.B, c citygen.City) *altroute.Network {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if net, ok := benchNets[c]; ok {
		return net
	}
	net, err := citygen.Build(c, benchScale, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	benchNets[c] = net
	return net
}

// benchWorkload samples (once) the units for a (city, weight) table.
func benchWorkload(b *testing.B, c citygen.City, wt roadnet.WeightType) (*altroute.Network, []experiment.Unit) {
	b.Helper()
	net := benchNetwork(b, c)
	key := fmt.Sprintf("%v/%v", c, wt)
	benchMu.Lock()
	defer benchMu.Unlock()
	if units, ok := benchUnits[key]; ok {
		return net, units
	}
	units, err := experiment.SampleUnits(net, experiment.Spec{
		Net:                net,
		WeightType:         wt,
		Seed:               benchSeed,
		PathRank:           benchRank,
		SourcesPerHospital: benchSources,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchUnits[key] = units
	return net, units
}

// benchTable is the shared body of BenchmarkTableII..VIII: one
// sub-benchmark per algorithm x cost cell, reporting ANER and ACRE.
func benchTable(b *testing.B, c citygen.City, wt roadnet.WeightType) {
	net, units := benchWorkload(b, c, wt)
	w := net.Weight(wt)
	for _, alg := range core.Algorithms() {
		for _, ct := range roadnet.CostTypes() {
			name := fmt.Sprintf("%s/%s", alg, ct)
			b.Run(name, func(b *testing.B) {
				cost := net.Cost(ct)
				var aner, acre float64
				runs := 0
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, u := range units {
						p := core.Problem{
							G: net.Graph(), Source: u.Source, Dest: u.Dest,
							PStar: u.PStar, Weight: w, Cost: cost,
						}
						res, err := core.Run(alg, p, core.Options{Seed: benchSeed})
						if err != nil {
							b.Fatalf("unit %v: %v", u.Hospital, err)
						}
						aner += float64(len(res.Removed))
						acre += res.TotalCost
						runs++
					}
				}
				b.ReportMetric(aner/float64(runs), "ANER")
				b.ReportMetric(acre/float64(runs), "ACRE")
			})
		}
	}
}

// BenchmarkTableI regenerates the Table I city graph summaries, reporting
// nodes, edges, and average degree per city as metrics. Timing measures
// full city generation (including hospital snapping).
func BenchmarkTableI(b *testing.B) {
	for _, c := range citygen.Cities() {
		b.Run(c.String(), func(b *testing.B) {
			var s metrics.GraphSummary
			for i := 0; i < b.N; i++ {
				net, err := citygen.Build(c, benchScale, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				s = metrics.Summarize(net)
			}
			b.ReportMetric(float64(s.Nodes), "nodes")
			b.ReportMetric(float64(s.Edges), "edges")
			b.ReportMetric(s.AvgNodeDegree, "avg_degree")
			b.ReportMetric(metrics.Latticeness(benchNetwork(b, c)), "latticeness")
		})
	}
}

// BenchmarkTableII: Boston, weight LENGTH.
func BenchmarkTableII(b *testing.B) { benchTable(b, citygen.Boston, roadnet.WeightLength) }

// BenchmarkTableIII: Boston, weight TIME.
func BenchmarkTableIII(b *testing.B) { benchTable(b, citygen.Boston, roadnet.WeightTime) }

// BenchmarkTableIV: San Francisco, weight LENGTH.
func BenchmarkTableIV(b *testing.B) { benchTable(b, citygen.SanFrancisco, roadnet.WeightLength) }

// BenchmarkTableV: San Francisco, weight TIME.
func BenchmarkTableV(b *testing.B) { benchTable(b, citygen.SanFrancisco, roadnet.WeightTime) }

// BenchmarkTableVI: Chicago, weight LENGTH.
func BenchmarkTableVI(b *testing.B) { benchTable(b, citygen.Chicago, roadnet.WeightLength) }

// BenchmarkTableVII: Chicago, weight TIME.
func BenchmarkTableVII(b *testing.B) { benchTable(b, citygen.Chicago, roadnet.WeightTime) }

// BenchmarkTableVIII: Los Angeles, weight TIME.
func BenchmarkTableVIII(b *testing.B) { benchTable(b, citygen.LosAngeles, roadnet.WeightTime) }

// BenchmarkTableIX reports the Table IX cross-cost-type ANER/ACRE averages
// per city and weight type.
func BenchmarkTableIX(b *testing.B) {
	combos := []struct {
		city citygen.City
		wt   roadnet.WeightType
	}{
		{citygen.Boston, roadnet.WeightLength},
		{citygen.Boston, roadnet.WeightTime},
		{citygen.SanFrancisco, roadnet.WeightLength},
		{citygen.SanFrancisco, roadnet.WeightTime},
		{citygen.Chicago, roadnet.WeightLength},
		{citygen.Chicago, roadnet.WeightTime},
		{citygen.LosAngeles, roadnet.WeightTime},
	}
	for _, combo := range combos {
		b.Run(fmt.Sprintf("%s/%s", combo.city, combo.wt), func(b *testing.B) {
			net, units := benchWorkload(b, combo.city, combo.wt)
			var table experiment.Table
			for i := 0; i < b.N; i++ {
				var err error
				table, err = experiment.RunTableOnUnits(net, units, experiment.Spec{
					Net:        net,
					WeightType: combo.wt,
					Seed:       benchSeed,
					PathRank:   benchRank,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			rows := experiment.Aggregate([]experiment.Table{table})
			if len(rows) == 1 {
				b.ReportMetric(rows[0].ANER[combo.wt], "ANER")
				b.ReportMetric(rows[0].ACRE[combo.wt], "ACRE")
			}
		})
	}
}

// BenchmarkTableX reports the path-rank threshold gaps (average percentage
// length increase from the shortest path to rank and 2*rank) per city.
func BenchmarkTableX(b *testing.B) {
	for _, c := range []citygen.City{citygen.Boston, citygen.SanFrancisco, citygen.Chicago} {
		b.Run(c.String(), func(b *testing.B) {
			net := benchNetwork(b, c)
			var row experiment.ThresholdRow
			for i := 0; i < b.N; i++ {
				var err error
				row, err = experiment.RunThreshold(experiment.Spec{
					Net:                net,
					Seed:               benchSeed,
					PathRank:           benchRank,
					SourcesPerHospital: benchSources,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.AvgInc100, "inc_rank_pct")
			b.ReportMetric(row.AvgInc200, "inc_2xrank_pct")
		})
	}
}

// BenchmarkFigures regenerates the Figures 1-4 scenario per city: one
// attack with the figure's weight/cost combination plus the SVG render.
func BenchmarkFigures(b *testing.B) {
	figs := []struct {
		num  int
		city citygen.City
		wt   roadnet.WeightType
		ct   roadnet.CostType
	}{
		{1, citygen.Boston, roadnet.WeightLength, roadnet.CostWidth},
		{2, citygen.SanFrancisco, roadnet.WeightLength, roadnet.CostWidth},
		{3, citygen.Chicago, roadnet.WeightLength, roadnet.CostUniform},
		{4, citygen.LosAngeles, roadnet.WeightTime, roadnet.CostLanes},
	}
	for _, f := range figs {
		b.Run(fmt.Sprintf("Figure%d", f.num), func(b *testing.B) {
			net, units := benchWorkload(b, f.city, f.wt)
			u := units[0]
			svgPath := b.TempDir() + "/fig.svg"
			for i := 0; i < b.N; i++ {
				p := core.Problem{
					G: net.Graph(), Source: u.Source, Dest: u.Dest, PStar: u.PStar,
					Weight: net.Weight(f.wt), Cost: net.Cost(f.ct),
				}
				res, err := core.Run(core.AlgGreedyPathCover, p, core.Options{Seed: benchSeed})
				if err != nil {
					b.Fatal(err)
				}
				err = altroute.WriteSVGFile(svgPath, altroute.Scene{
					Net: net, Source: u.Source, Dest: u.Dest,
					PStar: u.PStar, Removed: res.Removed,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLPRounding compares LP-PathCover with and without
// randomized rounding trials (threshold-rounding only vs +16 trials).
func BenchmarkAblationLPRounding(b *testing.B) {
	net, units := benchWorkload(b, citygen.Boston, roadnet.WeightTime)
	for _, trials := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("trials=%d", trials), func(b *testing.B) {
			var acre float64
			runs := 0
			for i := 0; i < b.N; i++ {
				for _, u := range units {
					p := core.Problem{
						G: net.Graph(), Source: u.Source, Dest: u.Dest, PStar: u.PStar,
						Weight: net.Weight(roadnet.WeightTime), Cost: net.Cost(roadnet.CostWidth),
					}
					res, err := core.Run(core.AlgLPPathCover, p, core.Options{Seed: benchSeed, LPRoundingTrials: trials})
					if err != nil {
						b.Fatal(err)
					}
					acre += res.TotalCost
					runs++
				}
			}
			b.ReportMetric(acre/float64(runs), "ACRE")
		})
	}
}

// BenchmarkAblationEigRecompute compares GreedyEig scoring once on the
// intact graph (PATHATTACK's choice) against rescoring after every cut.
func BenchmarkAblationEigRecompute(b *testing.B) {
	net, units := benchWorkload(b, citygen.Chicago, roadnet.WeightTime)
	for _, recompute := range []bool{false, true} {
		b.Run(fmt.Sprintf("recompute=%v", recompute), func(b *testing.B) {
			var acre float64
			runs := 0
			for i := 0; i < b.N; i++ {
				for _, u := range units {
					p := core.Problem{
						G: net.Graph(), Source: u.Source, Dest: u.Dest, PStar: u.PStar,
						Weight: net.Weight(roadnet.WeightTime), Cost: net.Cost(roadnet.CostLanes),
					}
					res, err := core.Run(core.AlgGreedyEig, p, core.Options{Seed: benchSeed, RecomputeEigen: recompute})
					if err != nil {
						b.Fatal(err)
					}
					acre += res.TotalCost
					runs++
				}
			}
			b.ReportMetric(acre/float64(runs), "ACRE")
		})
	}
}

// BenchmarkAblationPathRank sweeps the alternative-route rank (the paper
// fixes 100): deeper ranks force longer detours and cost more to force.
func BenchmarkAblationPathRank(b *testing.B) {
	net := benchNetwork(b, citygen.Boston)
	w := net.Weight(roadnet.WeightTime)
	for _, rank := range []int{5, 15, 40} {
		b.Run(fmt.Sprintf("rank=%d", rank), func(b *testing.B) {
			units, err := experiment.SampleUnits(net, experiment.Spec{
				Net: net, WeightType: roadnet.WeightTime, Seed: benchSeed,
				PathRank: rank, SourcesPerHospital: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			var aner float64
			runs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, u := range units {
					p := core.Problem{
						G: net.Graph(), Source: u.Source, Dest: u.Dest, PStar: u.PStar,
						Weight: w, Cost: net.Cost(roadnet.CostUniform),
					}
					res, err := core.Run(core.AlgGreedyPathCover, p, core.Options{Seed: benchSeed})
					if err != nil {
						b.Fatal(err)
					}
					aner += float64(len(res.Removed))
					runs++
				}
			}
			b.ReportMetric(aner/float64(runs), "ANER")
		})
	}
}

// Micro-benchmarks for the underlying graph machinery on a city-scale
// graph, so substrate regressions are visible independently of the
// attack-level numbers.
//
// BenchmarkDijkstraCity runs its queries on a router with no snapshot
// attached, so every query freezes the graph before searching it: the
// per-call cost a caller pays by not attaching a snapshot. The kernel
// alone, on the same queries, is BenchmarkDijkstraCSR.
func BenchmarkDijkstraCity(b *testing.B) {
	net := benchNetwork(b, citygen.Chicago)
	w := net.Weight(roadnet.WeightTime)
	r := altroute.NewRouter(net.Graph())
	n := net.NumIntersections()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := altroute.NodeID(i % n)
		dst := altroute.NodeID((i*7 + n/2) % n)
		r.ShortestPath(src, dst, w)
	}
}

func BenchmarkYenK100City(b *testing.B) {
	net := benchNetwork(b, citygen.Chicago)
	w := net.Weight(roadnet.WeightTime)
	r := altroute.NewRouter(net.Graph())
	h := net.POIsOfKind(citygen.KindHospital)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.KShortest(altroute.NodeID(i%net.NumIntersections()), h.Node, 100, w)
	}
}

// BenchmarkYenK200City is the Table X workload generator at the paper's
// doubled rank (200): the deepest k-shortest query the experiments issue,
// on the Chicago-like lattice preset.
func BenchmarkYenK200City(b *testing.B) {
	net := benchNetwork(b, citygen.Chicago)
	w := net.Weight(roadnet.WeightTime)
	r := altroute.NewRouter(net.Graph())
	h := net.POIsOfKind(citygen.KindHospital)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.KShortest(altroute.NodeID(i%net.NumIntersections()), h.Node, 200, w)
	}
}

// BenchmarkDijkstraCSR is BenchmarkDijkstraCity with the network's
// snapshot attached to the router: the point-to-point kernel alone, with
// no per-query Freeze.
func BenchmarkDijkstraCSR(b *testing.B) {
	net := benchNetwork(b, citygen.Chicago)
	w := net.Weight(roadnet.WeightTime)
	r := altroute.NewRouter(net.Graph())
	r.UseSnapshot(net.Snapshot(roadnet.WeightTime))
	n := net.NumIntersections()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := altroute.NodeID(i % n)
		dst := altroute.NodeID((i*7 + n/2) % n)
		r.ShortestPath(src, dst, w)
	}
}

// BenchmarkYenK200CSR is BenchmarkYenK200City on the network's attached
// snapshot, so no query pays a Freeze: every spur query runs the
// flat-array kernel with the router's per-query edge bans overlaid on the
// shared immutable arrays.
func BenchmarkYenK200CSR(b *testing.B) {
	net := benchNetwork(b, citygen.Chicago)
	w := net.Weight(roadnet.WeightTime)
	r := altroute.NewRouter(net.Graph())
	r.UseSnapshot(net.Snapshot(roadnet.WeightTime))
	h := net.POIsOfKind(citygen.KindHospital)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.KShortest(altroute.NodeID(i%net.NumIntersections()), h.Node, 200, w)
	}
}

// BenchmarkBetweennessParallel compares one Brandes worker with the
// default fan-out on the BenchmarkEdgeBetweennessSampled workload, both on
// the network's snapshot (same sampled sources; scores are bitwise
// identical across worker counts).
func BenchmarkBetweennessParallel(b *testing.B) {
	net := benchNetwork(b, citygen.SanFrancisco)
	g := net.Graph()
	opts := graph.BetweennessOptions{Normalize: true}
	step := g.NumNodes() / 60
	if step < 1 {
		step = 1
	}
	for s := 0; s < g.NumNodes() && len(opts.Sources) < 60; s += step {
		opts.Sources = append(opts.Sources, graph.NodeID(s))
	}
	snap := net.Snapshot(roadnet.WeightTime)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.BetweennessParallel(context.Background(), snap, opts, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableParallel compares the serial and parallel table runners on
// the same prepared workload (results are bit-for-bit identical; only the
// wall clock differs).
func BenchmarkTableParallel(b *testing.B) {
	net, units := benchWorkload(b, citygen.Boston, roadnet.WeightTime)
	spec := experiment.Spec{
		Net:        net,
		WeightType: roadnet.WeightTime,
		Seed:       benchSeed,
		PathRank:   benchRank,
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiment.RunTableOnUnits(net, units, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiment.RunTableOnUnitsParallel(net, units, spec, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunCtxOverhead guards the cost of the cooperative cancellation
// checks threaded through the attack pipeline. The same Chicago
// GreedyPathCover workload runs under a background context (every poll
// passes trivially) and under a live one-hour deadline (the worst-case poll:
// deadline contexts do real work in Err()). The two must stay within a few
// percent of each other — the polls sit at round/spur/pivot granularity,
// never in per-edge inner loops, precisely to keep this true.
func BenchmarkRunCtxOverhead(b *testing.B) {
	net, units := benchWorkload(b, citygen.Chicago, roadnet.WeightTime)
	w := net.Weight(roadnet.WeightTime)
	cost := net.Cost(roadnet.CostUniform)
	attack := func(b *testing.B, ctx context.Context) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, u := range units {
				p := core.Problem{
					G: net.Graph(), Source: u.Source, Dest: u.Dest,
					PStar: u.PStar, Weight: w, Cost: cost,
				}
				res, err := core.RunCtx(ctx, core.AlgGreedyPathCover, p, core.Options{Seed: benchSeed})
				if err != nil || res.Degraded {
					b.Fatalf("unit %v: err=%v degraded=%v", u.Hospital, err, res.Degraded)
				}
			}
		}
	}
	b.Run("GreedyPathCover/background", func(b *testing.B) {
		attack(b, context.Background())
	})
	b.Run("GreedyPathCover/deadline", func(b *testing.B) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		attack(b, ctx)
	})

	// The deepest poll site in isolation: Yen's spur loop on the same city.
	h := net.POIsOfKind(citygen.KindHospital)[0]
	yen := func(b *testing.B, ctx context.Context) {
		b.Helper()
		r := altroute.NewRouter(net.Graph())
		if ctx != nil {
			r.SetContext(ctx)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.KShortest(altroute.NodeID(i%net.NumIntersections()), h.Node, 100, w)
		}
	}
	b.Run("YenK100/background", func(b *testing.B) {
		yen(b, context.Background())
	})
	b.Run("YenK100/deadline", func(b *testing.B) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		yen(b, ctx)
	})
}

func BenchmarkEdgeBetweennessSampled(b *testing.B) {
	net := benchNetwork(b, citygen.SanFrancisco)
	w := net.Weight(roadnet.WeightTime)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		altroute.CriticalRoads(net, w, 10, 60)
	}
}

// BenchmarkTrafficAssignment measures incremental BPR assignment on a city
// with hospital-to-hospital commuter demand.
func BenchmarkTrafficAssignment(b *testing.B) {
	net := benchNetwork(b, citygen.LosAngeles)
	pois := net.POIsOfKind(citygen.KindHospital)
	demands := []traffic.Demand{
		{Source: pois[1].Node, Dest: pois[0].Node, VehiclesPerHour: 1500},
		{Source: pois[2].Node, Dest: pois[0].Node, VehiclesPerHour: 1500},
		{Source: pois[3].Node, Dest: pois[0].Node, VehiclesPerHour: 1500},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := traffic.AssignIncremental(net, demands, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiVictim measures the coordinated multi-victim attack with a
// shared constraint pool.
func BenchmarkMultiVictim(b *testing.B) {
	net, units := benchWorkload(b, citygen.Chicago, roadnet.WeightTime)
	w := net.Weight(roadnet.WeightTime)
	victims := make([]core.VictimSpec, 0, 3)
	for _, u := range units[:3] {
		victims = append(victims, core.VictimSpec{Source: u.Source, Dest: u.Dest, PStar: u.PStar})
	}
	p := core.MultiProblem{G: net.Graph(), Victims: victims, Weight: w, Cost: net.Cost(roadnet.CostUniform)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunMulti(core.AlgGreedyPathCover, p, core.Options{Seed: benchSeed}); err != nil {
			b.Skipf("victims conflict: %v", err)
		}
	}
}

// BenchmarkOracleLoop times a full GreedyEdge attack against a rank-200
// p* (the paper's doubled rank) on the bench city: every round is one
// bounded exclusivity query on the network's attached snapshot. csr
// takes its reverse potential per attack, as a one-off caller does;
// potential passes a cached one through Problem.Potential, as the
// experiment runner and the attack service do. Both produce identical
// Results.
func BenchmarkOracleLoop(b *testing.B) {
	net := benchNetwork(b, citygen.Chicago)
	w := net.Weight(roadnet.WeightTime)
	cost := net.Cost(roadnet.CostUniform)
	snap := net.Snapshot(roadnet.WeightTime)
	h := net.POIsOfKind(citygen.KindHospital)[0]
	r := altroute.NewRouter(net.Graph())
	r.UseSnapshot(snap)
	src := altroute.NodeID(net.NumIntersections() / 3)
	paths := r.KShortest(src, h.Node, 200, w)
	if len(paths) == 0 {
		b.Skip("no source->hospital paths")
	}
	pstar := paths[len(paths)-1]
	base := core.Problem{
		G: net.Graph(), Source: src, Dest: h.Node, PStar: pstar,
		Weight: w, Cost: cost, Snapshot: snap,
	}
	cached := base
	cached.Potential = r.ReversePotential(h.Node, w)

	for _, c := range []struct {
		name string
		p    core.Problem
	}{{"csr", base}, {"potential", cached}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(core.AlgGreedyEdge, c.p, core.Options{Seed: benchSeed}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIsolateHospitalArea measures the min-cut area isolation attack.
func BenchmarkIsolateHospitalArea(b *testing.B) {
	net := benchNetwork(b, citygen.SanFrancisco)
	h := net.POIsOfKind(citygen.KindHospital)[0]
	w := net.Weight(roadnet.WeightTime)
	area := altroute.AreaAround(net.Graph(), h.Node, 40, w)
	if len(area) < 2 || len(area) >= net.NumIntersections() {
		b.Skip("degenerate area")
	}
	cost := net.Cost(roadnet.CostLanes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := altroute.IsolateArea(net.Graph(), area, cost, altroute.Inbound); err != nil {
			b.Fatal(err)
		}
	}
}
