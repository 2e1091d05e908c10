package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/experiment"
	"altroute/internal/graph"
	"altroute/internal/overlay"
	"altroute/internal/roadnet"
)

// paperTables are the two tables paper-table runs: Boston/TIME (Table III,
// organic, low latticeness) and Chicago/LENGTH (Table VI, lattice).
var paperTables = []cityPlan{
	{citygen.Boston, []roadnet.WeightType{roadnet.WeightTime}},
	{citygen.Chicago, []roadnet.WeightType{roadnet.WeightLength}},
}

// sourcesPerHospital is the number of seeded sources per hospital in each
// table of a pass: 4 hospitals x 4 sources = 16 units, 192 attacks per
// table. Each pass draws new sources, so a run covers 32 or more units per
// city.
const sourcesPerHospital = 4

// algKey is the short metric-name form of an algorithm.
func algKey(a core.Algorithm) string {
	switch a {
	case core.AlgLPPathCover:
		return "lp"
	case core.AlgGreedyPathCover:
		return "gpc"
	case core.AlgGreedyEdge:
		return "edge"
	default:
		return "eig"
	}
}

// attackSample is one attack of a table run, timed by the benchmark's
// Spec.Audit observer.
type attackSample struct {
	table int
	alg   string
	ms    float64
}

// passResult is one pass over both tables: p* sampling plus
// RunTableOnUnitsCtx for each.
type passResult struct {
	wallS      float64
	pstarMS    []float64
	pstarCalls int
	misses     int
	attacks    []attackSample
	units      [][]experiment.Unit
	tables     []experiment.Table
	// runnerOverheadMS is the table spans' self time (traced passes only).
	runnerOverheadMS float64
}

// sampleUnits draws sourcesPerHospital seeded sources per hospital and
// times core.PStarByRank for each, redrawing a source whose rank-100 path
// does not exist (a rank miss).
func sampleUnits(net *roadnet.Network, wt roadnet.WeightType, seed int64, pass, table int, tr *tracer, parent, trace int, pr *passResult) ([]experiment.Unit, error) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(pass)*131 + int64(table)))
	w := net.Weight(wt)
	n := net.NumIntersections()
	var units []experiment.Unit
	for _, h := range net.POIsOfKind(citygen.KindHospital) {
		for found, attempt := 0, 0; found < sourcesPerHospital; attempt++ {
			if attempt > 80*sourcesPerHospital {
				return nil, fmt.Errorf("hospital %q: no source with a rank-%d path", h.Name, pathRank)
			}
			src := graph.NodeID(rng.Intn(n))
			if src == h.Node {
				continue
			}
			t0 := now()
			pstar, err := core.PStarByRank(net.Graph(), src, h.Node, pathRank, w)
			t1 := now()
			tr.add("core.PStarByRank", parent, trace, t0, t1)
			pr.pstarMS = append(pr.pstarMS, ms(t1.Sub(t0)))
			pr.pstarCalls++
			if err != nil {
				pr.misses++
				continue
			}
			units = append(units, experiment.Unit{Source: src, Dest: h.Node, Hospital: h.Name, PStar: pstar})
			found++
		}
	}
	return units, nil
}

// runPass runs both tables once, on the pass's own seeded sources. With a
// tracer it records a span per p* call, per table run and per attack.
func runPass(ctx context.Context, nets []*roadnet.Network, seed int64, pass int, tr *tracer, trace int) (passResult, error) {
	var pr passResult
	passSpan := tr.start("paper.pass", 0, trace)
	t0 := now()
	for i, plan := range paperTables {
		net, wt := nets[i], plan.wts[0]
		units, err := sampleUnits(net, wt, seed, pass, i, tr, passSpan, trace, &pr)
		if err != nil {
			return pr, fmt.Errorf("%s: %w", plan.city, err)
		}
		var recs []experiment.Record
		var ends []time.Time
		spec := experiment.Spec{
			Net:        net,
			Seed:       seed,
			WeightType: wt,
			PathRank:   pathRank,
			Audit: func(r experiment.Record) {
				ends = append(ends, now())
				recs = append(recs, r)
			},
		}
		tableSpan := tr.start("experiment.RunTableOnUnitsCtx", passSpan, trace)
		start := now()
		table, err := experiment.RunTableOnUnitsCtx(ctx, net, units, spec)
		tr.finish(tableSpan)
		if err != nil {
			return pr, fmt.Errorf("%s table: %w", plan.city, err)
		}
		prev := start
		for j, r := range recs {
			pr.attacks = append(pr.attacks, attackSample{table: i, alg: algKeyByName(r.Algorithm), ms: ms(ends[j].Sub(prev))})
			prev = ends[j]
			if tr != nil {
				began := ends[j].Add(-time.Duration(r.RuntimeS * float64(time.Second)))
				tr.add("core.RunCtx", tableSpan, trace, began, ends[j])
			}
		}
		if tr != nil {
			pr.runnerOverheadMS += ms(selfTime(tr.get(tableSpan), tr.children(tableSpan)))
		}
		pr.units = append(pr.units, units)
		pr.tables = append(pr.tables, table)
	}
	pr.wallS = now().Sub(t0).Seconds()
	tr.finish(passSpan)
	return pr, nil
}

// algKeyByName maps a Record's algorithm name to its metric key.
func algKeyByName(name string) string {
	a, err := core.ParseAlgorithm(name)
	if err != nil {
		return name
	}
	return algKey(a)
}

// sameFloat compares two table figures bit for bit.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkTables verifies every attack of a pass succeeded undegraded.
func checkTables(o *outcome, pr passResult) {
	for i, t := range pr.tables {
		for _, c := range t.Cells {
			o.attempted += c.Runs + c.Failures
			o.failed += c.Failures
			o.check(c.Failures == 0 && c.Degraded == 0 && c.Runs == len(pr.units[i]),
				"%s %s/%s: %d runs, %d failures, %d degraded over %d units",
				t.City, c.Algorithm, c.CostType, c.Runs, c.Failures, c.Degraded, len(pr.units[i]))
		}
	}
}

// sameCell compares the (Runs, ANER, ACRE) of two cells bit for bit.
func sameCell(a, b *experiment.Cell) bool {
	return a != nil && b != nil && a.Runs == b.Runs && sameFloat(a.ANER, b.ANER) && sameFloat(a.ACRE, b.ACRE)
}

// checkRepeat reruns the first pass's units through the table runner for
// the UNIFORM cost column (all four algorithms) and checks that every cell
// equals the first run's. It is not timed.
func checkRepeat(ctx context.Context, o *outcome, nets []*roadnet.Network, seed int64, first passResult) error {
	for i, plan := range paperTables {
		spec := experiment.Spec{
			Net: nets[i], Seed: seed, WeightType: plan.wts[0], PathRank: pathRank,
			CostTypes: []roadnet.CostType{roadnet.CostUniform},
		}
		again, err := experiment.RunTableOnUnitsCtx(ctx, nets[i], first.units[i], spec)
		if err != nil {
			return fmt.Errorf("%s repeat: %w", plan.city, err)
		}
		for _, c := range again.Cells {
			ref := first.tables[i].Cell(c.Algorithm, c.CostType)
			o.check(sameCell(ref, &c), "%s %s/%s: rerun cell (runs %d, ANER %v, ACRE %v) differs from the first run's",
				again.City, c.Algorithm, c.CostType, c.Runs, c.ANER, c.ACRE)
		}
	}
	return nil
}

// perTableMedianMean is the mean over tables of each table's median, so a
// figure pooled over Boston and Chicago does not jump between the two
// cities' clusters.
func perTableMedianMean(samples []attackSample, alg string) float64 {
	var meds []float64
	for t := range paperTables {
		var xs []float64
		for _, s := range samples {
			if s.table == t && s.alg == alg {
				xs = append(xs, s.ms)
			}
		}
		meds = append(meds, median(xs))
	}
	return sum(meds) / float64(len(meds))
}

// reportPasses sets the end-to-end metrics and workload figures from the
// untraced passes.
func reportPasses(o *outcome, passes []passResult) {
	var walls, pstar, lat []float64
	var samples []attackSample
	for _, p := range passes {
		walls = append(walls, p.wallS)
		pstar = append(pstar, p.pstarMS...)
		samples = append(samples, p.attacks...)
	}
	for _, s := range samples {
		lat = append(lat, s.ms)
	}
	o.set("op_ms_p50", median(lat))
	o.set("op_ms_tail", tail(lat))
	o.set("ops_per_s", float64(len(lat))/sum(walls))
	o.set("table_s", median(walls))
	o.set("pstar_ms_p50", median(pstar))
	for _, a := range core.Algorithms() {
		k := algKey(a)
		o.set(k+"_ms_p50", perTableMedianMean(samples, k))
	}
}

func runPaperTable(e *env) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	nets, st, err := buildCities(paperTables)
	if err != nil {
		return nil, err
	}
	o.setSetup(st)
	o.set("heap_mb", heapMB())
	fmt.Fprintf(e.log, "perfbench: paper-table setup %.3fs\n", st.totalS)

	// Passes run while the run's seconds allow, at least two. The traced
	// run makes one, for the figures and the overhead baseline.
	var passes []passResult
	least := 2
	if e.trace {
		least = 1
	}
	start := now()
	for len(passes) < least || (!e.trace && more(now().Sub(start), len(passes), e.seconds)) {
		pr, err := runPass(ctx, nets, e.seed, len(passes), nil, len(passes)+1)
		if err != nil {
			return nil, err
		}
		checkTables(o, pr)
		passes = append(passes, pr)
		fmt.Fprintf(e.log, "perfbench: pass %d %.3fs\n", len(passes), pr.wallS)
	}
	reportPasses(o, passes)
	if !e.trace {
		return o, checkRepeat(ctx, o, nets, e.seed, passes[0])
	}

	tr := newTracer()
	before := readGoStats()
	traced, err := runPass(ctx, nets, e.seed, 0, tr, 2)
	if err != nil {
		return nil, err
	}
	o.setGoDelta(before)
	checkTables(o, traced)
	for i, t := range traced.tables {
		for _, c := range t.Cells {
			o.check(sameCell(passes[0].tables[i].Cell(c.Algorithm, c.CostType), &c),
				"%s %s/%s: traced cell differs from the untraced run's", t.City, c.Algorithm, c.CostType)
		}
	}
	o.set("trace.overhead_pct", overheadPct(passes[0].wallS, traced.wallS))
	o.set("experiment.runner_overhead_ms", traced.runnerOverheadMS)
	yen := durationsMS(tr.named("core.PStarByRank"))
	o.set("graph.yen_ms_p50", median(yen))
	o.set("graph.yen_ms_p90", percentile(yen, 90))
	o.set("graph.yen_rank_miss_ratio", ratio(float64(traced.misses), float64(traced.pstarCalls)))
	paperLayers(ctx, e, o, nets, traced, tr)
	return o, tr.write(fmt.Sprintf("%s/trace-paper-table-%d.json", e.workDir, e.seed))
}

// algTotals accumulates the direct core.RunCtx results of one algorithm.
type algTotals struct {
	attacks, rounds, paths, removed, degraded int
	runtimeMS                                 float64
}

// paperLayers calls the layers under the table runner directly on the
// traced pass's units: core.RunCtx per (algorithm, cost, unit) — whose
// per-cell figures must equal the runner's — plus eigen scores, reverse
// potentials and an overlay build on each intact city.
func paperLayers(ctx context.Context, e *env, o *outcome, nets []*roadnet.Network, pr passResult, tr *tracer) {
	totals := make(map[string]*algTotals)
	for _, a := range core.Algorithms() {
		totals[algKey(a)] = &algTotals{}
	}
	var lpExtra []float64
	var eigMeds, potMeds []float64
	overlayMS := 0.0
	for i, plan := range paperTables {
		net, wt := nets[i], plan.wts[0]
		g, w, snap := net.Graph(), net.Weight(wt), net.Snapshot(wt)
		units := pr.units[i]
		gpcMS := make(map[[2]int]float64)
		lpMS := make(map[[2]int]float64)
		for _, a := range core.Algorithms() {
			for ci, ct := range roadnet.CostTypes() {
				var runs int
				var edges, cost float64
				for ui, u := range units {
					p := core.Problem{
						G: g, Source: u.Source, Dest: u.Dest, PStar: u.PStar,
						Weight: w, Cost: net.Cost(ct), Snapshot: snap,
					}
					var res core.Result
					var err error
					tr.timed("core.RunCtx.direct", 0, 3, func() {
						res, err = core.RunCtx(ctx, a, p, core.Options{Seed: e.seed})
					})
					if err != nil {
						o.check(false, "direct %s %s/%s unit %d: %v", net.Name(), a, ct, ui, err)
						continue
					}
					t := totals[algKey(a)]
					t.attacks++
					t.rounds += res.Rounds
					t.paths += res.ConstraintPaths
					t.removed += len(res.Removed)
					t.runtimeMS += ms(res.Runtime)
					if res.Degraded {
						t.degraded++
					}
					runs++
					edges += float64(len(res.Removed))
					cost += res.TotalCost
					switch a {
					case core.AlgLPPathCover:
						lpMS[[2]int{ci, ui}] = ms(res.Runtime)
					case core.AlgGreedyPathCover:
						gpcMS[[2]int{ci, ui}] = ms(res.Runtime)
					}
				}
				if runs > 0 {
					edges /= float64(runs)
					cost /= float64(runs)
				}
				c := pr.tables[i].Cell(a, ct)
				o.check(sameCell(c, &experiment.Cell{Runs: runs, ANER: edges, ACRE: cost}),
					"%s %s/%s: runner cell differs from direct core.RunCtx (runs %d, ANER %v, ACRE %v)", net.Name(), a, ct, runs, edges, cost)
			}
		}
		for ci := range roadnet.CostTypes() {
			for ui := range units {
				k := [2]int{ci, ui}
				lpExtra = append(lpExtra, lpMS[k]-gpcMS[k])
			}
		}

		var eig []float64
		for k := 0; k < 3; k++ {
			id := tr.timed("graph.EdgeEigenScores", 0, 4, func() { graph.EdgeEigenScores(g, graph.EigenOptions{}) })
			eig = append(eig, ms(tr.get(id).dur()))
		}
		eigMeds = append(eigMeds, median(eig))

		var pot []float64
		for _, u := range units {
			r := graph.NewRouter(g)
			r.UseSnapshot(snap)
			id := tr.timed("graph.ReversePotential", 0, 5, func() { r.ReversePotential(u.Dest, w) })
			pot = append(pot, ms(tr.get(id).dur()))
		}
		potMeds = append(potMeds, median(pot))

		id := tr.timed("overlay.Build", 0, 6, func() {
			ov, err := overlay.Build(ctx, snap, overlay.Params{Seed: citySeed})
			if err == nil {
				_, err = overlay.NewMetric(ctx, ov)
			}
			o.check(err == nil, "overlay build on %s: %v", net.Name(), err)
		})
		overlayMS += ms(tr.get(id).dur())
	}
	all := 0
	degraded := 0
	for _, a := range core.Algorithms() {
		k := algKey(a)
		t := totals[k]
		all += t.attacks
		degraded += t.degraded
		o.set("core.rounds."+k, ratio(float64(t.rounds), float64(t.attacks)))
		o.set("core.removed."+k, ratio(float64(t.removed), float64(t.attacks)))
		o.set("core.ms_per_round."+k, ratio(t.runtimeMS, float64(t.rounds)))
		if a == core.AlgLPPathCover || a == core.AlgGreedyPathCover {
			o.set("core.constraint_paths."+k, ratio(float64(t.paths), float64(t.attacks)))
		}
	}
	o.set("core.degraded_ratio", ratio(float64(degraded), float64(all)))
	o.set("lp.extra_ms_p50", median(lpExtra))
	o.set("graph.eigen_ms", sum(eigMeds)/float64(len(eigMeds)))
	o.set("graph.reverse_potential_ms", sum(potMeds)/float64(len(potMeds)))
	o.set("overlay.build_ms", overlayMS)
}
