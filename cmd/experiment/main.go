// Command experiment regenerates the paper's evaluation artifacts: Tables
// I-X as text tables and Figures 1-4 as SVG files.
//
// Table/city mapping (paper §III):
//
//	-table 1   city graph summaries (Table I)
//	-table 2   Boston,        weight LENGTH (Table II)
//	-table 3   Boston,        weight TIME   (Table III)
//	-table 4   San Francisco, weight LENGTH (Table IV)
//	-table 5   San Francisco, weight TIME   (Table V)
//	-table 6   Chicago,       weight LENGTH (Table VI)
//	-table 7   Chicago,       weight TIME   (Table VII)
//	-table 8   Los Angeles,   weight TIME   (Table VIII)
//	-table 9   cross-cost-type averages     (Table IX, from tables 2-8)
//	-table 10  path-rank thresholds         (Table X)
//	-all       everything above
//	-figures DIR  write Figures 1-4 SVGs into DIR
//
// The default -scale 0.05 keeps the whole suite in CPU-minutes territory;
// -scale 1 reproduces the paper's full Table I graph sizes. -rank scales
// the alternative-route rank (the paper uses 100) so small graphs stay
// feasible.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"altroute"
	"altroute/internal/citygen"
	"altroute/internal/experiment"
	"altroute/internal/metrics"
	"altroute/internal/roadnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiment:", err)
		os.Exit(1)
	}
}

// tableSpec maps a paper table number to its city and weight type.
type tableSpec struct {
	city   citygen.City
	weight roadnet.WeightType
}

var tableSpecs = map[int]tableSpec{
	2: {citygen.Boston, roadnet.WeightLength},
	3: {citygen.Boston, roadnet.WeightTime},
	4: {citygen.SanFrancisco, roadnet.WeightLength},
	5: {citygen.SanFrancisco, roadnet.WeightTime},
	6: {citygen.Chicago, roadnet.WeightLength},
	7: {citygen.Chicago, roadnet.WeightTime},
	8: {citygen.LosAngeles, roadnet.WeightTime},
}

// figureSpec maps a paper figure to its city/weight/cost combination.
type figureSpec struct {
	num    int
	city   citygen.City
	weight roadnet.WeightType
	cost   roadnet.CostType
}

var figureSpecs = []figureSpec{
	{1, citygen.Boston, roadnet.WeightLength, roadnet.CostWidth},
	{2, citygen.SanFrancisco, roadnet.WeightLength, roadnet.CostWidth},
	{3, citygen.Chicago, roadnet.WeightLength, roadnet.CostUniform},
	{4, citygen.LosAngeles, roadnet.WeightTime, roadnet.CostLanes},
}

type runner struct {
	scale   float64
	seed    int64
	rank    int
	sources int
	workers int
	timeout time.Duration
	ctx     context.Context
	ckpt    *experiment.Checkpoint
	nets    map[citygen.City]*altroute.Network
}

func (r *runner) network(c citygen.City) (*altroute.Network, error) {
	if net, ok := r.nets[c]; ok {
		return net, nil
	}
	net, err := citygen.Build(c, r.scale, r.seed)
	if err != nil {
		return nil, err
	}
	r.nets[c] = net
	return net, nil
}

func (r *runner) spec(ts tableSpec) (experiment.Spec, error) {
	net, err := r.network(ts.city)
	if err != nil {
		return experiment.Spec{}, err
	}
	return experiment.Spec{
		Net:                net,
		WeightType:         ts.weight,
		Seed:               r.seed,
		PathRank:           r.rank,
		SourcesPerHospital: r.sources,
		Options:            altroute.Options{Timeout: r.timeout},
		Checkpoint:         r.ckpt,
	}, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	var (
		tableNum = fs.Int("table", 0, "table to regenerate (1-10); 0 with -all unset prints usage")
		all      = fs.Bool("all", false, "regenerate every table")
		figDir   = fs.String("figures", "", "write Figures 1-4 SVGs into this directory")
		scale    = fs.Float64("scale", 0.05, "city scale (1 = full Table I size)")
		seed     = fs.Int64("seed", 1, "random seed")
		rank     = fs.Int("rank", 0, "p* path rank (default: 100*scale, min 10)")
		sources  = fs.Int("sources", 10, "random sources per hospital")
		workers  = fs.Int("workers", 0, "parallel cell workers (0 = all cores, 1 = serial)")
		timeout  = fs.Duration("timeout", 0, "per-attack deadline (0 = none); timed-out LP-PathCover attacks degrade to greedy covers")
		ckptPath = fs.String("checkpoint", "", "journal completed attacks to this file and resume from it")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiment: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiment: memprofile:", err)
			}
		}()
	}
	if *rank <= 0 {
		*rank = int(100 * *scale)
		if *rank < 20 {
			*rank = 20
		}
	}
	// SIGINT/SIGTERM cancel the run context: the table runners stop at their
	// next poll point, the partial table is rendered, and the checkpoint
	// (if any) is flushed so the next invocation resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := &runner{scale: *scale, seed: *seed, rank: *rank, sources: *sources,
		workers: *workers, timeout: *timeout, ctx: ctx,
		nets: map[citygen.City]*altroute.Network{}}
	if *ckptPath != "" {
		ckpt, err := experiment.OpenCheckpoint(*ckptPath, experiment.Header{
			Seed: *seed, Scale: *scale, PathRank: *rank, Sources: *sources,
		})
		if err != nil {
			return err
		}
		defer ckpt.Close()
		r.ckpt = ckpt
	}

	if !*all && *tableNum == 0 && *figDir == "" {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -table N, -all, or -figures DIR")
	}

	wanted := func(n int) bool { return *all || *tableNum == n }

	if wanted(1) {
		if err := printTableI(r); err != nil {
			return err
		}
	}

	var tables []experiment.Table
	needAggregates := wanted(9)
	for n := 2; n <= 8; n++ {
		if !wanted(n) && !needAggregates {
			continue
		}
		spec, err := r.spec(tableSpecs[n])
		if err != nil {
			return err
		}
		table, err := r.runTable(spec)
		if errors.Is(err, experiment.ErrInterrupted) {
			// Flush what we have: the partial table plus (via the deferred
			// Close) the checkpoint journal, then report the interruption.
			fmt.Printf("\n=== TABLE %s (paper Table %d) — PARTIAL, run interrupted ===\n", roman(n), n)
			table.Render(os.Stdout)
			return fmt.Errorf("table %d: %w", n, err)
		}
		if err != nil {
			return fmt.Errorf("table %d: %w", n, err)
		}
		tables = append(tables, table)
		if wanted(n) {
			fmt.Printf("\n=== TABLE %s (paper Table %d) ===\n", roman(n), n)
			table.Render(os.Stdout)
		}
	}
	if wanted(9) {
		fmt.Printf("\n=== TABLE IX ===\n")
		experiment.RenderTableIX(os.Stdout, experiment.Aggregate(tables))
	}
	if wanted(10) {
		if err := printTableX(r); err != nil {
			return err
		}
	}
	if *figDir != "" {
		if err := writeFigures(r, *figDir); err != nil {
			return err
		}
	}
	return nil
}

// runTable executes one table under the run context, spreading cells across
// workers unless the serial runner was requested.
func (r *runner) runTable(spec experiment.Spec) (experiment.Table, error) {
	if r.workers == 1 {
		return experiment.RunTableCtx(r.ctx, spec)
	}
	units, err := experiment.SampleUnits(spec.Net, spec)
	if err != nil {
		return experiment.Table{}, err
	}
	return experiment.RunTableOnUnitsParallelCtx(r.ctx, spec.Net, units, spec, r.workers)
}

func printTableI(r *runner) error {
	var rows []metrics.GraphSummary
	fmt.Println("\n=== TABLE I ===")
	fmt.Printf("(paper targets: Boston 11171/25715, SF 9659/~26900, Chicago 29299/78046, LA 51716/141992; scale %.3f)\n", r.scale)
	for _, c := range citygen.Cities() {
		net, err := r.network(c)
		if err != nil {
			return err
		}
		rows = append(rows, metrics.Summarize(net))
	}
	experiment.RenderTableI(os.Stdout, rows)
	return nil
}

func printTableX(r *runner) error {
	fmt.Printf("\n=== TABLE X ===\n")
	var rows []experiment.ThresholdRow
	// The paper's Table X covers Boston, San Francisco, and Chicago.
	for _, c := range []citygen.City{citygen.Boston, citygen.SanFrancisco, citygen.Chicago} {
		net, err := r.network(c)
		if err != nil {
			return err
		}
		row, err := experiment.RunThreshold(experiment.Spec{
			Net:                net,
			Seed:               r.seed,
			PathRank:           r.rank,
			SourcesPerHospital: r.sources,
		})
		if err != nil {
			return fmt.Errorf("threshold %v: %w", c, err)
		}
		rows = append(rows, row)
	}
	experiment.RenderTableX(os.Stdout, rows, r.rank)
	return nil
}

func writeFigures(r *runner, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range figureSpecs {
		net, err := r.network(f.city)
		if err != nil {
			return err
		}
		w := net.Weight(f.weight)
		hospital := net.POIsOfKind(citygen.KindHospital)[0]

		// Random source with the required rank, like the paper's examples.
		rng := rand.New(rand.NewSource(r.seed + int64(f.num)))
		var problem altroute.Problem
		found := false
		for i := 0; i < 400 && !found; i++ {
			src := altroute.NodeID(rng.Intn(net.NumIntersections()))
			if src == hospital.Node {
				continue
			}
			wt := roadnet.WeightLength
			if f.weight == roadnet.WeightTime {
				wt = roadnet.WeightTime
			}
			if p, err := altroute.NewProblem(net, src, hospital.Node, r.rank, wt, f.cost, 0); err == nil {
				problem, found = p, true
			}
		}
		if !found {
			return fmt.Errorf("figure %d: no viable source", f.num)
		}
		res, err := altroute.Attack(altroute.AlgGreedyPathCover, problem, altroute.Options{Seed: r.seed})
		if err != nil {
			return fmt.Errorf("figure %d: %w", f.num, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("figure%d.svg", f.num))
		title := fmt.Sprintf("Fig %d: %s -> %s | weight %s | cost %s | %d cuts",
			f.num, f.city, hospital.Name, f.weight, f.cost, len(res.Removed))
		err = altroute.WriteSVGFile(path, altroute.Scene{
			Net: net, Source: problem.Source, Dest: problem.Dest,
			PStar: problem.PStar, Removed: res.Removed, Title: title,
		})
		if err != nil {
			return err
		}
		_ = w
		fmt.Println("wrote", path)
	}
	return nil
}

// roman renders 1-10 as a Roman numeral for table headers.
func roman(n int) string {
	numerals := []string{"", "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"}
	if n >= 0 && n < len(numerals) {
		return numerals[n]
	}
	return fmt.Sprint(n)
}
