// Command perfbench is the repository's end-to-end benchmark. It drives the
// program from outside, through its public entry points (citygen.Build,
// core.PStarByRank, experiment.RunTableOnUnitsCtx, traffic.AttackImpact
// and the cmd/serve binary over loopback HTTP), in the default
// configuration, and checks every output it times.
//
//	perfbench -serve-bin BIN -work-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - paper-table: the paper's Tables III and VI at Table I scale, p* = the
//     100th-shortest path, all four algorithms x three cost types, one
//     closed-loop goroutine.
//   - serve-mixed: open-loop Poisson /v1/attack traffic against a cmd/serve
//     subprocess (hot cached / warm pathset-hit / cold requests), at a
//     fixed rate and then up a short rate ladder.
//   - traffic-impact: traffic.AttackImpact on Los Angeles, one closed-loop
//     goroutine.
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 the run is measured twice, untraced
// and then with spans recorded around every call into a layer, and the JSON
// holds the per-layer metrics. Lines before it print every figure by name
// with its unit. A failed output check prints "correct": false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off, so
// that each means the same on every workload:
//
//   - setup_s: the program's set-up, median of setupReps (city build and
//     Freeze in-process; exec to /readyz 200 for cmd/serve).
//   - heap_mb: live Go heap after set-up and a GC.
//   - op_ms_p50, op_ms_tail: an operation's latency, median and the
//     highest percentile with at least minBeyond samples past it (the
//     largest sample when there are too few). An operation is one attack
//     of a table (paper-table); one /v1/attack request at the fixed rate,
//     timed from when it was due (serve-mixed); one AttackImpact call,
//     averaged over a round of the demand groups (traffic-impact).
//   - ops_per_s: operations completed per second: attacks per second of
//     table time, p* included (paper-table); 2xx responses per second at
//     the fixed rate, which falls below the offered rate only when the
//     server cannot keep up (serve-mixed); AttackImpact calls per second
//     (traffic-impact).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"ops_per_s", "1/s"},
}

// workloadFigures are the workload-specific end-to-end figures. Each run
// prints the ones its workload produces; the traced run also reports them,
// from its untraced pass, among the per-layer metrics (0 on workloads that
// do not produce them).
var workloadFigures = []metricSpec{
	{"table_s", "s"},
	{"pstar_ms_p50", "ms"},
	{"lp_ms_p50", "ms"},
	{"gpc_ms_p50", "ms"},
	{"edge_ms_p50", "ms"},
	{"eig_ms_p50", "ms"},
	{"req_ms_p50", "ms"},
	{"req_ms_p99", "ms"},
	{"goodput_rps", "1/s"},
	{"sustained_rps", "1/s"},
	{"impact_s", "s"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0.
var perLayer = append([]metricSpec{
	{"citygen.build_ms", "ms"},
	{"roadnet.snapshot_ms", "ms"},
	{"roadnet.clone_ms", "ms"},
	{"graph.yen_ms_p50", "ms"},
	{"graph.yen_ms_p90", "ms"},
	{"graph.yen_rank_miss_ratio", "ratio"},
	{"graph.eigen_ms", "ms"},
	{"graph.reverse_potential_ms", "ms"},
	{"graph.p2p_live_ms_p50", "ms"},
	{"graph.p2p_csr_ms_p50", "ms"},
	{"overlay.build_ms", "ms"},
	{"core.rounds.lp", "count"},
	{"core.rounds.gpc", "count"},
	{"core.rounds.edge", "count"},
	{"core.rounds.eig", "count"},
	{"core.constraint_paths.lp", "count"},
	{"core.constraint_paths.gpc", "count"},
	{"core.removed.lp", "count"},
	{"core.removed.gpc", "count"},
	{"core.removed.edge", "count"},
	{"core.removed.eig", "count"},
	{"core.ms_per_round.lp", "ms"},
	{"core.ms_per_round.gpc", "ms"},
	{"core.ms_per_round.edge", "ms"},
	{"core.ms_per_round.eig", "ms"},
	{"core.degraded_ratio", "ratio"},
	{"lp.extra_ms_p50", "ms"},
	{"experiment.runner_overhead_ms", "ms"},
	{"server.hot_ms_p50", "ms"},
	{"server.hot_ms_p99", "ms"},
	{"server.warm_ms_p50", "ms"},
	{"server.warm_ms_p99", "ms"},
	{"server.cold_ms_p50", "ms"},
	{"server.cold_ms_p99", "ms"},
	{"server.overhead_ms_p50.warm", "ms"},
	{"server.overhead_ms_p50.cold", "ms"},
	{"server.loopback_ms_p50", "ms"},
	{"server.reject_ratio", "ratio"},
	{"gen.late_ms_p99", "ms"},
	{"registry.result_hit_ratio", "ratio"},
	{"registry.pathset_hit_ratio", "ratio"},
	{"registry.pool_miss_ratio", "ratio"},
	{"registry.evictions", "count"},
	{"registry.coalesce_join_ratio", "ratio"},
	{"audit.records_per_seal", "count"},
	{"audit.fsyncs", "count"},
	{"traffic.assign_ms", "ms"},
	{"traffic.queries", "count"},
	{"traffic.ms_per_query", "ms"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb", "MiB"},
	{"trace.overhead_pct", "%"},
}, workloadFigures...)

// env is what a workload run is given.
type env struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	serveBin string
	workDir  string
	log      io.Writer
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	// problems lists failed output checks; any entry fails the run.
	problems []string
	values   map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric value.
func (o *outcome) set(name string, v float64) { o.values[name] = v }

var workloads = map[string]func(*env) (*outcome, error){
	"paper-table":    runPaperTable,
	"serve-mixed":    runServeMixed,
	"traffic-impact": runTrafficImpact,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage marks a command-line error.
var errUsage = errors.New("usage")

func run(args []string, stdout, stderr io.Writer) int {
	e, name, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w := workloads[name]
	fmt.Fprintf(stderr, "perfbench: workload %s seed %d seconds %v trace %v (GOMAXPROCS %d)\n",
		name, e.seed, e.seconds, e.trace, runtime.GOMAXPROCS(0))
	out, err := w(e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	specs := endToEnd
	if e.trace {
		specs = perLayer
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), workloadFigures...) {
		if v, ok := out.values[s.name]; ok && !e.trace {
			fmt.Fprintf(stdout, "%-32s %14.4f %s\n", s.name, v, s.unit)
		}
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]jsonMetric, len(specs)),
	}
	for _, s := range specs {
		v := out.values[s.name]
		if e.trace {
			fmt.Fprintf(stdout, "%-32s %14.4f %s\n", s.name, v, s.unit)
		}
		res.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "perfbench: CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*env, string, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-table, serve-mixed or traffic-impact")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	serveBin := fs.String("serve-bin", "", "cmd/serve binary (serve-mixed)")
	workDir := fs.String("work-dir", ".bench_build", "directory for scratch files and span dumps")
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}
	if _, ok := workloads[*name]; !ok {
		return nil, "", fmt.Errorf("%w: unknown -workload %q", errUsage, *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return nil, "", fmt.Errorf("%w: -seconds must be >= 1 and -trace 0 or 1", errUsage)
	}
	return &env{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		serveBin: *serveBin,
		workDir:  *workDir,
		log:      stderr,
	}, *name, nil
}

// heapMB collects garbage and returns the live Go heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// goStats is a snapshot of the runtime's cumulative GC counters.
type goStats struct{ pauseNS, allocBytes uint64 }

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{pauseNS: m.PauseTotalNs, allocBytes: m.TotalAlloc}
}

// setGoDelta reports GC pause and allocation since before.
func (o *outcome) setGoDelta(before goStats) {
	after := readGoStats()
	o.set("go.gc_pause_ms", float64(after.pauseNS-before.pauseNS)/1e6)
	o.set("go.alloc_mb", float64(after.allocBytes-before.allocBytes)/(1<<20))
}

// overheadPct is how much slower the traced figure is than the untraced
// one, in percent of the untraced one.
func overheadPct(untraced, traced float64) float64 {
	return 100 * ratio(traced-untraced, untraced)
}
