package experiment

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/faultinject"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

// buildSmall builds the smallSpec network once per test.
func buildSmall(t *testing.T) (*roadnet.Network, Spec) {
	t.Helper()
	spec := smallSpec()
	net, err := citygen.Build(spec.City, spec.Scale, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	spec.Net = net
	return net, spec
}

func injectedCtx(seed int64, p faultinject.Point, r faultinject.Rule) context.Context {
	return faultinject.With(context.Background(), faultinject.New(seed).Arm(p, r))
}

func TestChaosWorkerPanicIsolatedInParallelTable(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := injectedCtx(1, faultinject.PointWorkerPanic, faultinject.Rule{OnHit: 1})
	table, err := RunTableOnUnitsParallelCtx(ctx, net, units, spec, 3)
	if err != nil {
		t.Fatalf("table run died with a worker panic: %v", err)
	}
	panics, total := 0, 0
	for _, c := range table.Cells {
		panics += c.FailuresByKind["panic"]
		total += c.Runs + c.Failures
	}
	if panics != 1 {
		t.Errorf("panic failures = %d, want exactly 1", panics)
	}
	if want := len(units) * len(table.Cells); total != want {
		t.Errorf("runs+failures = %d, want %d (every unit accounted for)", total, want)
	}
}

func TestChaosWorkerPanicEveryUnitStillCompletes(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge}
	spec.CostTypes = []roadnet.CostType{roadnet.CostUniform}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := injectedCtx(1, faultinject.PointWorkerPanic, faultinject.Rule{Every: 1})
	table, err := RunTableOnUnitsCtx(ctx, net, units, spec)
	if err != nil {
		t.Fatalf("run err = %v", err)
	}
	c := table.Cells[0]
	if c.Runs != 0 || c.Failures != len(units) || c.FailuresByKind["panic"] != len(units) {
		t.Errorf("cell = %+v, want all %d units failed as panics", c, len(units))
	}
}

func TestChaosPerAttackTimeoutCountedByKind(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge}
	spec.CostTypes = []roadnet.CostType{roadnet.CostUniform}
	// An already-expired per-attack deadline: every unit fails fast with
	// ErrTimeout while the run context stays alive, so the failures are
	// journaled per-unit rather than treated as an interruption.
	spec.Options.Timeout = time.Nanosecond
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	table, err := RunTableOnUnitsCtx(context.Background(), net, units, spec)
	if err != nil {
		t.Fatalf("run err = %v", err)
	}
	c := table.Cells[0]
	if c.FailuresByKind["timeout"] != len(units) {
		t.Errorf("timeout failures = %v, want %d", c.FailuresByKind, len(units))
	}
}

func TestChaosLPFailuresProduceDegradedCells(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgLPPathCover}
	spec.CostTypes = []roadnet.CostType{roadnet.CostUniform}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := injectedCtx(1, faultinject.PointLPSolve, faultinject.Rule{Every: 1})
	table, err := RunTableOnUnitsCtx(ctx, net, units, spec)
	if err != nil {
		t.Fatalf("run err = %v", err)
	}
	c := table.Cells[0]
	if c.Failures != 0 {
		t.Errorf("failures = %d (%v), want 0: LP breakdown must degrade, not fail", c.Failures, c.FailuresByKind)
	}
	if c.Degraded != c.Runs || c.Runs == 0 {
		t.Errorf("degraded = %d of %d runs, want all", c.Degraded, c.Runs)
	}
}

func TestRunTableInterruptedReturnsPartialTable(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	table, err := RunTableOnUnitsCtx(ctx, net, units, spec)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("err = %v does not wrap the cancellation cause", err)
	}
	if len(table.Cells) == 0 || len(table.Cells) >= len(spec.Algorithms)*3+1 {
		t.Errorf("partial table has %d cells", len(table.Cells))
	}

	// The parallel runner reports the same interruption.
	table, err = RunTableOnUnitsParallelCtx(ctx, net, units, spec, 2)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("parallel err = %v, want ErrInterrupted", err)
	}
	if len(table.Cells) == 0 {
		t.Error("parallel partial table empty")
	}
}

// dyingCtx is a context that reports itself cancelled from its n-th Err
// call on, so a test can kill a run inside a specific loop.
type dyingCtx struct {
	context.Context
	left atomic.Int64
}

func newDyingCtx(n int64) *dyingCtx {
	c := &dyingCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *dyingCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunTableInterruptedDuringPotentialPrecompute kills the run inside
// the runners' per-destination reverse-potential sweep, before the first
// cell. A sweep cut short leaves +Inf entries that an attack would read
// as "no violation", so the set must be discarded and both runners must
// report ErrInterrupted without attacking or journaling a single unit.
func TestRunTableInterruptedDuringPotentialPrecompute(t *testing.T) {
	net, spec := buildSmall(t)
	spec.Algorithms = []core.Algorithm{core.AlgGreedyEdge}
	units, err := SampleUnits(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	snap := net.Snapshot(spec.WeightType)
	w := net.Weight(spec.WeightType)
	if pots := destPotentials(newDyingCtx(5), net.Graph(), snap, w, units); pots != nil {
		t.Fatalf("precompute under a dying context returned %d potentials, want none", len(pots))
	}
	pots := destPotentials(context.Background(), net.Graph(), snap, w, units)
	r := graph.NewRouter(net.Graph())
	for _, u := range units {
		want := r.ReversePotential(u.Dest, w)
		for v := 0; v < net.NumIntersections(); v++ {
			if got := pots[u.Dest].At(graph.NodeID(v)); got != want.At(graph.NodeID(v)) {
				t.Fatalf("potential for %d at node %d = %v, want %v", u.Dest, v, got, want.At(graph.NodeID(v)))
			}
		}
	}

	runners := map[string]func(context.Context, Spec) (Table, error){
		"serial": func(ctx context.Context, spec Spec) (Table, error) {
			return RunTableOnUnitsCtx(ctx, net, units, spec)
		},
		"parallel": func(ctx context.Context, spec Spec) (Table, error) {
			return RunTableOnUnitsParallelCtx(ctx, net, units, spec, 2)
		},
	}
	for _, name := range []string{"serial", "parallel"} {
		ckpt, err := OpenCheckpoint(filepath.Join(t.TempDir(), "run.ckpt"), testHeader())
		if err != nil {
			t.Fatal(err)
		}
		s := spec
		s.Checkpoint = ckpt
		var attacked atomic.Int64
		s.Audit = func(Record) { attacked.Add(1) }
		_, err = runners[name](newDyingCtx(5), s)
		if !errors.Is(err, ErrInterrupted) {
			t.Errorf("%s: err = %v, want ErrInterrupted", name, err)
		}
		if n := attacked.Load(); n != 0 {
			t.Errorf("%s: %d units attacked after the precompute died", name, n)
		}
		for _, ct := range s.CostTypes {
			for i := range units {
				if _, ok := ckpt.Lookup(net.Name(), s.WeightType.String(), core.AlgGreedyEdge.String(), ct.String(), i); ok {
					t.Errorf("%s: unit %d (%s) journaled after the precompute died", name, i, ct)
				}
			}
		}
		ckpt.Close()
	}
}
