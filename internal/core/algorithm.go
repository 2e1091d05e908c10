package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"altroute/internal/faultinject"
	"altroute/internal/graph"
)

// Algorithm identifies one of the paper's four Force Path Cut algorithms.
type Algorithm int

// The four algorithms evaluated in the paper, in its presentation order.
const (
	AlgLPPathCover Algorithm = iota + 1
	AlgGreedyPathCover
	AlgGreedyEdge
	AlgGreedyEig
)

var algorithmNames = map[Algorithm]string{
	AlgLPPathCover:     "LP-PathCover",
	AlgGreedyPathCover: "GreedyPathCover",
	AlgGreedyEdge:      "GreedyEdge",
	AlgGreedyEig:       "GreedyEig",
}

// String implements fmt.Stringer using the paper's names.
func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm parses a case-insensitive algorithm name, with or without
// the hyphen in LP-PathCover.
func ParseAlgorithm(s string) (Algorithm, error) {
	key := strings.ToLower(strings.ReplaceAll(strings.TrimSpace(s), "-", ""))
	for a, name := range algorithmNames {
		if key == strings.ToLower(strings.ReplaceAll(name, "-", "")) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want one of LP-PathCover, GreedyPathCover, GreedyEdge, GreedyEig)", s)
}

// Algorithms lists all algorithms in paper order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgLPPathCover, AlgGreedyPathCover, AlgGreedyEdge, AlgGreedyEig}
}

// Options tunes the algorithms. The zero value uses sensible defaults.
type Options struct {
	// MaxRounds bounds constraint-generation rounds (PathCover algorithms)
	// and cuts (naive algorithms). Default 10000.
	MaxRounds int
	// LPRoundingTrials is the number of randomized rounding attempts per
	// LP solve (LP-PathCover only). The deterministic threshold rounding
	// always runs; trials can only improve it. Default 16.
	LPRoundingTrials int
	// Seed drives the randomized rounding. The default 0 is a valid seed
	// (runs are always deterministic for a fixed seed).
	Seed int64
	// RecomputeEigen makes GreedyEig recompute centrality after every cut
	// instead of scoring once on the intact graph. Slower; occasionally
	// cheaper cuts. Default false, matching PATHATTACK.
	RecomputeEigen bool
	// Timeout is the per-attack deadline. When it expires, LP-PathCover
	// degrades to the greedy cover of its current constraint pool
	// (Result.Degraded); every other algorithm aborts with ErrTimeout.
	// 0 means no per-attack deadline (an ancestor context deadline, if
	// any, still applies).
	Timeout time.Duration
	// MaxPivots bounds simplex pivots per LP solve (LP-PathCover only);
	// 0 uses the solver default. See lp.Problem.MaxPivots.
	MaxPivots int
}

func (o *Options) fill() {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 10000
	}
	if o.LPRoundingTrials <= 0 {
		o.LPRoundingTrials = 16
	}
}

// Result reports a successful attack plan.
type Result struct {
	// Algorithm that produced the plan.
	Algorithm Algorithm
	// Removed is the edge cut, in the order chosen.
	Removed []graph.EdgeID
	// TotalCost is the summed removal cost of the cut (the paper's ACRE
	// numerator).
	TotalCost float64
	// Rounds counts outer iterations: constraint-generation rounds for the
	// PathCover algorithms, cuts for the naive algorithms.
	Rounds int
	// ConstraintPaths counts violating paths generated (PathCover
	// algorithms; equals Rounds for the naive ones).
	ConstraintPaths int
	// Runtime is the wall-clock duration of the attack computation.
	Runtime time.Duration
	// Degraded marks a best-effort plan produced under failure: the attack
	// deadline expired mid-search (the cut covers every violating path
	// found so far but p* may not yet be exclusive), or the LP solver broke
	// down and the greedy cover substituted for it. DegradedReason says
	// which.
	Degraded bool
	// DegradedReason is a human-readable explanation when Degraded is set.
	DegradedReason string
}

// Run executes the chosen algorithm on p. The input graph is left exactly
// as it was found; apply the returned cut with Apply to commit the attack.
// Run is a thin context.Background() wrapper over RunCtx.
func Run(alg Algorithm, p Problem, opts Options) (Result, error) {
	return RunCtx(context.Background(), alg, p, opts)
}

// RunCtx executes the chosen algorithm on p under ctx. The attack is
// cancelled cooperatively: the constraint-generation/cut loops, Yen's spur
// searches, and the simplex pivot loop all poll the context, so
// cancellation latency is bounded by a single spur search or a few dozen
// pivots.
//
// Failure semantics:
//
//   - Options.Timeout (or an ancestor deadline) expiring surfaces as
//     ErrTimeout — except for LP-PathCover with a non-empty constraint
//     pool, which returns the pool's greedy cover flagged Degraded.
//   - Cancellation surfaces as ErrCancelled; the original cause is
//     wrapped and reachable via errors.Is/As.
//   - A panic anywhere in the attack is recovered into an ErrPanic-wrapped
//     error carrying the panic value and stack, so one poisoned instance
//     costs one failed call, not the process.
func RunCtx(ctx context.Context, alg Algorithm, p Problem, opts Options) (Result, error) {
	return run(ctx, alg, opts, func(ctx context.Context, opts Options) (Result, error) {
		switch alg {
		case AlgLPPathCover:
			return lpPathCover(ctx, []Problem{p}, opts)
		case AlgGreedyPathCover:
			return greedyPathCover(ctx, []Problem{p}, opts)
		case AlgGreedyEdge:
			return greedyEdge(ctx, p, opts)
		case AlgGreedyEig:
			return greedyEig(ctx, p, opts)
		}
		return Result{}, fmt.Errorf("%w: unknown algorithm %d", ErrInvalidProblem, alg)
	})
}

// run is the harness RunCtx and RunMultiCtx share: it fills the option
// defaults, applies Options.Timeout to ctx, recovers a panic in attack
// into an ErrPanic error, and stamps Algorithm and Runtime on success.
func run(ctx context.Context, alg Algorithm, opts Options, attack func(context.Context, Options) (Result, error)) (res Result, err error) {
	opts.fill()
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, opts.Timeout, ErrTimeout)
		defer cancel()
	}
	start := time.Now() //lint:allow wallclock measuring Result.Runtime; never feeds attack decisions
	defer func() {
		if rec := recover(); rec != nil {
			res = Result{}
			err = panicErr(alg, rec)
		}
	}()
	res, err = attack(ctx, opts)
	if err != nil {
		return Result{}, err
	}
	res.Algorithm = alg
	res.Runtime = time.Since(start) //lint:allow wallclock measuring Result.Runtime; never feeds attack decisions
	return res, nil
}

// panicErr converts a recovered panic into a per-attack failure that
// records the panic value and the stack it unwound from.
func panicErr(alg Algorithm, rec any) error {
	return fmt.Errorf("%w: %v (%v)\n%s", ErrPanic, rec, alg, debug.Stack())
}

// ctxErr maps a done context onto the typed sentinels, wrapping the
// original cause so errors.Is sees both (e.g. ErrTimeout and
// context.DeadlineExceeded).
func ctxErr(ctx context.Context) error {
	cause := context.Cause(ctx)
	switch {
	case cause == nil:
		return nil
	case errors.Is(cause, ErrTimeout), errors.Is(cause, ErrCancelled):
		return cause
	case errors.Is(cause, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrTimeout, cause)
	default:
		return fmt.Errorf("%w: %w", ErrCancelled, cause)
	}
}

// injectRound fires the chaos-test fault points placed at the top of every
// attack round. A stall blocks until the context dies, simulating a hung
// solve (arm it only with a deadline); a panic exercises RunCtx's recovery.
func injectRound(ctx context.Context) {
	if faultinject.Fires(ctx, faultinject.PointAttackStall) {
		<-ctx.Done()
	}
	if faultinject.Fires(ctx, faultinject.PointAttackPanic) {
		panic(fmt.Sprintf("injected panic at %s", faultinject.PointAttackPanic))
	}
}
