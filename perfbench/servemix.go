package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"altroute/internal/citygen"
	"altroute/internal/core"
	"altroute/internal/graph"
	"altroute/internal/overlay"
	"altroute/internal/registry"
	"altroute/internal/roadnet"
	"altroute/internal/server"
)

// coldKey is one never-seen (pair, weight type): its first request runs
// Yen and the attack.
type coldKey struct {
	p  pair
	wt roadnet.WeightType
}

// phaseSpec is an open-loop phase: its offered rate and length.
type phaseSpec struct {
	rps  float64
	span time.Duration
}

// planner draws the seeded request mix.
type planner struct {
	rng      *rand.Rand
	hot      []pair
	hotBody  [][]byte
	cold     []coldKey
	nextCold int
	warmSeed int64
}

var costTypes = roadnet.CostTypes()

func attackBody(p pair, alg core.Algorithm, wt roadnet.WeightType, ct roadnet.CostType, seed int64) []byte {
	b, err := json.Marshal(server.AttackRequest{
		City: "boston", Source: p.src, Dest: p.dst, Rank: pathRank,
		Algorithm: alg.String(), Weight: wt.String(), Cost: ct.String(), Seed: seed,
	})
	if err != nil {
		panic(err) // a fixed struct of strings and numbers always encodes
	}
	return b
}

// classCounts splits n requests into the hot/warm/cold shares.
func classCounts(n int) (hot, warm, cold int) {
	hot = int(math.Round(hotShare * float64(n)))
	warm = int(math.Round(warmShare * float64(n)))
	return hot, warm, n - hot - warm
}

// phaseSize is the request count of a phase at rps for span.
func phaseSize(rps float64, span time.Duration) int {
	return int(math.Round(rps * span.Seconds()))
}

// phase plans rps x span requests with exactly the class shares, in a
// seeded order, on seeded Poisson due times.
func (pl *planner) phase(rps float64, span time.Duration) []planned {
	n := phaseSize(rps, span)
	nh, nw, _ := classCounts(n)
	classes := make([]reqClass, n)
	for i := range classes {
		switch {
		case i < nh:
			classes[i] = classHot
		case i < nh+nw:
			classes[i] = classWarm
		default:
			classes[i] = classCold
		}
	}
	pl.rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	dues := scheduleDues(n, span, pl.rng.Float64)
	algs := core.Algorithms()
	out := make([]planned, n)
	for i, c := range classes {
		q := planned{due: dues[i], class: c, hot: -1}
		switch c {
		case classHot:
			q.hot = pl.rng.Intn(len(pl.hotBody))
			q.body = pl.hotBody[q.hot]
		case classWarm:
			pl.warmSeed++
			q.body = attackBody(pl.hot[pl.rng.Intn(len(pl.hot))], algs[pl.rng.Intn(len(algs))],
				roadnet.WeightTime, costTypes[pl.rng.Intn(len(costTypes))], pl.warmSeed)
		case classCold:
			k := pl.cold[pl.nextCold]
			pl.nextCold++
			q.body = attackBody(k.p, algs[pl.rng.Intn(len(algs))], k.wt, costTypes[pl.rng.Intn(len(costTypes))], 0)
		}
		out[i] = q
	}
	return out
}

// validatePairs draws seeded (source, hospital) candidates and keeps the
// first want whose rank-100 path exists, timing each core.PStarByRank.
// Sources come from the Dijkstra rank band towards the hospital, so the
// Yen work of a cold request is alike across seeds. Candidates are checked on two goroutines but kept
// in draw order, so the result does not depend on scheduling.
func validatePairs(net *roadnet.Network, rng *rand.Rand, want int) ([]pair, []float64, int) {
	hs := net.POIsOfKind(citygen.KindHospital)
	w := net.Weight(roadnet.WeightTime)
	near := make([][]graph.NodeID, len(hs))
	for i, h := range hs {
		near[i] = byDistanceTo(net, h.Node)
	}
	n := net.NumIntersections()
	lo, hi := int(rankBandLo*float64(n)), int(rankBandHi*float64(n))
	seen := make(map[pair]bool)
	var out []pair
	var yenMS []float64
	misses := 0
	for len(out) < want {
		var cands []pair
		for len(cands) < want-len(out)+4 {
			i := len(cands) % len(hs)
			p := pair{src: int64(near[i][lo+rng.Intn(hi-lo)]), dst: int64(hs[i].Node)}
			if p.src != p.dst && !seen[p] {
				seen[p] = true
				cands = append(cands, p)
			}
		}
		ok := make([]bool, len(cands))
		took := make([]float64, len(cands))
		next := make(chan int, len(cands)) // holds every index: the producer never blocks
		for i := range cands {
			next <- i
		}
		close(next)
		var wg sync.WaitGroup
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					t0 := now()
					_, err := core.PStarByRank(net.Graph(), graph.NodeID(cands[i].src), graph.NodeID(cands[i].dst), pathRank, w)
					took[i] = ms(now().Sub(t0))
					ok[i] = err == nil
				}
			}()
		}
		wg.Wait()
		for i, p := range cands {
			yenMS = append(yenMS, took[i])
			if !ok[i] {
				misses++
				continue
			}
			if len(out) < want {
				out = append(out, p)
			}
		}
	}
	return out, yenMS, misses
}

// serveReplica builds in-process what cmd/serve builds at startup for the
// benchmark's flags — the Boston shard with its snapshots and potentials,
// and the server with its ledger — and measures the live heap it holds.
func serveReplica(ctx context.Context, net *roadnet.Network, dir string) (float64, error) {
	shard, err := registry.NewShardWithOptions(ctx, "boston", net, registry.ShardOptions{PoolSize: serveCapacity})
	if err != nil {
		return 0, err
	}
	reg := registry.NewRegistry()
	if err := reg.Add(shard); err != nil {
		return 0, err
	}
	srv, err := server.New(server.Config{
		Registry: reg, CacheBytes: serveCacheMB << 20, Capacity: serveCapacity, MaxQueue: serveQueue,
		MaxRequestUnits: serveMaxUnits, UnitWork: 2e6, Scale: cityScale,
		AuditDir: dir, AuditFlushEvery: 100 * time.Millisecond, AuditFlushRecords: serveAuditRecs,
	})
	if err != nil {
		return 0, err
	}
	heap := heapMB()
	if l := srv.Ledger(); l != nil {
		if err := l.Close(); err != nil {
			return 0, err
		}
	}
	return heap, nil
}

func runServeMixed(e *env) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	conns := runtime.NumCPU()
	dir, err := os.MkdirTemp(e.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(e.seed*2147483647 + 11))

	// The phases, sized up front so the cold pairs can be validated first.
	fixedSpan := time.Duration(fixedShare * float64(e.seconds))
	stepSpan := time.Duration((1 - fixedShare) * float64(e.seconds) / float64(len(ladderRPS)))
	// The traced run repeats the fixed-rate phase traced, right after the
	// untraced one, before the ladder loads the server.
	phases := []phaseSpec{{fixedRPS, fixedSpan}}
	if e.trace {
		phases = append(phases, phases[0])
	}
	for _, rps := range ladderRPS {
		phases = append(phases, phaseSpec{rps, stepSpan})
	}
	coldNeed := 0
	for _, ph := range phases {
		_, _, c := classCounts(phaseSize(ph.rps, ph.span))
		coldNeed += c
	}

	net, err := citygen.Build(citygen.Boston, cityScale, citySeed)
	if err != nil {
		return nil, err
	}
	pairs, yenMS, misses := validatePairs(net, rng, hotPairs+(coldNeed+1)/2)
	pl := &planner{rng: rng, hot: pairs[:hotPairs]}
	for _, p := range pairs[hotPairs:] {
		pl.cold = append(pl.cold, coldKey{p, roadnet.WeightTime}, coldKey{p, roadnet.WeightLength})
	}
	for _, p := range pl.hot {
		for _, a := range core.Algorithms() {
			pl.hotBody = append(pl.hotBody, attackBody(p, a, roadnet.WeightTime, roadnet.CostUniform, 0))
		}
	}
	heap, err := serveReplica(ctx, net, filepath.Join(dir, "replica-audit"))
	if err != nil {
		return nil, fmt.Errorf("in-process server setup: %w", err)
	}
	o.set("heap_mb", heap)
	if e.trace {
		serveLayers(ctx, o, net, yenMS, misses)
	}
	net = nil

	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()

	// Program setup: exec -> /readyz 200, setupReps times; the last server
	// stays up for the measurement.
	var setups []float64
	var sp *serverProc
	auditDir := ""
	for rep := 0; rep < setupReps; rep++ {
		auditDir = filepath.Join(dir, fmt.Sprintf("audit-%d", rep))
		s, took, err := startServer(e.serveBin, auditDir, e.trace, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
		if rep < setupReps-1 {
			client.CloseIdleConnections()
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		sp = s
	}
	o.set("setup_s", median(setups))
	fmt.Fprintf(e.log, "perfbench: serve-mixed setup %.3fs, %d cold pairs validated\n", median(setups), len(pairs)-hotPairs)

	err = measureServe(e, o, sp, client, pl, phases, conns)
	client.CloseIdleConnections()
	stopErr := sp.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}
	out, verr := exec.Command(e.serveBin, "-verify-audit", auditDir).CombinedOutput()
	o.check(verr == nil, "cmd/serve -verify-audit %s: %v: %s", auditDir, verr, out)
	return o, nil
}

// measureServe warms the hot set, runs the phases and reports.
func measureServe(e *env, o *outcome, sp *serverProc, client *http.Client, pl *planner, phases []phaseSpec, conns int) error {
	// Warm-up: each hot request's first computation is its reference.
	refs := make([]server.AttackResponse, len(pl.hotBody))
	for i, body := range pl.hotBody {
		status, resp, err := post(client, sp.addr, body)
		o.attempted++
		if err != nil || status != http.StatusOK {
			o.failed++
			return fmt.Errorf("warm-up request %d: status %d: %v", i, status, err)
		}
		refs[i] = resp
	}

	var tr *tracer
	var results []*phaseResult
	var h0, h1 healthz
	var gcFrom, gcTo time.Time
	for k, ph := range phases {
		plan := pl.phase(ph.rps, ph.span)
		traced := e.trace && k == 1
		if traced {
			tr = newTracer()
			var loop []float64
			for i := 0; i < healthzProbes; i++ {
				t0 := now()
				if _, err := getHealthz(client, sp.addr); err != nil {
					return err
				}
				loop = append(loop, ms(now().Sub(t0)))
			}
			o.set("server.loopback_ms_p50", median(loop))
			var err error
			if h0, err = getHealthz(client, sp.addr); err != nil {
				return err
			}
			gcFrom = now()
		}
		res := runPhase(client, sp.addr, plan, ph.rps, conns, tr, k*100000)
		if traced {
			gcTo = now()
			var err error
			if h1, err = getHealthz(client, sp.addr); err != nil {
				return err
			}
		}
		checkPhase(o, res, refs)
		results = append(results, res)
		fmt.Fprintf(e.log, "perfbench: phase %d: %.0f rps offered, goodput %.1f/s, p50 %.2fms tail %.2fms, late p99 %.2fms, meets limit %v\n",
			k, ph.rps, res.goodput(), median(res.latencies(nil)), tail(res.latencies(nil)), percentile(res.lateMS(), 99), res.meetsLimit())
	}

	fixed := results[0]
	lat := fixed.latencies(nil)
	steps := results[len(results)-len(ladderRPS):]
	sustained := fixed
	for _, r := range steps {
		if r.meetsLimit() && r.rps > sustained.rps {
			sustained = r
		}
	}
	o.set("op_ms_p50", median(lat))
	o.set("op_ms_tail", tail(lat))
	o.set("ops_per_s", fixed.goodput())
	o.set("req_ms_p50", median(lat))
	o.set("req_ms_p99", percentile(lat, 99))
	o.set("goodput_rps", fixed.goodput())
	o.set("sustained_rps", sustained.goodput())
	if !e.trace {
		return nil
	}

	traced := results[1]
	tlat := traced.latencies(nil)
	o.set("trace.overhead_pct", overheadPct(median(lat), median(tlat)))
	o.set("gen.late_ms_p99", percentile(traced.lateMS(), 99))
	rejects, total := 0, 0
	for _, r := range results {
		for _, s := range r.results {
			total++
			if s.status == http.StatusServiceUnavailable {
				rejects++
			}
		}
	}
	o.set("server.reject_ratio", ratio(float64(rejects), float64(total)))
	for _, c := range []reqClass{classHot, classWarm, classCold} {
		xs := traced.latencies(func(i int) bool { return traced.plan[i].class == c })
		o.set("server."+c.String()+"_ms_p50", median(xs))
		o.set("server."+c.String()+"_ms_p99", percentile(xs, 99))
		if c == classHot {
			continue
		}
		var over []float64
		for i, s := range traced.results {
			if traced.plan[i].class == c {
				over = append(over, s.latMS-s.resp.RuntimeMS)
			}
		}
		o.set("server.overhead_ms_p50."+c.String(), median(over))
	}
	d := func(a, b int64) float64 { return float64(b - a) }
	o.set("registry.result_hit_ratio", share(d(h0.ResultCache.Hits, h1.ResultCache.Hits), d(h0.ResultCache.Misses, h1.ResultCache.Misses)))
	o.set("registry.pathset_hit_ratio", share(d(h0.PathsetCache.Hits, h1.PathsetCache.Hits), d(h0.PathsetCache.Misses, h1.PathsetCache.Misses)))
	o.set("registry.pool_miss_ratio", share(d(h0.Cities[0].PoolMisses, h1.Cities[0].PoolMisses), d(h0.Cities[0].PoolHits, h1.Cities[0].PoolHits)))
	o.set("registry.evictions", d(h0.ResultCache.Evictions+h0.PathsetCache.Evictions, h1.ResultCache.Evictions+h1.PathsetCache.Evictions))
	o.set("registry.coalesce_join_ratio", share(d(h0.Coalescing.Joins, h1.Coalescing.Joins), d(h0.Coalescing.Leaders, h1.Coalescing.Leaders)))
	o.set("audit.records_per_seal", ratio(float64(h1.Audit.SealedRecords-h0.Audit.SealedRecords), float64(h1.Audit.SealedBatches-h0.Audit.SealedBatches)))
	o.set("audit.fsyncs", float64(h1.Audit.Fsyncs-h0.Audit.Fsyncs))
	pause, alloc := sp.gcSince(gcFrom, gcTo)
	o.set("go.gc_pause_ms", pause)
	o.set("go.alloc_mb", alloc)
	return tr.write(fmt.Sprintf("%s/trace-serve-mixed-%d.json", e.workDir, e.seed))
}

// checkPhase counts a phase's requests and checks its responses: every
// request succeeds undegraded, a hot request is served from the result
// cache with exactly its first computation's cut, and a warm or cold
// request (a never-seen key) is computed.
func checkPhase(o *outcome, p *phaseResult, refs []server.AttackResponse) {
	for i, r := range p.results {
		q := p.plan[i]
		o.attempted++
		if r.err != nil || r.status != http.StatusOK {
			o.failed++
			o.check(r.status == http.StatusServiceUnavailable, "%s request: status %d: %v", q.class, r.status, r.err)
			continue
		}
		o.check(!r.resp.Degraded, "%s request degraded: %s", q.class, r.resp.DegradedReason)
		if q.class != classHot {
			o.check(!r.resp.Cached, "%s request (a new key) was served from the cache", q.class)
			continue
		}
		ref := refs[q.hot]
		o.check(r.resp.Cached && sameCut(ref, r.resp),
			"hot request %d: cached %v, cut %v cost %v; first computation cut %v cost %v",
			q.hot, r.resp.Cached, r.resp.Removed, r.resp.TotalCost, ref.Removed, ref.TotalCost)
	}
}

// sameCut compares the attack payload of two responses.
func sameCut(a, b server.AttackResponse) bool {
	if len(a.Removed) != len(b.Removed) || !sameFloat(a.TotalCost, b.TotalCost) {
		return false
	}
	for i := range a.Removed {
		if a.Removed[i] != b.Removed[i] {
			return false
		}
	}
	return true
}

// serveLayers calls, in-process on the served city, the layers cmd/serve
// runs at startup and per computation.
func serveLayers(ctx context.Context, o *outcome, net *roadnet.Network, yenMS []float64, misses int) {
	o.set("graph.yen_ms_p50", median(yenMS))
	o.set("graph.yen_ms_p90", percentile(yenMS, 90))
	o.set("graph.yen_rank_miss_ratio", ratio(float64(misses), float64(len(yenMS))))

	t0 := now()
	fresh, err := citygen.Build(citygen.Boston, cityScale, citySeed)
	o.check(err == nil, "building Boston: %v", err)
	if err != nil {
		return
	}
	t1 := now()
	for _, wt := range roadnet.WeightTypes() {
		fresh.Snapshot(wt)
	}
	t2 := now()
	o.set("citygen.build_ms", ms(t1.Sub(t0)))
	o.set("roadnet.snapshot_ms", ms(t2.Sub(t1)))

	var clones []float64
	for i := 0; i < 5; i++ {
		c0 := now()
		fresh.Clone()
		clones = append(clones, ms(now().Sub(c0)))
	}
	o.set("roadnet.clone_ms", median(clones))

	e0 := now()
	graph.EdgeEigenScores(fresh.Graph(), graph.EigenOptions{})
	o.set("graph.eigen_ms", ms(now().Sub(e0)))

	var pots []float64
	ovMS := 0.0
	for _, wt := range roadnet.WeightTypes() {
		snap := fresh.Snapshot(wt)
		r := graph.NewRouter(fresh.Graph())
		r.UseSnapshot(snap)
		for _, h := range fresh.POIsOfKind(citygen.KindHospital) {
			p0 := now()
			r.ReversePotential(h.Node, fresh.Weight(wt))
			pots = append(pots, ms(now().Sub(p0)))
		}
		v0 := now()
		ov, err := overlay.Build(ctx, snap, overlay.Params{Seed: citySeed})
		if err == nil {
			_, err = overlay.NewMetric(ctx, ov)
		}
		o.check(err == nil, "overlay build: %v", err)
		ovMS += ms(now().Sub(v0))
	}
	o.set("graph.reverse_potential_ms", median(pots))
	o.set("overlay.build_ms", ovMS)
}
