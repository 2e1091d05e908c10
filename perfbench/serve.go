package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"altroute/internal/registry"
	"altroute/internal/server"
)

// Pinned cmd/serve knobs. Every admission, cache and audit flag is passed
// explicitly, so a later change to a default does not silently change the
// workload. With the defaults, capacity is 4 x GOMAXPROCS (8 units on a
// 2-core machine), while EstimateWork prices a rank-100 request on Boston
// at scale 1 at 10 units (about 18.0M relaxations / 2e6 per unit): every
// warm and cold request would be shed with a 503.
const (
	serveCapacity  = 20 // two concurrent rank-100 computations
	serveMaxUnits  = 20
	serveQueue     = 256
	serveUnitWork  = "2e6"
	serveCacheMB   = 256 // holds the whole run's results and path sets: no evictions
	serveAuditWait = "100ms"
	serveAuditRecs = 64
)

// serveArgs are the cmd/serve flags for a benchmark server.
func serveArgs(auditDir string) []string {
	return []string{
		"-city", "boston", "-scale", strconv.Itoa(cityScale), "-seed", strconv.Itoa(citySeed),
		"-addr", "127.0.0.1:0",
		"-capacity", strconv.Itoa(serveCapacity), "-max-units", strconv.Itoa(serveMaxUnits),
		"-queue", strconv.Itoa(serveQueue), "-unit-work", serveUnitWork,
		"-cache-mb", strconv.Itoa(serveCacheMB),
		"-timeout", "30s", "-max-timeout", "5m",
		"-breaker-threshold", "3", "-breaker-cooldown", "10s", "-breaker-successes", "2",
		"-drain-grace", "30s",
		"-audit-dir", auditDir,
		"-audit-flush", serveAuditWait, "-audit-flush-records", strconv.Itoa(serveAuditRecs),
		"-audit-sync-each=false", "-audit-rotate-bytes", strconv.Itoa(64 << 20),
		"-audit-compact-keep", "16", "-audit-on-full", "fail",
	}
}

// Traffic shape.
const (
	hotShare      = 0.8
	warmShare     = 0.1
	hotPairs      = 4    // x 4 algorithms = the 16 hot requests
	fixedRPS      = 50   // light load, well below capacity: p50 is the hot path's own latency
	fixedShare    = 0.8  // of the run's seconds spent at the fixed rate: 1000 requests in 25 s, enough for a p99
	latencyLimMS  = 1000 // tail latency limit a ladder step must meet
	lateLimMS     = 25   // generator lateness p99 a ladder step must stay under
	backlogSlack  = 50   // ms a step's last third may wait longer for a connection than its first
	healthzProbes = 50
)

// ladderRPS are the sustained-rate steps, up to a rate that overloads two
// cores.
var ladderRPS = []float64{100, 150, 300}

type reqClass int

const (
	classHot reqClass = iota
	classWarm
	classCold
)

func (c reqClass) String() string {
	return [...]string{"hot", "warm", "cold"}[c]
}

// pair is a validated (source, hospital) pair: its rank-100 path exists.
type pair struct{ src, dst int64 }

// planned is one request of a phase.
type planned struct {
	due   time.Duration
	class reqClass
	hot   int // index into the hot set, -1 otherwise
	body  []byte
}

// served is one request's outcome.
type served struct {
	latMS float64
	// waitMS is how long the request waited, after it was due, for a free
	// connection: the open loop's backlog.
	waitMS float64
	status int
	resp   server.AttackResponse
	err    error
}

// phaseResult is one open-loop phase.
type phaseResult struct {
	rps     float64
	plan    []planned
	results []served
	late    []time.Duration
	// spanS is from the first due time to the last completion.
	spanS float64
}

func (p *phaseResult) latencies(filter func(i int) bool) []float64 {
	var out []float64
	for i, r := range p.results {
		if filter == nil || filter(i) {
			out = append(out, r.latMS)
		}
	}
	return out
}

func (p *phaseResult) ok() int {
	n := 0
	for _, r := range p.results {
		if r.err == nil && r.status == http.StatusOK {
			n++
		}
	}
	return n
}

func (p *phaseResult) goodput() float64 { return ratio(float64(p.ok()), p.spanS) }

func (p *phaseResult) lateMS() []float64 {
	out := make([]float64, len(p.late))
	for i, l := range p.late {
		out[i] = ms(l)
	}
	return out
}

// meetsLimit reports whether the phase served every request within the
// latency limit at its tail percentile, without a growing backlog, while
// the generator kept up.
func (p *phaseResult) meetsLimit() bool {
	return p.ok() == len(p.results) && tail(p.latencies(nil)) <= latencyLimMS &&
		!backlogGrows(p.waits()) && tail(p.lateMS()) <= lateLimMS
}

func (p *phaseResult) waits() []float64 {
	out := make([]float64, len(p.results))
	for i, r := range p.results {
		out[i] = r.waitMS
	}
	return out
}

// backlogGrows reports whether the last third of a phase's requests, in
// due order, waited for a connection longer than the first third by more
// than backlogSlack: more was offered than served, and the queue grew.
func backlogGrows(waitsMS []float64) bool {
	k := len(waitsMS) / 3
	if k == 0 {
		return false
	}
	return median(waitsMS[len(waitsMS)-k:]) > median(waitsMS[:k])+backlogSlack
}

// serverProc is a running cmd/serve subprocess.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	readers sync.WaitGroup
	mu      sync.Mutex
	gcLines []gcLine
}

// gcLine is one GODEBUG=gctrace=1 line, stamped on arrival.
type gcLine struct {
	at   time.Time
	text string
}

// startServer execs cmd/serve and waits until /readyz answers 200. It
// returns the time from exec to ready.
func startServer(bin, auditDir string, gctrace bool, client *http.Client) (*serverProc, float64, error) {
	if bin == "" {
		return nil, 0, errors.New("serve-mixed needs -serve-bin")
	}
	t0 := now()
	cmd := exec.Command(bin, serveArgs(auditDir)...)
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	sp := &serverProc{cmd: cmd}
	addrCh := make(chan string, 1)
	sp.readers.Add(2)
	go func() {
		defer sp.readers.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "serve: listening on "); ok {
				addrCh <- strings.TrimSpace(a)
			}
		}
		close(addrCh)
	}()
	go func() {
		defer sp.readers.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "gc ") {
				sp.mu.Lock()
				sp.gcLines = append(sp.gcLines, gcLine{at: now(), text: sc.Text()})
				sp.mu.Unlock()
			}
		}
	}()
	var addr string
	select {
	case a, ok := <-addrCh:
		if !ok {
			return nil, 0, errors.Join(errors.New("cmd/serve exited before listening"), sp.stop())
		}
		addr = a
	case <-time.After(time.Minute):
		return nil, 0, errors.Join(errors.New("cmd/serve not listening after a minute"), sp.stop())
	}
	sp.addr = "http://" + addr
	for {
		resp, err := client.Get(sp.addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if now().Sub(t0) > time.Minute {
			return nil, 0, errors.Join(errors.New("cmd/serve not ready after a minute"), sp.stop())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return sp, now().Sub(t0).Seconds(), nil
}

// stop drains the server with SIGTERM and waits for it to exit cleanly,
// killing it after a minute.
func (sp *serverProc) stop() error {
	if err := sp.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	// The output readers end when the process closes its pipes; Wait may
	// only run after they have.
	drained := make(chan struct{})
	go func() {
		sp.readers.Wait()
		close(drained)
	}()
	killed := false
	select {
	case <-drained:
	case <-time.After(time.Minute):
		_ = sp.cmd.Process.Kill()
		killed = true
		<-drained
	}
	err := sp.cmd.Wait()
	if killed {
		return fmt.Errorf("cmd/serve did not drain within a minute (killed): %v", err)
	}
	if err != nil {
		return fmt.Errorf("cmd/serve exit: %w", err)
	}
	return nil
}

// gcSince sums GC pause (ms) and approximate allocation (MiB) from the
// gctrace lines that arrived in [from, to).
func (sp *serverProc) gcSince(from, to time.Time) (pauseMS, allocMB float64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	prevLive := -1.0
	for _, l := range sp.gcLines {
		pause, start, live, ok := parseGCLine(l.text)
		if !ok {
			continue
		}
		if !l.at.Before(from) && l.at.Before(to) {
			pauseMS += pause
			if prevLive >= 0 && start > prevLive {
				allocMB += start - prevLive
			}
		}
		prevLive = live
	}
	return pauseMS, allocMB
}

// parseGCLine reads a gctrace line: "gc N @Ts P%: a+b+c ms clock, ...,
// S->E->L MB, ...". The stop-the-world pauses are a and c; the heap was S
// MB when the cycle started and L MB live after it.
func parseGCLine(s string) (pauseMS, startMB, liveMB float64, ok bool) {
	_, rest, found := strings.Cut(s, ": ")
	if !found {
		return 0, 0, 0, false
	}
	clockPart, rest, found := strings.Cut(rest, " ms clock")
	if !found {
		return 0, 0, 0, false
	}
	phases := strings.Split(clockPart, "+")
	if len(phases) != 3 {
		return 0, 0, 0, false
	}
	a, err1 := strconv.ParseFloat(phases[0], 64)
	c, err2 := strconv.ParseFloat(phases[2], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, 0, false
	}
	for _, f := range strings.Split(rest, ", ") {
		heap, isHeap := strings.CutSuffix(f, " MB")
		parts := strings.Split(heap, "->")
		if !isHeap || len(parts) != 3 {
			continue
		}
		st, err1 := strconv.ParseFloat(parts[0], 64)
		lv, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			return 0, 0, 0, false
		}
		return a + c, st, lv, true
	}
	return 0, 0, 0, false
}

// healthz is the part of the /healthz body the benchmark reads.
type healthz struct {
	Cities       []registry.ShardStats `json:"cities"`
	ResultCache  registry.CacheStats   `json:"result_cache"`
	PathsetCache registry.CacheStats   `json:"pathset_cache"`
	Coalescing   registry.GroupStats   `json:"coalescing"`
	Audit        *struct {
		SealedBatches uint64 `json:"sealed_batches"`
		SealedRecords uint64 `json:"sealed_records"`
		Fsyncs        uint64 `json:"fsyncs"`
	} `json:"audit"`
}

func getHealthz(client *http.Client, addr string) (healthz, error) {
	var h healthz
	resp, err := client.Get(addr + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("/healthz: %w", err)
	}
	if len(h.Cities) != 1 || h.Audit == nil {
		return h, errors.New("/healthz: want one city and audit stats")
	}
	return h, nil
}

// post sends one /v1/attack request.
func post(client *http.Client, addr string, body []byte) (int, server.AttackResponse, error) {
	var out server.AttackResponse
	resp, err := client.Post(addr+"/v1/attack", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, out, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &out)
	}
	return resp.StatusCode, out, err
}

// runPhase offers the planned requests open loop over at most conns
// keep-alive connections and waits for every response. Due times are
// relative to the phase start.
func runPhase(client *http.Client, addr string, plan []planned, rps float64, conns int, tr *tracer, traceBase int) *phaseResult {
	p := &phaseResult{rps: rps, plan: plan, results: make([]served, len(plan))}
	clk := newWallClock()
	jobs := make(chan int, len(plan)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	var mu sync.Mutex
	var last time.Duration
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				sent := now()
				status, resp, err := post(client, addr, plan[i].body)
				done := now()
				tr.add("http.attack."+plan[i].class.String(), 0, traceBase+i, sent, done)
				doneAt := done.Sub(clk.origin)
				p.results[i] = served{
					latMS:  ms(latencyFromDue(plan[i].due, doneAt)),
					waitMS: ms(sent.Sub(clk.origin) - plan[i].due),
					status: status, resp: resp, err: err,
				}
				mu.Lock()
				last = max(last, doneAt)
				mu.Unlock()
			}
		}()
	}
	dues := make([]time.Duration, len(plan))
	for i, q := range plan {
		dues[i] = q.due
	}
	p.late = dispatch(clk, dues, func(i int) { jobs <- i })
	close(jobs)
	wg.Wait()
	p.spanS = (last - plan[0].due).Seconds()
	return p
}
