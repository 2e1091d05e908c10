// Command serve runs the attack pipeline as a long-running HTTP/JSON
// service over one or more street networks (synthetic city presets, or a
// single OSM extract). Each city is preloaded into a registry shard —
// frozen CSR snapshots per weight type plus reverse potentials per
// hospital — shared read-only by every worker; requests route by their
// "city" field.
//
// Endpoints:
//
//	POST /v1/attack             one s→d attack               (server.AttackRequest)
//	POST /v1/batch              one experiment table, resumable (server.BatchRequest)
//	GET  /v1/audit/{seq}/proof  Merkle inclusion proof for an audited result
//	GET  /healthz               liveness + cache/coalescing/per-city/ledger stats
//	GET  /readyz                readiness + load/breaker stats (503 while draining)
//
// Robustness behaviour (see internal/server): bounded admission queue
// with Retry-After rejections, load shedding by estimated cost, an LP
// circuit breaker that degrades to greedy covers, per-request panic
// isolation, and graceful drain on SIGINT/SIGTERM — in-flight batches
// checkpoint to -checkpoint-dir and resume on re-submission, and the
// process exits 0 after a clean drain.
//
// Performance behaviour: concurrent identical attack requests coalesce
// into one computation, and results are cached in a memory-bounded LRU
// keyed by shard generation (-cache-mb; 0 disables), so a hot working
// set serves from memory at near-zero admission cost.
//
// Auditing (-audit-dir): every served attack result and batch unit is
// hash-chained into a tamper-evident ledger, group-committed with one
// fsync per Merkle batch, rotated into sealed segments at
// -audit-rotate-bytes, and compacted into a Merkle-checkpoint stub past
// -audit-compact-keep segments. Seal roots are periodically anchored to
// an external witness (-audit-witness FILE, or -audit-witness-url URL
// pointing at another instance's POST /v1/witness/anchor; serve one
// with -witness-file). A server restarted over an altered ledger
// refuses to serve; `serve -verify-audit DIR [-witness FILE]` checks a
// ledger offline — exit 1 on the first broken record or rolled-back
// tail, exit 2 when the directory holds no ledger at all.
//
//	go run ./cmd/serve -city boston,chicago -scale 0.05 -addr :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"altroute/internal/audit"
	"altroute/internal/citygen"
	"altroute/internal/faultinject"
	"altroute/internal/osm"
	"altroute/internal/registry"
	"altroute/internal/roadnet"
	"altroute/internal/server"
)

// chaosInjector is a test seam: when non-nil it is attached to the server
// config so the drain tests can wedge the pipeline deterministically. It is
// never set in production builds.
var chaosInjector *faultinject.Injector

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a run error to the process exit status. A missing ledger
// gets its own code so scripts can tell "nothing to verify" (a fresh or
// wrong directory — exit 2) from "verification failed" (tampering or
// corruption — exit 1).
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, audit.ErrNoLedger):
		return 2
	default:
		return 1
	}
}

// run builds the network, starts the HTTP server, and blocks until ctx is
// cancelled (SIGINT/SIGTERM), then drains gracefully. It returns nil on a
// clean drain so the process exits 0.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		city      = fs.String("city", "boston", "comma-separated city presets to serve (boston, san-francisco, chicago, los-angeles); the first is the default city")
		scale     = fs.Float64("scale", 0.05, "city scale (1 = full Table I size)")
		seed      = fs.Int64("seed", 1, "city generation seed")
		osmFile   = fs.String("osm", "", "serve this OSM XML extract instead of synthetic cities")
		cacheMB   = fs.Int64("cache-mb", 64, "result + path-set cache budget in MiB (0 disables caching)")
		capacity  = fs.Int("capacity", 0, "admission budget in cost units (0 = 4*GOMAXPROCS)")
		maxQueue  = fs.Int("queue", 32, "max queued requests before 503 + Retry-After")
		maxUnits  = fs.Int("max-units", 0, "per-request cost-unit budget; larger requests are shed (0 = capacity)")
		unitWork  = fs.Float64("unit-work", 2e6, "estimated edge relaxations per admission unit")
		timeout   = fs.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTO     = fs.Duration("max-timeout", 5*time.Minute, "cap on client-supplied deadlines")
		brkThresh = fs.Int("breaker-threshold", 3, "consecutive LP timeouts/panics that open the breaker")
		brkCool   = fs.Duration("breaker-cooldown", 10*time.Second, "open-breaker cooldown before half-open probes")
		brkOK     = fs.Int("breaker-successes", 2, "consecutive probe successes that close the breaker")
		ckptDir   = fs.String("checkpoint-dir", "", "journal /v1/batch runs into this directory for drain/resume")
		grace     = fs.Duration("drain-grace", 30*time.Second, "max wait for in-flight requests on shutdown")
		auditDir  = fs.String("audit-dir", "", "hash-chain every served result into this directory's tamper-evident ledger")
		auditFl   = fs.Duration("audit-flush", 100*time.Millisecond, "audit group-commit time bound (seal + fsync at least this often)")
		auditRecs = fs.Int("audit-flush-records", 64, "audit group-commit size bound (seal without waiting once this many records are pending)")
		auditSync = fs.Bool("audit-sync-each", false, "fsync the audit ledger after every record (per-record durability at full fsync cost)")
		auditRot  = fs.Int64("audit-rotate-bytes", 64<<20, "rotate the active audit file into a sealed segment past this size (0 = never rotate)")
		auditKeep = fs.Int("audit-compact-keep", 16, "compact all but this many newest sealed segments into a Merkle-checkpoint stub (0 = never compact)")
		auditFull = fs.String("audit-on-full", "fail", "disk-full policy for the audit ledger: fail (refuse all work) or shed (drop audit records, mark responses degraded)")
		auditWit  = fs.String("audit-witness", "", "anchor audit seal roots into this local append-only witness file")
		auditWURL = fs.String("audit-witness-url", "", "anchor audit seal roots to this remote witness endpoint (another serve instance's POST /v1/witness/anchor)")
		auditAnch = fs.Int("audit-anchor-every", 8, "anchor to the witness at least every N sealed batches")
		witFile   = fs.String("witness-file", "", "act as a witness: chain anchors POSTed to /v1/witness/anchor into this file")
		auditVrfy = fs.String("verify-audit", "", "offline-verify the audit ledger in this directory and exit (1 broken chain, 2 no ledger)")
		vrfyWit   = fs.String("witness", "", "with -verify-audit: cross-check the ledger against this witness file (catches tail rollback)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *auditVrfy != "" {
		return verifyAudit(*auditVrfy, *vrfyWit, out)
	}
	var onFull audit.DiskFullPolicy
	switch *auditFull {
	case "fail":
		onFull = audit.DiskFullFailClosed
	case "shed":
		onFull = audit.DiskFullShed
	default:
		return fmt.Errorf("-audit-on-full must be fail or shed, got %q", *auditFull)
	}
	var witness audit.Witness
	switch {
	case *auditWit != "" && *auditWURL != "":
		return errors.New("-audit-witness and -audit-witness-url are mutually exclusive: pick one anchoring target")
	case *auditWit != "":
		fw, err := audit.OpenFileWitness(*auditWit, nil)
		if err != nil {
			return fmt.Errorf("opening witness file: %w", err)
		}
		defer fw.Close()
		witness = fw
	case *auditWURL != "":
		witness = &audit.HTTPWitness{URL: *auditWURL}
	}

	// Each served city becomes a preloaded registry shard: snapshots are
	// frozen and hospital potentials swept at startup, so the first
	// request pays no more than the thousandth.
	reg := registry.NewRegistry()
	for _, name := range strings.Split(*city, ",") {
		if *osmFile != "" && len(reg.Shards()) > 0 {
			return errors.New("-osm serves a single extract; drop the extra -city entries")
		}
		net2, err := buildNetwork(*osmFile, name, *scale, *seed)
		if err != nil {
			return err
		}
		shard, err := registry.NewShardWithOptions(ctx, name, net2, registry.ShardOptions{PoolSize: *capacity})
		if err != nil {
			return err
		}
		if err := reg.Add(shard); err != nil {
			return err
		}
		fmt.Fprintf(out, "serve: city %s: %d intersections, %d segments\n",
			shard.Name(), net2.NumIntersections(), net2.NumSegments())
	}

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
	}
	cacheBytes := *cacheMB << 20
	if cacheBytes <= 0 {
		cacheBytes = -1 // Config: negative disables, zero means default
	}
	srv, err := server.New(server.Config{
		Registry:        reg,
		CacheBytes:      cacheBytes,
		Capacity:        *capacity,
		MaxQueue:        *maxQueue,
		MaxRequestUnits: *maxUnits,
		UnitWork:        *unitWork,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTO,
		Breaker: server.BreakerConfig{
			Threshold: *brkThresh,
			Cooldown:  *brkCool,
			Successes: *brkOK,
		},
		CheckpointDir:       *ckptDir,
		Scale:               *scale,
		Injector:            chaosInjector,
		AuditDir:            *auditDir,
		AuditFlushEvery:     *auditFl,
		AuditFlushRecords:   *auditRecs,
		AuditSyncEachRecord: *auditSync,
		AuditRotateBytes:    *auditRot,
		AuditCompactKeep:    *auditKeep,
		AuditOnDiskFull:     onFull,
		AuditWitness:        witness,
		AuditAnchorEvery:    *auditAnch,
		WitnessFile:         *witFile,
	})
	if err != nil {
		return err
	}
	if aerr := srv.AuditErr(); aerr != nil {
		// The audit chain failed verification: the server starts, but only
		// to explain itself — every work request is refused until the
		// ledger is inspected (-verify-audit) and dealt with.
		fmt.Fprintf(out, "serve: audit chain broken, refusing work: %v\n", aerr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serve: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout bounds slow-client body dribble; the per-request
		// pipeline deadline handles everything after decode.
		ReadTimeout: 30 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting, cancel in-flight batches so their
	// checkpoints flush, wait out the grace period, then close the
	// listener. Exit 0 even if stragglers were cut off — the journals
	// make their work resumable.
	fmt.Fprintln(out, "serve: draining")
	if err := srv.Drain(*grace); err != nil {
		fmt.Fprintln(out, "serve:", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// The ledger closes after the last request: its unsealed tail gets a
	// final group commit, so a clean drain leaves nothing for the next
	// open to heal. A close error is not worth a dirty exit — reopening
	// re-verifies the chain and truncates whatever was torn.
	if l := srv.Ledger(); l != nil {
		if err := l.Close(); err != nil {
			fmt.Fprintln(out, "serve: audit close:", err)
		}
	}
	if w := srv.Witness(); w != nil {
		if err := w.Close(); err != nil {
			fmt.Fprintln(out, "serve: witness close:", err)
		}
	}
	fmt.Fprintln(out, "serve: drained, exiting")
	return nil
}

// verifyAudit is the -verify-audit subcommand: an offline replay of the
// whole ledger chain — stub, sealed segments, and active file as one
// stream — usable as an external oracle after a crash or a suspected
// alteration. With a witness file it additionally cross-checks every
// anchor, catching the tail rollback the chain alone cannot see. On a
// broken chain the returned error names the first bad record and the
// process exits 1; a directory with no ledger exits 2.
func verifyAudit(dir, witnessPath string, out io.Writer) error {
	var (
		rep audit.Report
		wr  audit.WitnessReport
		err error
	)
	if witnessPath != "" {
		rep, wr, err = audit.VerifyDirWitness(dir, witnessPath)
	} else {
		rep, err = audit.VerifyDir(dir)
	}
	if err != nil {
		if errors.Is(err, audit.ErrNoLedger) {
			return fmt.Errorf("nothing to verify: %w (fresh directory, or the wrong one?)", err)
		}
		return fmt.Errorf("audit ledger %s: %w", dir, err)
	}
	fmt.Fprintf(out, "serve: audit ledger %s verifies: %d records, %d sealed in %d batches, %d pending\n",
		dir, rep.Records, rep.SealedRecords, rep.SealedBatches, rep.Pending)
	if rep.Segments > 0 || rep.CompactedSegments > 0 {
		fmt.Fprintf(out, "serve: %d sealed segments on disk; %d segments (%d records, %d batches) compacted into the checkpoint stub\n",
			rep.Segments, rep.CompactedSegments, rep.CompactedRecords, rep.CompactedBatches)
	}
	if rep.LeftoverSegments > 0 {
		fmt.Fprintf(out, "serve: %d stub-covered segment files still on disk (an interrupted compaction; the next open removes them)\n",
			rep.LeftoverSegments)
	}
	if rep.TornBytes > 0 {
		fmt.Fprintf(out, "serve: torn tail of %d bytes in %s (a kill mid-write; the next open heals it)\n",
			rep.TornBytes, rep.TornFile)
	}
	if witnessPath != "" {
		fmt.Fprintf(out, "serve: witness %s agrees: %d anchors (%d checked against live seals, %d vouch for compacted history), latest batch %d\n",
			witnessPath, wr.Anchors, wr.Checked, wr.Uncheckable, wr.LatestBatch)
		if wr.Torn {
			fmt.Fprintln(out, "serve: witness file has a torn final line (healed at its next open)")
		}
	}
	return nil
}

// buildNetwork loads an OSM extract or generates a synthetic city.
func buildNetwork(osmFile, city string, scale float64, seed int64) (*roadnet.Network, error) {
	if osmFile != "" {
		return osm.ParseFile(osmFile, osm.ParseOptions{
			AttachHospitals:  true,
			LargestComponent: true,
		})
	}
	c, err := citygen.ParseCity(strings.ReplaceAll(city, "-", " "))
	if err != nil {
		return nil, err
	}
	return citygen.Build(c, scale, seed)
}
