// Command opimd serves OPIM sessions over HTTP — online processing of
// influence maximization as a long-running, multi-tenant service,
// mirroring the online query processing systems (§1) the paper takes its
// paradigm from.
//
//	opimd -profile synth-pokec -model IC -k 50 -listen :8080
//
// The flags configure the session named "default", served like every
// session under /sessions/{id}:
//
//	curl -X POST localhost:8080/sessions/default/start      # begin streaming RR sets
//	curl localhost:8080/sessions/default/snapshot           # current seeds + guarantee
//	curl 'localhost:8080/sessions/default/snapshot?peek=1'  # last snapshot, spends no δ
//	curl -X POST localhost:8080/sessions/default/stop       # pause
//	curl -X POST 'localhost:8080/sessions/default/advance?count=100000'
//	curl localhost:8080/sessions/default/status
//	curl -X POST localhost:8080/sessions/default/checkpoint # force a durable checkpoint
//	curl localhost:8080/metrics            # throughput, latencies, last α
//
// Further sessions — each with its own k, δ, variant, seed, base seeds and
// δ budget — are managed over HTTP:
//
//	curl -X POST localhost:8080/sessions -d '{"id":"alice","k":20,"seed":7}'
//	curl localhost:8080/sessions           # list
//	curl localhost:8080/sessions/alice/status
//	curl -X DELETE localhost:8080/sessions/alice
//
// One background sampler round-robins across every running session, and
// a long request on one session never blocks another. See docs/API.md.
//
// Multi-graph serving: the -graph/-profile flags register the "default"
// graph; further datasets are registered by name in the graph catalog and
// referenced when creating sessions:
//
//	curl -X POST localhost:8080/graphs -d '{"name":"pokec","profile":"synth-pokec","model":"IC"}'
//	curl localhost:8080/graphs             # list, with fingerprints
//	curl -X POST localhost:8080/sessions -d '{"id":"bob","graph":"pokec","k":10}'
//	curl -X DELETE localhost:8080/graphs/pokec   # 409 while sessions use it
//
// Sessions on the same (graph, model) share one sampler, and
// -max-loaded-graphs bounds memory by unloading idle graphs (reloaded
// from their spec and mutation journal on demand; without
// -checkpoint-dir a mutated graph stays resident). Checkpoints (OPIMS6)
// record each session's recipe — options, RR-set counts and a checksum of
// each half — with the graph's fingerprint and its position on the
// mutation epoch chain, so a resume against the wrong dataset fails
// loudly instead of silently corrupting guarantees, and a resume after
// mutation batches regenerates on the current epoch exactly.
//
// Fault tolerance (see docs/ROBUSTNESS.md):
//
//   - -checkpoint-dir DIR enables crash-safe checkpointing: every
//     session, the default included, is written atomically to DIR/<id>.ck
//     every -checkpoint-interval (default 30s), on POST
//     /sessions/{id}/checkpoint, and on graceful shutdown, and every
//     graph's mutation batches are journaled there, compacted into an
//     OPIMG2 snapshot once a journal outgrows its graph. At startup
//     server.Resume replays the default graph's journal (every other
//     graph replays its own when registered), then resumes every
//     checkpointed session through one restore path: current
//     generation, else <id>.ck.prev, checked against the graph's epoch
//     chain and regenerated on its current epoch — a load costs about the
//     original sampling. A checkpoint that exists but cannot be resumed
//     stops startup. A resumed session continues the exact sample stream —
//     seeds, α and δ accounting are byte-identical to a never-crashed run.
//     When resuming, the default session's parameters (-k, -delta, -seed,
//     …) come from the checkpoint, not the flags; an adopted session keeps
//     the serving spec (max_rr, weight, rate, burst, learn round_rr) it
//     was created with. -max-loaded-sessions N bounds memory by
//     checkpointing-then-unloading idle sessions (reloaded transparently
//     on their next request).
//   - -request-timeout bounds each token-charged session request (503 +
//     Retry-After past the deadline, progress kept); above -max-inflight
//     a request queues briefly for a slot, then gets 429 + Retry-After.
//   - SIGINT/SIGTERM drains in-flight requests, stops the sampling
//     loop, writes a final checkpoint per session, and exits 0.
//   - -fleet url1,url2 leases RR-set generation to stateless
//     `opimd -worker` processes (fingerprint-verified replicas of the
//     same graph), with lease reassignment on worker death or slowness,
//     duplicate suppression, CRC-checked transfers, and graceful
//     degradation to local sampling when no worker is healthy. Results
//     are byte-identical to a single-process run for any fleet layout
//     or failure pattern.
//
// With -pprof, Go's net/http/pprof profiling handlers are mounted under
// /debug/pprof/. See docs/API.md for the full HTTP surface and
// docs/OBSERVABILITY.md for the metric catalogue.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/reprolab/opim"
	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/fleet"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/server"
)

func main() {
	var spec cliutil.GraphSpec
	spec.RegisterFlags(flag.CommandLine)
	var (
		k          = flag.Int("k", 50, "seed set size")
		deltaF     = flag.Float64("delta", 0, "failure probability (0 = 1/n)")
		variantN   = flag.String("variant", "plus", "guarantee variant: vanilla | plus | prime")
		seed       = flag.Uint64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "sampling workers (0 = GOMAXPROCS)")
		batch      = flag.Int("batch", 10000, "RR sets per background iteration")
		maxRR      = flag.Int64("maxrr", 1<<26, "RR-set budget")
		listen     = flag.String("listen", ":8080", "listen address")
		union      = flag.Bool("union", false, "union-budget mode across snapshots")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logEvents  = flag.String("log-events", "", "append a JSONL event per served snapshot to this file")
		ckDir      = flag.String("checkpoint-dir", "", "checkpoint directory (DIR/<id>.ck per session, default included, plus each graph's mutation journal): enables crash-safe saves, startup resume and eviction")
		maxLoaded  = flag.Int("max-loaded-sessions", 0, "max sessions resident in memory; past it idle sessions are checkpointed and unloaded (0 = unlimited, requires -checkpoint-dir)")
		maxGraphs  = flag.Int("max-loaded-graphs", 0, "max graphs resident in memory; past it idle registered graphs are unloaded and reloaded from their spec on demand (0 = unlimited)")
		ckInterval = flag.Duration("checkpoint-interval", server.DefaultCheckpointInterval, "periodic checkpoint cadence (requires -checkpoint-dir)")
		reqTimeout = flag.Duration("request-timeout", time.Minute, "deadline for each token-charged session request, /advance included (0 = none)")
		maxInfl    = flag.Int("max-inflight", 64, "max concurrent HTTP requests; excess requests queue briefly, then 429 (0 = unlimited)")
		maxQueue   = flag.Int("max-queue", 0, "max requests waiting for an inflight slot (0 = 2×max-inflight, negative = no queue)")
		maxQWait   = flag.Duration("max-queue-wait", 500*time.Millisecond, "max time a request queues for an inflight slot before 429")
		defRate    = flag.Float64("default-rate", 0, "default per-session admission rate for engine-touching requests, req/s token bucket (0 = unlimited; sessions override via SessionSpec.rate)")
		defBurst   = flag.Float64("default-burst", 0, "default per-session token-bucket depth (0 = max(1, default-rate))")
		workerMode = flag.Bool("worker", false, "run as a stateless RR-generation worker: serve the fleet worker protocol on -listen from a local replica of the graph flags, and nothing else")
		fleetList  = flag.String("fleet", "", "comma-separated base URLs of -worker processes; RR generation is leased to them, degrading to local sampling when none is healthy")
		fleetChunk = flag.Int("fleet-chunk", 0, "RR sets per fleet lease (0 = 256)")
		fleetRPC   = flag.Duration("fleet-rpc-timeout", 0, "deadline per fleet worker RPC (0 = 30s)")
		fleetTTL   = flag.Duration("fleet-lease-ttl", 0, "in-flight lease age before speculative reassignment (0 = 2x the RPC timeout)")
		fleetHB    = flag.Duration("fleet-heartbeat", 0, "fleet worker health-probe period (0 = 1s)")
		learnOn    = flag.Bool("learn", false, "run the default session as a feedback-driven learning campaign: POST /sessions/default/rounds serves explore/exploit seeds, POST /sessions/default/observations feeds cascades back (see docs/LEARNING.md)")
		learnSeed  = flag.Uint64("learn-seed", 1, "random seed for the learner's Thompson-sampling draws")
		learnRR    = flag.Int("learn-round-rr", 0, "RR sets generated per learning round (0 = 1024)")
	)
	flag.Parse()

	spec.Seed = *seed
	g, model, err := spec.Load()
	if err != nil {
		fatalf("%v", err)
	}
	variant, err := cliutil.ParseVariant(*variantN)
	if err != nil {
		fatalf("%v", err)
	}
	delta := *deltaF
	if delta <= 0 {
		delta = 1 / float64(g.N())
	}

	var events *obs.JSONLSink
	if *logEvents != "" {
		events, err = obs.CreateJSONL(*logEvents)
		if err != nil {
			fatalf("%v", err)
		}
	}
	sampler := opim.NewSampler(g, model)

	if *workerMode {
		runWorker(sampler, g, model, *listen)
		return
	}

	if *maxLoaded > 0 && *ckDir == "" {
		fatalf("-max-loaded-sessions requires -checkpoint-dir (eviction needs somewhere to checkpoint)")
	}
	if *ckDir != "" {
		if err := os.MkdirAll(*ckDir, 0o755); err != nil {
			fatalf("creating -checkpoint-dir: %v", err)
		}
	}
	// A fresh default session on the dataset as loaded; Resume replays the
	// default graph's mutation journal and moves the session onto the
	// replayed epoch, then replaces it with its checkpoint when one exists.
	session, err := opim.NewOnline(sampler, opim.Options{
		K: *k, Delta: delta, Variant: variant, Seed: *seed, Workers: *workers, UnionBudget: *union,
		Events: flushingSinkOrNil(events),
	})
	if err != nil {
		fatalf("%v", err)
	}

	var coordinator *fleet.Coordinator
	if *fleetList != "" {
		coordinator = fleet.NewCoordinator(fleet.Config{
			Workers:        strings.Split(*fleetList, ","),
			ChunkSize:      *fleetChunk,
			RPCTimeout:     *fleetRPC,
			LeaseTTL:       *fleetTTL,
			HeartbeatEvery: *fleetHB,
			Seed:           *seed,
			Events:         flushingSinkOrNil(events),
		})
		coordinator.Start()
	}

	srv := server.New(session, server.Config{
		Batch:              *batch,
		MaxRR:              *maxRR,
		RequestTimeout:     *reqTimeout,
		MaxInflight:        *maxInfl,
		MaxQueue:           *maxQueue,
		MaxQueueWait:       *maxQWait,
		DefaultRate:        *defRate,
		DefaultBurst:       *defBurst,
		CheckpointDir:      *ckDir,
		MaxLoadedSessions:  *maxLoaded,
		MaxLoadedGraphs:    *maxGraphs,
		CheckpointInterval: *ckInterval,
		DefaultGraphSpec:   spec.String(),
		Events:             flushingSinkOrNil(events),
		Generator:          generatorOrNil(coordinator),
	})
	// Replay the default graph's journal and resume every checkpointed
	// session. A journal that does not replay, or a checkpoint that exists
	// but cannot be loaded (both generations bad, or off its graph's epoch
	// chain), stops startup — silently discarding a session would forget
	// every spent unit of δ budget, the exact failure mode resume exists
	// to prevent. The error names the file the operator must remove to
	// start fresh.
	adopted, err := srv.Resume()
	if err != nil {
		fatalf("cannot resume: %v", err)
	}
	g = session.Sampler().Graph() // the replayed default graph, for the banner
	if len(adopted) > 0 {
		fmt.Printf("opimd: adopted %d checkpointed session(s) from %s: %v\n", len(adopted), *ckDir, adopted)
	}
	if *learnOn {
		// After checkpoint resume, so a campaign restored from the
		// checkpoint's extension (with its learned posterior) is kept; only
		// a genuinely fresh session starts from the uniform prior.
		if err := srv.EnableLearning(server.DefaultSessionID, *learnSeed, *learnRR); err != nil {
			fatalf("enabling learning on the default session: %v", err)
		}
	}
	srv.StartCheckpointer()
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	httpSrv := &http.Server{
		Handler: mux,
		// Slow-client protection. WriteTimeout must outlast the /advance
		// deadline or the connection would be cut before the 503.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		WriteTimeout:      writeTimeoutFor(*reqTimeout),
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatalf("%v", err)
	}

	// Graceful shutdown on SIGINT/SIGTERM: drain in-flight requests first
	// (so no handler mutates the session underneath the final save), then
	// stop the sampling loop and checkpointer and write a final
	// checkpoint. The handler is registered before "listening on" is
	// printed, so a SIGTERM sent once that line appears finds it.
	idle := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("\nopimd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "opimd: drain: %v\n", err)
		}
		if coordinator != nil {
			coordinator.Close()
		}
		if err := srv.Shutdown(); err != nil {
			fmt.Fprintf(os.Stderr, "opimd: final checkpoint: %v\n", err)
		} else if *ckDir != "" {
			fmt.Printf("opimd: final checkpoints written\n")
		}
		if events != nil {
			if err := events.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "opimd: closing event log: %v\n", err)
			}
		}
		close(idle)
	}()

	fmt.Printf("opimd: n=%d m=%d model=%v k=%d δ=%.2e — listening on %s\n",
		g.N(), g.M(), model, *k, delta, ln.Addr())
	if *pprofOn {
		fmt.Printf("opimd: pprof mounted at %s/debug/pprof/\n", ln.Addr())
	}
	if coordinator != nil {
		fmt.Printf("opimd: distributing RR generation across %d fleet worker(s)\n", len(strings.Split(*fleetList, ",")))
	}
	if *ckDir != "" {
		fmt.Printf("opimd: checkpointing every session to %s/<id>.ck every %v (max loaded: %s)\n",
			*ckDir, *ckInterval, loadedLimit(*maxLoaded))
	}
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatalf("%v", err)
	}
	<-idle
}

// writeTimeoutFor pads the /advance deadline so the handler can still
// write its 503 after the deadline fires; with no deadline the write
// timeout is disabled (an unbounded advance may legitimately stream for
// minutes).
func writeTimeoutFor(reqTimeout time.Duration) time.Duration {
	if reqTimeout <= 0 {
		return 0
	}
	return reqTimeout + 30*time.Second
}

// flushingSink writes each event through to disk immediately. Events in
// the daemon are rare (one per served /snapshot) but the process is
// long-running, so leaving them in the JSONL buffer until shutdown would
// make `tail -f` on the log useless.
type flushingSink struct{ s *obs.JSONLSink }

func (f flushingSink) Emit(event string, fields map[string]any) {
	f.s.Emit(event, fields)
	f.s.Flush()
}

// flushingSinkOrNil converts a possibly-nil *JSONLSink without producing
// a non-nil interface around a nil pointer.
func flushingSinkOrNil(s *obs.JSONLSink) obs.Sink {
	if s == nil {
		return nil
	}
	return flushingSink{s}
}

// loadedLimit renders -max-loaded-sessions for the startup banner.
func loadedLimit(n int) string {
	if n <= 0 {
		return "unlimited"
	}
	return fmt.Sprint(n)
}

// runWorker serves the fleet worker protocol and nothing else: no
// sessions, no checkpoints, no sampling loop — a stateless replica that
// turns leases into RR-set batches until it is killed. The coordinator
// owns all durable state, so SIGKILLing a worker loses at most the
// in-flight lease, which the coordinator reassigns.
func runWorker(sampler *opim.Sampler, g *opim.Graph, model opim.Model, listen string) {
	w := fleet.NewWorker(sampler)
	httpSrv := &http.Server{
		Handler:           w,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatalf("%v", err)
	}
	idle := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM) // before "listening on", as in the daemon
	go func() {
		<-sig
		fmt.Println("\nopimd: worker shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx) //nolint:errcheck // in-flight leases are reassigned anyway
		close(idle)
	}()
	fmt.Printf("opimd: worker n=%d m=%d model=%v fingerprint=%.12s — listening on %s\n",
		g.N(), g.M(), model, w.Fingerprint(), ln.Addr())
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatalf("%v", err)
	}
	<-idle
}

// generatorOrNil converts a possibly-nil *fleet.Coordinator without
// producing a non-nil interface around a nil pointer.
func generatorOrNil(c *fleet.Coordinator) opim.Generator {
	if c == nil {
		return nil
	}
	return c
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "opimd: "+format+"\n", args...)
	os.Exit(1)
}
