package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
)

// Fleet metric family (documented in docs/OBSERVABILITY.md).
var (
	mGenerations      = obs.Default().Counter("fleet_generations_total")
	mDegraded         = obs.Default().Counter("fleet_degraded_generations_total")
	mNoReplica        = obs.Default().Counter("fleet_no_replica_generations_total")
	mLeases           = obs.Default().Counter("fleet_leases_total")
	mLeasesReassigned = obs.Default().Counter("fleet_leases_reassigned_total")
	mLeasesLocal      = obs.Default().Counter("fleet_leases_local_total")
	mDuplicates       = obs.Default().Counter("fleet_batches_duplicate_total")
	mRPCFailures      = obs.Default().Counter("fleet_rpc_failures_total")
	mFPMismatches     = obs.Default().Counter("fleet_fingerprint_mismatch_total")
	mEvictions        = obs.Default().Counter("fleet_workers_evicted_total")
	mHealthyWorkers   = obs.Default().Gauge("fleet_workers_healthy")
	mRPCTimer         = obs.Default().Timer("fleet_rpc_seconds")
)

// Config parameterizes a Coordinator. The zero value of every optional
// field picks a sensible default (see the field comments).
type Config struct {
	// Workers is the list of worker base URLs ("http://host:port"). It
	// may be empty: the coordinator then runs permanently degraded,
	// sampling locally.
	Workers []string
	// Client issues worker RPCs; nil means a default client. Chaos tests
	// swap in clients wearing faultinject round-trippers. Per-RPC
	// deadlines come from RPCTimeout, not Client.Timeout.
	Client *http.Client
	// ChunkSize is the lease width in RR sets (default 256). Smaller
	// leases lose less work per failure and spread load better; larger
	// leases amortize RPC overhead.
	ChunkSize int
	// RPCTimeout bounds each worker RPC (default 30s).
	RPCTimeout time.Duration
	// ProbeTimeout bounds each /worker/info health probe (default 2s,
	// capped at RPCTimeout). Probes are cheap and answered from memory,
	// so they get a much tighter deadline than lease RPCs — one
	// blackholed worker must not stall a heartbeat sweep for the full
	// lease timeout.
	ProbeTimeout time.Duration
	// LeaseTTL is how long a lease may stay in flight before the
	// watchdog speculatively reassigns it to another worker (default
	// 2×RPCTimeout; the original RPC keeps running — first delivery
	// wins, the loser is discarded as a duplicate).
	LeaseTTL time.Duration
	// HeartbeatEvery is the background health-probe period once Start is
	// called (default 1s).
	HeartbeatEvery time.Duration
	// FailThreshold is the number of consecutive RPC failures after
	// which a worker is evicted from the current generation (default 3).
	// A later successful heartbeat re-admits it.
	FailThreshold int
	// MaxLeaseAttempts caps remote attempts per lease before the
	// coordinator gives up on the fleet for that lease and samples it
	// locally (default 4).
	MaxLeaseAttempts int
	// Seed keys the coordinator's retry-jitter stream so chaos tests
	// replay identically (default 1).
	Seed uint64
	// Events, when non-nil, receives fleet lifecycle events (worker
	// eviction, degraded-mode entry).
	Events obs.Sink
	// Logf, when non-nil, replaces log.Printf for fleet warnings.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 256
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 30 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ProbeTimeout > c.RPCTimeout {
		c.ProbeTimeout = c.RPCTimeout
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * c.RPCTimeout
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.MaxLeaseAttempts <= 0 {
		c.MaxLeaseAttempts = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// workerState tracks one worker's registration and health. All fields are
// guarded by Coordinator.mu.
type workerState struct {
	url string
	// probed is set once /worker/info has answered at least once; an
	// unprobed worker is never leased work.
	probed bool
	// fingerprint is the worker's replica fingerprint from its last
	// successful probe.
	fingerprint string
	// epoch/lineage place the replica on its graph's mutation epoch chain
	// (from the last successful probe). A replica at the wrong epoch —
	// typically one started before a mutation batch landed — is excluded
	// exactly like one holding the wrong graph.
	epoch   int64
	lineage string
	// model is the worker's diffusion model from its last successful
	// probe. A worker sampling under the wrong model is excluded exactly
	// like one holding the wrong graph.
	model string
	// mismatchLogged remembers the last (fingerprint, model) identity
	// this worker was logged as mismatching, so a permanent wrong-replica
	// configuration logs once, not once per Generate.
	mismatchLogged string
	// healthy means the last probe or RPC succeeded.
	healthy bool
	// evicted removes the worker from dispatch until a heartbeat
	// re-admits it (or permanently, for fingerprint mismatches —
	// re-admission requires the fingerprint to match again).
	evicted       bool
	consecFails   int
	batchesServed int64
}

// Coordinator distributes RR-set generation over a worker fleet. It
// satisfies core.Generator structurally (this package deliberately does
// not import core), so it plugs into core.Options.Generator or
// server.Config.Generator directly.
//
// Safe for concurrent use; each Generate call runs its own dispatch.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	workers []*workerState
	jitter  *rng.Source
	stop    chan struct{}
	stopped sync.WaitGroup
	started bool
	// degradedLogged remembers degrade reasons already logged once, for
	// reasons that describe a permanent configuration (no matching
	// replica) rather than a transient outage.
	degradedLogged map[string]bool
}

// NewCoordinator returns a Coordinator over cfg.Workers. Workers are
// registered lazily: the first Generate (or Start) probes them.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{cfg: cfg, jitter: rng.NewStream(cfg.Seed, 0x1ea5e)}
	for _, u := range cfg.Workers {
		c.workers = append(c.workers, &workerState{url: u})
	}
	return c
}

// Start launches the background heartbeat prober. It is optional —
// Generate probes unregistered workers itself — but without it a worker
// that died stays undetected until it fails leases, and an evicted worker
// that recovered is never re-admitted. Call Close to stop it.
func (c *Coordinator) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return
	}
	c.started = true
	c.stop = make(chan struct{})
	c.stopped.Add(1)
	go func() {
		defer c.stopped.Done()
		t := time.NewTicker(c.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// Close stops the heartbeat prober. It does not interrupt an in-flight
// Generate.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return
	}
	c.started = false
	close(c.stop)
	c.mu.Unlock()
	c.stopped.Wait()
}

// probeAll heartbeats every worker: GET /worker/info, verify the
// fingerprint is self-consistent, update health, re-admit recovered
// workers. Probing also performs initial registration. Probes run
// concurrently so one blackholed worker delays a sweep by ProbeTimeout,
// not by ProbeTimeout × fleet size.
func (c *Coordinator) probeAll() {
	c.mu.Lock()
	targets := make([]*workerState, len(c.workers))
	copy(targets, c.workers)
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, w := range targets {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			info, err := c.probe(w.url)
			c.mu.Lock()
			defer c.mu.Unlock()
			if err != nil {
				w.healthy = false
				return
			}
			prev := w.fingerprint
			w.probed = true
			w.fingerprint = info.Fingerprint
			w.epoch, w.lineage = info.Epoch, info.Lineage
			w.model = info.Model
			w.healthy = true
			w.consecFails = 0
			if w.evicted {
				// Re-admission: the worker answers again. If it was
				// evicted for an identity mismatch, the mismatch check
				// at dispatch time still excludes it unless its replica
				// changed to the right graph and model.
				w.evicted = false
				if prev != info.Fingerprint {
					c.cfg.Logf("fleet: worker %s re-admitted with fingerprint %.12s", w.url, info.Fingerprint)
				}
			}
		}(w)
	}
	wg.Wait()
	c.updateHealthyGauge()
}

func (c *Coordinator) probe(url string) (*infoResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+pathInfo, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // best-effort drain for keep-alive
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s%s: status %d", url, pathInfo, resp.StatusCode)
	}
	var info infoResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&info); err != nil {
		return nil, fmt.Errorf("fleet: %s%s: %w", url, pathInfo, err)
	}
	return &info, nil
}

func (c *Coordinator) updateHealthyGauge() {
	c.mu.Lock()
	n := 0
	for _, w := range c.workers {
		if w.probed && w.healthy && !w.evicted {
			n++
		}
	}
	c.mu.Unlock()
	mHealthyWorkers.Set(float64(n))
}

// eligible returns the workers fit to receive leases for the influence
// instance (fp, epoch, lineage, model), probing any not-yet-registered
// worker first (concurrently, so an unreachable worker costs one
// ProbeTimeout, not one per worker, before the first lease goes out).
func (c *Coordinator) eligible(fp string, epoch int64, lineage, model string) []*workerState {
	c.mu.Lock()
	var unprobed []*workerState
	for _, w := range c.workers {
		if !w.probed {
			unprobed = append(unprobed, w)
		}
	}
	c.mu.Unlock()
	if len(unprobed) > 0 {
		var wg sync.WaitGroup
		for _, w := range unprobed {
			wg.Add(1)
			go func(w *workerState) {
				defer wg.Done()
				info, err := c.probe(w.url)
				c.mu.Lock()
				if err == nil {
					w.probed, w.healthy = true, true
					w.fingerprint, w.model = info.Fingerprint, info.Model
					w.epoch, w.lineage = info.Epoch, info.Lineage
				}
				c.mu.Unlock()
			}(w)
		}
		wg.Wait()
		c.updateHealthyGauge()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	want := fmt.Sprintf("%s@%d/%s/%s", fp, epoch, lineage, model)
	var out []*workerState
	for _, w := range c.workers {
		if !w.probed || !w.healthy || w.evicted {
			continue
		}
		if w.fingerprint != fp || w.epoch != epoch || w.lineage != lineage || w.model != model {
			mFPMismatches.Inc()
			// A wrong replica is usually a permanent configuration (or, for
			// an epoch mismatch, lasts until the worker restarts on the
			// mutated graph): log each worker's exclusion once per wanted
			// identity, not once per Generate.
			if w.mismatchLogged != want {
				w.mismatchLogged = want
				c.cfg.Logf("fleet: worker %s holds graph %.12s epoch %d model %s, session needs %.12s epoch %d model %s; excluded",
					w.url, w.fingerprint, w.epoch, w.model, fp, epoch, model)
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// Lease lifecycle. A lease is a contiguous seed range [lo, hi) of the
// batch; its RR sets are Split(startID+lo) … Split(startID+hi-1).
type leaseStatus int32

const (
	leaseQueued leaseStatus = iota
	leaseInFlight
	leaseDone
)

type lease struct {
	lo, hi int
	// All below guarded by run.mu.
	status       leaseStatus
	attempts     int
	dispatchedAt time.Time
	result       *rrset.Collection
}

// run is the per-Generate dispatch state.
type run struct {
	c *Coordinator

	fp      string
	epoch   int64
	lineage string
	model   string
	key0    string
	key1    string
	startID uint64
	workers int // worker-local sampling parallelism hint

	sampler *rrset.Sampler // for local fallback

	mu        sync.Mutex
	leases    []*lease
	remaining int

	queue   chan int      // lease indices awaiting pickup
	allDone chan struct{} // closed when remaining hits 0
	// ctx parents every lease RPC and is cancelled the moment the run
	// completes, so a losing speculative RPC on a wedged worker cannot
	// hold Generate hostage for the rest of its RPCTimeout.
	ctx    context.Context
	cancel context.CancelFunc
}

// Generate implements the core.Generator contract: it appends count RR
// sets to coll, deterministically equivalent to
// rrset.Generate(coll, s, count, base, workers), by leasing seed ranges to
// the fleet and merging results in order. It never fails: leases that the
// fleet cannot serve — including all of them, when no worker is healthy —
// are sampled locally.
func (c *Coordinator) Generate(coll *rrset.Collection, s *rrset.Sampler, count int, base *rng.Source, workers int) {
	if count <= 0 {
		return
	}
	mGenerations.Inc()
	g := s.Graph()
	fp := g.Fingerprint()
	epoch, lineage := g.Epoch(), g.EpochLineage()
	model := s.Model().String()
	eligible := c.eligible(fp, epoch, lineage, model)
	if len(eligible) == 0 {
		why, permanent := c.degradeReason(fp, epoch, model)
		c.degrade(coll, s, count, base, workers, why, permanent)
		return
	}

	k0, k1 := base.Key()
	startID := uint64(coll.Count())
	r := &run{
		c:       c,
		fp:      fp,
		epoch:   epoch,
		lineage: lineage,
		model:   model,
		key0:    strconv.FormatUint(k0, 16),
		key1:    strconv.FormatUint(k1, 16),
		startID: startID,
		workers: workers,
		sampler: s,
		allDone: make(chan struct{}),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	defer r.cancel()
	for lo := 0; lo < count; lo += c.cfg.ChunkSize {
		hi := lo + c.cfg.ChunkSize
		if hi > count {
			hi = count
		}
		r.leases = append(r.leases, &lease{lo: lo, hi: hi})
	}
	r.remaining = len(r.leases)
	mLeases.Add(int64(len(r.leases)))
	// Capacity covers every lease at its attempt cap plus watchdog
	// re-pushes; pushes are non-blocking besides, so the exact figure
	// only affects how rarely the watchdog has to re-push.
	r.queue = make(chan int, len(r.leases)*(c.cfg.MaxLeaseAttempts+2))
	for i := range r.leases {
		r.queue <- i
	}

	// One puller per eligible worker, plus a watchdog that reassigns
	// leases stuck in flight past the TTL.
	var wg sync.WaitGroup
	for _, w := range eligible {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			r.pull(w)
		}(w)
	}
	watchdogDone := make(chan struct{})
	go r.watchdog(watchdogDone)

	workersExited := make(chan struct{})
	go func() { wg.Wait(); close(workersExited) }()

	select {
	case <-r.allDone:
	case <-workersExited:
		// Every worker failed out mid-run with leases still open. No
		// RPCs remain in flight (pullers exited), so finish the tail
		// locally — at-least-once still holds, and markDone dedup makes
		// the merge exactly-once even if this races nothing.
		r.finishLocally("all workers evicted mid-generation")
	}
	close(watchdogDone)
	wg.Wait()

	// Merge in lease order: byte-identical to the single-process run.
	for _, l := range r.leases {
		if err := coll.AppendCollection(l.result); err != nil {
			// Unreachable: every chunk was generated for coll's graph.
			panic(fmt.Sprintf("fleet: merge: %v", err))
		}
	}
}

// degradeReason distinguishes the two ways a fleet ends up with no
// eligible worker: a genuine outage (nobody healthy) versus a permanent
// configuration where healthy workers exist but none replicates this
// session's (graph, model). The latter is expected on a multi-graph
// daemon and reported quietly (once per identity) so it cannot drown out
// real outages.
func (c *Coordinator) degradeReason(fp string, epoch int64, model string) (why string, permanent bool) {
	c.mu.Lock()
	aliveMismatched := 0
	for _, w := range c.workers {
		if w.probed && w.healthy && !w.evicted {
			aliveMismatched++
		}
	}
	c.mu.Unlock()
	if aliveMismatched > 0 {
		mNoReplica.Inc()
		return fmt.Sprintf("no worker replicates graph %.12s epoch %d model %s", fp, epoch, model), true
	}
	return "no healthy workers", false
}

// degrade falls back to fully local, in-process generation. A permanent
// reason (no matching replica — a configuration, not an incident) is
// logged and emitted once; transient outages are reported every time.
func (c *Coordinator) degrade(coll *rrset.Collection, s *rrset.Sampler, count int, base *rng.Source, workers int, why string, permanent bool) {
	mDegraded.Inc()
	loud := true
	if permanent {
		c.mu.Lock()
		if c.degradedLogged == nil {
			c.degradedLogged = make(map[string]bool)
		}
		loud = !c.degradedLogged[why]
		c.degradedLogged[why] = true
		c.mu.Unlock()
	}
	if loud {
		suffix := ""
		if permanent {
			suffix = " (further occurrences logged at most once)"
		}
		c.cfg.Logf("fleet: DEGRADED: %s; sampling %d RR sets locally%s", why, count, suffix)
		obs.Emit(c.cfg.Events, "fleet_degraded", map[string]any{
			"reason": why,
			"count":  count,
		})
	}
	rrset.Generate(coll, s, count, base, workers)
}

// pull is one worker's dispatch loop: take a lease, run the RPC, deliver
// or requeue. It exits when the run completes or its worker is evicted.
func (r *run) pull(w *workerState) {
	for {
		select {
		case <-r.allDone:
			return
		case idx := <-r.queue:
			l := r.leases[idx]
			r.mu.Lock()
			if l.status == leaseDone {
				r.mu.Unlock()
				continue
			}
			// A speculative pickup (the lease is already in flight on
			// another worker) races the original delivery; it does not
			// consume an attempt, so a slow-but-healthy holder cannot
			// burn the lease through MaxLeaseAttempts by itself.
			if l.status != leaseInFlight {
				l.attempts++
			}
			l.status = leaseInFlight
			attempt := l.attempts
			l.dispatchedAt = time.Now()
			r.mu.Unlock()

			cc, err := r.generateRPC(w, l)
			if err == nil {
				r.markDone(idx, cc, w)
				continue
			}
			select {
			case <-r.allDone:
				// The run completed while this RPC was in flight and
				// cancelled it; that is not the worker's failure.
				return
			default:
			}

			mRPCFailures.Inc()
			evicted := r.c.workerFailed(w, err)
			r.mu.Lock()
			done := l.status == leaseDone
			if !done {
				l.status = leaseQueued
			}
			r.mu.Unlock()
			if !done {
				if attempt >= r.c.cfg.MaxLeaseAttempts {
					// The fleet has had its chances; compute this lease
					// in-process so the batch still completes.
					r.localLease(idx, "attempt cap reached")
				} else {
					r.push(idx)
				}
			}
			if evicted {
				return
			}
			// Jittered backoff before this worker takes another lease,
			// mirroring the client retry idiom: failures are rarely
			// fixed by immediately hammering the same endpoint.
			r.backoff(attempt)
		}
	}
}

// push enqueues a lease index without ever blocking a puller; if the
// queue is momentarily full the watchdog will re-push on its next sweep.
func (r *run) push(idx int) {
	select {
	case r.queue <- idx:
	default:
	}
}

func (r *run) backoff(attempt int) {
	base := 50 * time.Millisecond
	max := time.Second
	d := base << uint(attempt-1)
	if d > max {
		d = max
	}
	r.c.mu.Lock()
	j := time.Duration(r.c.jitter.Float64() * float64(d) / 2)
	r.c.mu.Unlock()
	select {
	case <-time.After(d/2 + j):
	case <-r.allDone:
	}
}

// markDone records a lease delivery. The first delivery wins; later
// duplicates (speculative reassignment racing the original) are counted
// and discarded, keeping the merge exactly-once.
func (r *run) markDone(idx int, cc *rrset.Collection, w *workerState) {
	l := r.leases[idx]
	r.mu.Lock()
	if l.status == leaseDone {
		r.mu.Unlock()
		mDuplicates.Inc()
		return
	}
	l.status = leaseDone
	l.result = cc
	r.remaining--
	last := r.remaining == 0
	r.mu.Unlock()
	if w != nil {
		r.c.workerSucceeded(w)
	}
	if last {
		close(r.allDone)
		// Cancel in-flight losing RPCs immediately: Generate must not
		// wait out a wedged worker's RPCTimeout after the batch is done.
		r.cancel()
	}
}

// localLease computes one lease in-process — the per-lease degradation
// path for leases the fleet kept failing.
func (r *run) localLease(idx int, why string) {
	l := r.leases[idx]
	r.mu.Lock()
	if l.status == leaseDone {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	mLeasesLocal.Inc()
	r.c.cfg.Logf("fleet: lease [%d,%d): %s; sampling locally", l.lo, l.hi, why)
	r.markDone(idx, r.generateLocal(l), nil)
}

// generateLocal reproduces a lease's exact chunk in-process.
func (r *run) generateLocal(l *lease) *rrset.Collection {
	cc := rrset.NewCollection(r.sampler.Graph().N())
	k0, _ := strconv.ParseUint(r.key0, 16, 64)
	k1, _ := strconv.ParseUint(r.key1, 16, 64)
	base := rng.NewFromKey(k0, k1)
	rrset.GenerateAt(cc, r.sampler, l.hi-l.lo, base, r.startID+uint64(l.lo), r.workers)
	return cc
}

// finishLocally completes every unfinished lease in-process.
func (r *run) finishLocally(why string) {
	for idx, l := range r.leases {
		r.mu.Lock()
		open := l.status != leaseDone
		r.mu.Unlock()
		if open {
			r.localLease(idx, why)
		}
	}
}

// watchdog reassigns leases stuck in flight past the TTL (the holder may
// be wedged, GC-paused, or dead without closing the connection) and
// re-pushes queued leases whose enqueue was dropped on a full queue.
func (r *run) watchdog(stop chan struct{}) {
	tick := r.c.cfg.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-r.allDone:
			return
		case <-t.C:
			now := time.Now()
			for idx, l := range r.leases {
				r.mu.Lock()
				expired := l.status == leaseInFlight && now.Sub(l.dispatchedAt) > r.c.cfg.LeaseTTL
				if expired {
					// Re-arm the TTL so one expiry triggers one
					// reassignment, not one per tick until a puller
					// happens to pick the duplicate up.
					l.dispatchedAt = now
				}
				requeue := l.status == leaseQueued
				r.mu.Unlock()
				if expired {
					mLeasesReassigned.Inc()
					r.c.cfg.Logf("fleet: lease [%d,%d) expired after %v; reassigning", l.lo, l.hi, r.c.cfg.LeaseTTL)
					r.push(idx)
				} else if requeue {
					r.push(idx)
				}
			}
		}
	}
}

// generateRPC ships one lease to w and decodes the returned chunk. Any
// transport error, non-200 status, or CRC/format failure is returned for
// the caller to retry elsewhere; a 412 additionally evicts the worker
// (its replica is the wrong graph — no retry can help).
func (r *run) generateRPC(w *workerState, l *lease) (*rrset.Collection, error) {
	body, err := json.Marshal(generateRequest{
		Fingerprint: r.fp,
		Epoch:       r.epoch,
		Lineage:     r.lineage,
		Model:       r.model,
		Key0:        r.key0,
		Key1:        r.key1,
		StartID:     r.startID + uint64(l.lo),
		Count:       l.hi - l.lo,
		Workers:     r.workers,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(r.ctx, r.c.cfg.RPCTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+pathGenerate, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := r.c.cfg.Client.Do(req)
	mRPCTimer.Observe(time.Since(start))
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10)) //nolint:errcheck // best-effort drain for keep-alive
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusPreconditionFailed:
		mFPMismatches.Inc()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		why := string(bytes.TrimSpace(msg))
		if why == "" {
			why = "identity mismatch"
		}
		r.c.evict(w, why)
		return nil, fmt.Errorf("fleet: %s refused lease: %s", w.url, why)
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("fleet: %s%s: status %d: %s", w.url, pathGenerate, resp.StatusCode, bytes.TrimSpace(msg))
	}
	cc, err := rrset.ReadCollection(resp.Body)
	if err != nil {
		// Torn or corrupted transfer; the OPIMR3 CRC trailer turns it
		// into a clean retryable error instead of silent bad data.
		return nil, fmt.Errorf("fleet: %s: chunk decode: %w", w.url, err)
	}
	if got := cc.Count(); got != l.hi-l.lo {
		return nil, fmt.Errorf("fleet: %s returned %d RR sets for a lease of %d", w.url, got, l.hi-l.lo)
	}
	return cc, nil
}

// workerFailed records an RPC failure; crossing FailThreshold evicts the
// worker. Reports whether the worker is now evicted.
func (c *Coordinator) workerFailed(w *workerState, err error) bool {
	c.mu.Lock()
	w.consecFails++
	hit := w.consecFails >= c.cfg.FailThreshold && !w.evicted
	c.mu.Unlock()
	if hit {
		c.evict(w, fmt.Sprintf("%d consecutive failures (last: %v)", c.cfg.FailThreshold, err))
	}
	c.mu.Lock()
	out := w.evicted
	c.mu.Unlock()
	return out
}

func (c *Coordinator) workerSucceeded(w *workerState) {
	c.mu.Lock()
	w.consecFails = 0
	w.healthy = true
	w.batchesServed++
	c.mu.Unlock()
}

func (c *Coordinator) evict(w *workerState, why string) {
	c.mu.Lock()
	already := w.evicted
	w.evicted = true
	w.healthy = false
	c.mu.Unlock()
	if already {
		return
	}
	mEvictions.Inc()
	c.cfg.Logf("fleet: evicting worker %s: %s", w.url, why)
	obs.Emit(c.cfg.Events, "fleet_evict", map[string]any{
		"worker": w.url,
		"reason": why,
	})
	c.updateHealthyGauge()
}
