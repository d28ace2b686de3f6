package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
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
	// LeaseTTL is how long a lease may stay in flight before an idle
	// worker takes a speculative copy of it (default 2×RPCTimeout; the
	// original RPC keeps running — first delivery wins, the loser is
	// discarded as a duplicate).
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

// probeTimeout bounds each /worker/info probe (capped at RPCTimeout).
// Probes are answered from memory, so they get a much tighter deadline
// than lease RPCs: one blackholed worker must not stall a heartbeat sweep
// or a Generate's registration for the full lease timeout.
const probeTimeout = 2 * time.Second

// workerState tracks one worker's registration and health. All fields are
// guarded by Coordinator.mu.
type workerState struct {
	url string
	// probed is set once /worker/info has answered at least once; an
	// unprobed worker is never leased work.
	probed bool
	// replica is what the worker reported holding in its last successful
	// probe. A worker holding another replica than the session's — the
	// wrong graph, one started before a mutation batch landed, or the
	// wrong model — is excluded from dispatch.
	replica replica
	// mismatchLogged is the replica the worker held when its exclusion was
	// last logged. What a worker holds changes only when it restarts or
	// re-registers, so its exclusion logs once per replica it holds, not
	// once per Generate or per session it cannot serve.
	mismatchLogged replica
	// healthy means the last probe or RPC succeeded.
	healthy bool
	// evicted removes the worker from dispatch until a heartbeat
	// re-admits it (or permanently, for replica mismatches —
	// re-admission requires the replica to match again).
	evicted     bool
	consecFails int
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
	// degradedHeld names the replicas the healthy workers held when a
	// no-worker-replicates degradation was last logged: that describes a
	// configuration, which changes only when a worker restarts or
	// re-registers, rather than a transient outage.
	degradedHeld string
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
				c.probe(c.workers)
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

// probe asks the given workers for GET /worker/info and records each
// answer: a worker that answers is registered, healthy, holds the replica
// it reports, and is re-admitted if it was evicted; one that does not is
// unhealthy. The heartbeat probes every worker, Generate the ones not yet
// registered. Probes run concurrently, so one blackholed worker delays
// the caller by one probe deadline, not one per worker.
func (c *Coordinator) probe(workers []*workerState) {
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			info, err := c.info(w.url)
			c.mu.Lock()
			if err != nil {
				w.healthy = false
				c.mu.Unlock()
				return
			}
			// Re-admission: an evicted worker answers again. If it was
			// evicted for a replica mismatch, eligible still excludes it
			// unless its replica changed to the session's.
			changed := w.evicted && w.replica != info.replica
			w.probed, w.healthy, w.evicted, w.consecFails = true, true, false, 0
			w.replica = info.replica
			c.mu.Unlock()
			if changed {
				c.cfg.Logf("fleet: worker %s re-admitted holding %v", w.url, info.replica)
			}
		}(w)
	}
	wg.Wait()
	c.updateHealthyGauge()
}

func (c *Coordinator) info(url string) (*infoResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), min(probeTimeout, c.cfg.RPCTimeout))
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

// eligible returns the workers fit to receive leases for replica want,
// probing any not-yet-registered worker first.
func (c *Coordinator) eligible(want replica) []*workerState {
	c.mu.Lock()
	var unprobed []*workerState
	for _, w := range c.workers {
		if !w.probed {
			unprobed = append(unprobed, w)
		}
	}
	c.mu.Unlock()
	if len(unprobed) > 0 {
		c.probe(unprobed)
	}

	c.mu.Lock()
	var out []*workerState
	var excluded []string
	for _, w := range c.workers {
		if !w.probed || !w.healthy || w.evicted {
			continue
		}
		if w.replica != want {
			mFPMismatches.Inc()
			if w.mismatchLogged != w.replica {
				w.mismatchLogged = w.replica
				excluded = append(excluded, fmt.Sprintf("worker %s holds %v, session needs %v", w.url, w.replica, want))
			}
			continue
		}
		out = append(out, w)
	}
	c.mu.Unlock()
	for _, e := range excluded {
		c.cfg.Logf("fleet: %s; excluded", e)
	}
	return out
}

// A lease is a contiguous seed range [lo, hi) of the batch; its RR sets
// are Split(startID+lo) … Split(startID+hi-1).
type lease struct {
	lo, hi int
	// All below guarded by run.mu.
	attempts int           // takes from the queue; speculative copies do not count
	due      time.Time     // when the lease, in flight, passes LeaseTTL
	result   []rrset.Batch // the first delivery; set once the lease is done
}

// run is one Generate's lease table. A lease is queued (in queue), in
// flight (in inFlight) or done (result set); the one exception is a lease
// a dispatch loop samples in-process at its attempt cap, which is in
// neither until it is done.
type run struct {
	c       *Coordinator
	req     generateRequest // every lease's body, but for StartID and Count
	base    *rng.Source     // for in-process sampling
	sampler *rrset.Sampler

	mu        sync.Mutex
	leases    []*lease
	queue     []int        // queued lease indices, FIFO; a failed lease rejoins at the back
	inFlight  map[int]bool // indices of the leases some worker is running
	remaining int          // leases not yet done
	// requeued is closed and replaced whenever a lease rejoins the queue,
	// waking the dispatch loops waiting in next.
	requeued chan struct{}
	// ctx parents every lease RPC and is cancelled the moment the last
	// lease is done: that ends the dispatch loops, and a losing RPC on a
	// wedged worker cannot hold Generate hostage for its RPCTimeout.
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
	want := replicaOf(s)
	eligible := c.eligible(want)
	if len(eligible) == 0 {
		c.degrade(want, count)
		rrset.Generate(coll, s, count, base, workers)
		return
	}

	k0, k1 := base.Key()
	r := &run{
		c: c,
		req: generateRequest{
			replica: want,
			Key0:    strconv.FormatUint(k0, 16),
			Key1:    strconv.FormatUint(k1, 16),
			StartID: uint64(coll.Count()),
			Workers: workers,
		},
		base:     base,
		sampler:  s,
		inFlight: make(map[int]bool),
		requeued: make(chan struct{}),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	defer r.cancel()
	for lo := 0; lo < count; lo += c.cfg.ChunkSize {
		r.queue = append(r.queue, len(r.leases))
		r.leases = append(r.leases, &lease{lo: lo, hi: min(lo+c.cfg.ChunkSize, count)})
	}
	r.remaining = len(r.leases)
	mLeases.Add(int64(len(r.leases)))

	// One dispatch loop per eligible worker. Each ends when the last lease
	// is done or its worker is evicted.
	var wg sync.WaitGroup
	for _, w := range eligible {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			r.dispatch(w)
		}(w)
	}
	wg.Wait()
	// A lease is still open only if every worker was evicted mid-run. No
	// RPC remains in flight, so the tail is sampled in-process.
	for i, l := range r.leases {
		if l.result == nil {
			r.sampleLocally(i, "all workers evicted mid-generation")
		}
	}

	// Merge in lease order, once: byte-identical to the single-process run.
	var batches []rrset.Batch
	for _, l := range r.leases {
		batches = append(batches, l.result...)
	}
	coll.Append(workers, batches...)
}

// degrade reports a Generate that no worker can serve; the caller samples
// the whole batch locally. Nobody healthy is an outage, reported every
// time. Healthy workers that all hold other replicas are a configuration,
// expected on a multi-graph daemon and on a mutating graph whose workers
// lag its epochs: counted apart, and logged and evented once per change in
// the set of replicas the healthy workers hold, so it cannot drown out
// real outages.
func (c *Coordinator) degrade(want replica, count int) {
	mDegraded.Inc()
	c.mu.Lock()
	var held []string
	for _, w := range c.workers {
		if w.probed && w.healthy && !w.evicted {
			held = append(held, w.replica.String())
		}
	}
	slices.Sort(held)
	key := strings.Join(slices.Compact(held), "; ")
	why, suffix, loud := "no healthy workers", "", true
	if len(held) > 0 {
		mNoReplica.Inc()
		why, suffix = "no worker replicates "+want.String(), " (logged again when the workers' replicas change)"
		loud = key != c.degradedHeld
	}
	c.degradedHeld = key
	c.mu.Unlock()
	if loud {
		c.cfg.Logf("fleet: DEGRADED: %s; sampling %d RR sets locally%s", why, count, suffix)
		obs.Emit(c.cfg.Events, "fleet_degraded", map[string]any{
			"reason": why,
			"count":  count,
		})
	}
}

// dispatch is one worker's loop: take a lease, run the RPC, deliver or
// requeue. It exits when the run is over or its worker is evicted.
func (r *run) dispatch(w *workerState) {
	for {
		idx, ok := r.next()
		if !ok {
			return
		}
		batches, err := r.generateRPC(w, r.leases[idx])
		if err == nil {
			r.markDone(idx, batches, w)
			continue
		}
		if r.ctx.Err() != nil {
			// The run completed while this RPC was in flight and
			// cancelled it; that is not the worker's failure.
			return
		}
		mRPCFailures.Inc()
		evicted := r.c.workerFailed(w, err)
		attempts, capped := r.fail(idx)
		if capped {
			// The fleet has had its chances; compute this lease
			// in-process so the batch still completes.
			r.sampleLocally(idx, "attempt cap reached")
		}
		if evicted {
			return
		}
		// Jittered backoff before this worker takes another lease,
		// mirroring the client retry idiom: failures are rarely fixed by
		// immediately hammering the same endpoint.
		r.backoff(attempts)
	}
}

// next hands a dispatch loop its next lease: a speculative copy of the
// in-flight lease overdue longest, once it passes LeaseTTL; else the next
// queued lease; else it waits for a requeue, the nearest TTL expiry or
// the end of the run. ok is false once the run is over. A copy re-arms
// the lease's TTL, so each expiry yields one copy, and it does not
// consume an attempt, so a slow-but-healthy holder cannot burn the lease
// through MaxLeaseAttempts by itself.
func (r *run) next() (idx int, ok bool) {
	ttl := r.c.cfg.LeaseTTL
	r.mu.Lock()
	for r.ctx.Err() == nil {
		now := time.Now()
		// The lease overdue longest is the one due first.
		late, wake := -1, now.Add(ttl)
		for i := range r.inFlight {
			if due := r.leases[i].due; due.Before(wake) {
				late, wake = i, due
			}
		}
		if late >= 0 && !wake.After(now) {
			l := r.leases[late]
			l.due = now.Add(ttl)
			r.mu.Unlock()
			mLeasesReassigned.Inc()
			r.c.cfg.Logf("fleet: lease [%d,%d) expired after %v; reassigning a copy", l.lo, l.hi, ttl)
			return late, true
		}
		for len(r.queue) > 0 {
			idx, r.queue = r.queue[0], r.queue[1:]
			// A lease requeued while a copy of it was still in flight
			// may have been delivered since.
			if l := r.leases[idx]; l.result == nil {
				l.attempts++
				l.due = now.Add(ttl)
				r.inFlight[idx] = true
				r.mu.Unlock()
				return idx, true
			}
		}
		requeued := r.requeued
		r.mu.Unlock()
		t := time.NewTimer(wake.Sub(now))
		select {
		case <-requeued:
		case <-t.C:
		case <-r.ctx.Done():
		}
		t.Stop()
		r.mu.Lock()
	}
	r.mu.Unlock()
	return 0, false
}

// fail takes lease idx out of flight after a failed RPC and puts it at
// the back of the queue, or, once it has used MaxLeaseAttempts, reports it
// capped for the caller to sample in-process. A lease no longer in flight
// (delivered, or requeued by a failed copy) is left as it is.
func (r *run) fail(idx int) (attempts int, capped bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.leases[idx]
	if !r.inFlight[idx] {
		return l.attempts, false
	}
	delete(r.inFlight, idx)
	if l.attempts >= r.c.cfg.MaxLeaseAttempts {
		return l.attempts, true
	}
	r.queue = append(r.queue, idx)
	close(r.requeued)
	r.requeued = make(chan struct{})
	return l.attempts, false
}

// backoffDelay is the base pause after a lease's attempt-th failure:
// 50 ms, doubling per attempt up to 1 s. It stops doubling at the cap, so
// a large MaxLeaseAttempts cannot overflow the shift.
func backoffDelay(attempt int) time.Duration {
	d := 50 * time.Millisecond
	for i := 1; i < attempt && d < time.Second; i++ {
		d *= 2
	}
	return min(d, time.Second)
}

// backoff pauses a dispatch loop for half to all of backoffDelay(attempt),
// or until the run is over.
func (r *run) backoff(attempt int) {
	d := backoffDelay(attempt)
	r.c.mu.Lock()
	j := time.Duration(r.c.jitter.Float64() * float64(d) / 2)
	r.c.mu.Unlock()
	t := time.NewTimer(d/2 + j)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.ctx.Done():
	}
}

// markDone records a lease delivery. The first delivery wins; later
// duplicates (speculative reassignment racing the original) are counted
// and discarded, keeping the merge exactly-once. The last lease done
// cancels the run.
func (r *run) markDone(idx int, batches []rrset.Batch, w *workerState) {
	l := r.leases[idx]
	r.mu.Lock()
	if l.result != nil {
		r.mu.Unlock()
		mDuplicates.Inc()
		return
	}
	l.result = batches
	delete(r.inFlight, idx)
	r.remaining--
	last := r.remaining == 0
	r.mu.Unlock()
	if w != nil {
		r.c.workerSucceeded(w)
	}
	if last {
		r.cancel()
	}
}

// sampleLocally reproduces lease idx's exact sets in-process and
// delivers them.
func (r *run) sampleLocally(idx int, why string) {
	l := r.leases[idx]
	mLeasesLocal.Inc()
	r.c.cfg.Logf("fleet: lease [%d,%d): %s; sampling locally", l.lo, l.hi, why)
	r.markDone(idx, rrset.SampleAt(r.sampler, l.hi-l.lo, r.base, r.req.StartID+uint64(l.lo), r.req.Workers), nil)
}

// generateRPC ships one lease to w and decodes the returned frame. Any
// transport error, non-200 status, CRC/format failure, or a frame for
// another node count or width is returned for the caller to retry
// elsewhere; a 412 additionally evicts the worker (its replica is the
// wrong instance — no retry can help).
func (r *run) generateRPC(w *workerState, l *lease) ([]rrset.Batch, error) {
	lr := r.req
	lr.StartID += uint64(l.lo)
	lr.Count = l.hi - l.lo
	body, err := json.Marshal(lr)
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
			why = "replica mismatch"
		}
		r.c.evict(w, why)
		return nil, fmt.Errorf("fleet: %s refused lease: %s", w.url, why)
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("fleet: %s%s: status %d: %s", w.url, pathGenerate, resp.StatusCode, bytes.TrimSpace(msg))
	}
	b, err := rrset.ReadBatch(resp.Body)
	if err != nil {
		// Torn or corrupted transfer; the OPIMR3 CRC trailer turns it
		// into a clean retryable error instead of silent bad data.
		return nil, fmt.Errorf("fleet: %s: chunk decode: %w", w.url, err)
	}
	// A frame for another graph size cannot join the collection: refuse it
	// the way a torn one is refused.
	if n := r.sampler.Graph().N(); b.N != n || len(b.Exam) != l.hi-l.lo {
		return nil, fmt.Errorf("fleet: %s returned %d RR sets on %d nodes for a lease of %d on %d", w.url, len(b.Exam), b.N, l.hi-l.lo, n)
	}
	return []rrset.Batch{b}, nil
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
