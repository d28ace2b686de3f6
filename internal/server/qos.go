package server

// Multi-tenant quality of service: the serving discipline that arbitrates
// thousands of concurrent sessions of very different sizes.
//
// Three mechanisms compose (docs/ROBUSTNESS.md has the operator view):
//
//   - Per-session token buckets gate admission of engine-touching
//     requests (/advance, /snapshot, /start, /checkpoint, /rounds,
//     /observations, bulk start and advance; runEngine charges them): a
//     tenant over its configured rate gets 429 + an honest Retry-After
//     equal to the time until its next token, so one chatty client cannot
//     monopolize the request path. A request refused for its input pays
//     no token. Rates come from SessionSpec.Rate/Burst, defaulted by
//     Config.DefaultRate/DefaultBurst (0 = unlimited).
//
//   - A bounded admission queue replaces the old hard inflight shed:
//     above Config.MaxInflight a request briefly queues for a slot
//     (bounded by MaxQueue and MaxQueueWait) instead of failing a request
//     the server could serve a moment later; when the queue is full, or
//     the estimated wait — queue depth × measured service time — already
//     exceeds the wait budget, the request is rejected immediately with
//     429 + a Retry-After computed from that same estimate. Only 429 and
//     503 carry a hint, each derived from live state, never a constant:
//     the token wait for a rate-limited tenant, else live queue depth and
//     the service-time EWMA. A 409 carries none: the batch it met lasts
//     milliseconds, so the client's own backoff is the right wait.
//
//   - Deficit-weighted round-robin background sampling: each visit of the
//     sampler loop credits a running session weight × Batch RR sets of
//     deficit and serves up to the accumulated deficit in Batch-sized
//     chunks, so a session's share of sampling throughput follows its
//     SessionSpec.Weight — a weight-4 campaign refines 4× faster than a
//     weight-1 probe — while per-chunk lock holds stay bounded by one
//     Batch, preserving the isolation guarantee that a client request on
//     a session waits at most one batch of its own work.

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/opim/internal/obs"
)

// Admission-control metrics (obs.Default(), see docs/OBSERVABILITY.md).
var (
	mAdmissionQueued      = obs.Default().Counter("server_admission_queued_total")
	mAdmissionRejected    = obs.Default().Counter("server_admission_rejected_total")
	mAdmissionRatelimited = obs.Default().Counter("server_admission_ratelimited_total")
	mAdmissionWait        = obs.Default().Timer("server_admission_wait_seconds")
	gAdmissionQueueDepth  = obs.Default().Gauge("server_admission_queue_depth")
	gAdmissionServiceEWMA = obs.Default().Gauge("server_admission_service_ewma_seconds")
	gAdmissionRetryAfter  = obs.Default().Gauge("server_admission_retry_after_seconds")
)

// QoS defaults and bounds.
const (
	// defaultMaxQueueWait bounds how long an over-capacity request parks in
	// the admission queue before a 429 (Config.MaxQueueWait ≤ 0).
	defaultMaxQueueWait = 500 * time.Millisecond
	// maxSessionWeight bounds SessionSpec.Weight; a larger spread turns
	// weighted fairness back into starvation.
	maxSessionWeight = 1024
	// deficitBurstCap caps a session's accumulated sampling deficit, in
	// multiples of its per-visit credit (weight × Batch): a session that
	// was budget-clamped for a while may catch up by at most this factor
	// in one visit, keeping rotation latency bounded.
	deficitBurstCap = 2
	// maxRetryAfterSeconds clamps honest Retry-After hints; past a minute
	// the client should poll, not trust a point estimate.
	maxRetryAfterSeconds = 60
	// svcPrior seeds the service-time estimate before the first completed
	// request has been measured.
	svcPrior = 50 * time.Millisecond
)

// tokenBucket is a standard token bucket: capacity `burst` tokens,
// refilled continuously at `rate` tokens/second. take consumes one token
// or reports how long until one accrues.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second, > 0
	burst  float64 // bucket depth, ≥ 1
	tokens float64
	last   time.Time
}

// newTokenBucket returns a full bucket. burst ≤ 0 defaults to
// max(1, rate) — at least one request, and roughly one second of rate.
func newTokenBucket(rate, burst float64) *tokenBucket {
	if burst <= 0 {
		burst = math.Max(1, rate)
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

// take consumes one token at time now. When the bucket is empty it
// reports ok=false and the wait until the next whole token accrues — the
// honest Retry-After for this tenant.
func (b *tokenBucket) take(now time.Time) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := 1 - b.tokens
	return false, time.Duration(need / b.rate * float64(time.Second))
}

// ewma is a lock-free exponentially-weighted moving average of request
// service time, the latency half of every honest Retry-After estimate.
type ewma struct{ bits atomic.Uint64 }

const ewmaAlpha = 0.2

func (e *ewma) observe(d time.Duration) {
	s := d.Seconds()
	for {
		old := e.bits.Load()
		prev := math.Float64frombits(old)
		next := s
		if prev != 0 {
			next = (1-ewmaAlpha)*prev + ewmaAlpha*s
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (e *ewma) seconds() float64 { return math.Float64frombits(e.bits.Load()) }

// serviceEstimate is the current per-request service-time estimate,
// falling back to a prior before the first measurement.
func (s *Server) serviceEstimate() time.Duration {
	if sec := s.svc.seconds(); sec > 0 {
		return time.Duration(sec * float64(time.Second))
	}
	return svcPrior
}

// estimatedWait predicts how long the request at queue position pos
// (1-based) waits for a slot: pos × service time, spread over the
// configured parallelism.
func (s *Server) estimatedWait(pos int64) time.Duration {
	slots := int64(s.cfg.MaxInflight)
	if slots <= 0 {
		slots = 1
	}
	est := time.Duration(pos) * s.serviceEstimate() / time.Duration(slots)
	return est
}

// retryAfterSeconds derives the Retry-After hint from live state: the
// expected wait for a new arrival behind the current queue, in whole
// seconds, clamped to [1, maxRetryAfterSeconds]. Never a constant — a
// server with a deep queue and slow requests tells its clients to stay
// away longer, which is what keeps the retry storm spread out.
func (s *Server) retryAfterSeconds() int {
	return ceilSeconds(s.estimatedWait(s.admQueued.Load() + 1))
}

// ceilSeconds rounds a wait up to whole seconds within the Retry-After
// clamp (the header has one-second resolution; rounding down would invite
// a guaranteed-too-early retry).
func ceilSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
}

// setRetryAfter stamps a Retry-After of secs and publishes it in
// server_admission_retry_after_seconds.
func setRetryAfter(w http.ResponseWriter, secs int) {
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	gAdmissionRetryAfter.Set(float64(secs))
}

// admitQueue is the global bounded admission queue: it acquires an
// inflight slot, briefly queueing when all are busy. A request that
// cannot plausibly be served within the wait budget — queue full, or
// estimated wait past MaxQueueWait — is rejected immediately with 429 and
// an honest Retry-After rather than parked to fail later. Returns whether
// a slot was acquired (the caller must release it); on false the response
// has been written (unless the client already disconnected).
func (s *Server) admitQueue(w http.ResponseWriter, r *http.Request) bool {
	select {
	case s.admSlots <- struct{}{}:
		return true
	default:
	}
	pos := s.admQueued.Add(1)
	if pos > s.admMaxQueue || s.estimatedWait(pos) > s.admMaxWait {
		gAdmissionQueueDepth.Set(float64(s.admQueued.Add(-1)))
		s.rejectAdmission(w, fmt.Sprintf(
			"server at capacity (%d in flight, %d queued)", s.cfg.MaxInflight, pos-1))
		return false
	}
	gAdmissionQueueDepth.Set(float64(pos))
	mAdmissionQueued.Inc()
	start := time.Now()
	timer := time.NewTimer(s.admMaxWait)
	defer timer.Stop()
	select {
	case s.admSlots <- struct{}{}:
		gAdmissionQueueDepth.Set(float64(s.admQueued.Add(-1)))
		mAdmissionWait.Observe(time.Since(start))
		return true
	case <-timer.C:
		gAdmissionQueueDepth.Set(float64(s.admQueued.Add(-1)))
		mAdmissionWait.Observe(time.Since(start))
		s.rejectAdmission(w, fmt.Sprintf(
			"no capacity within %v (%d in flight)", s.admMaxWait, s.cfg.MaxInflight))
		return false
	case <-r.Context().Done():
		gAdmissionQueueDepth.Set(float64(s.admQueued.Add(-1)))
		return false
	}
}

func (s *Server) rejectAdmission(w http.ResponseWriter, msg string) {
	mAdmissionRejected.Inc()
	setRetryAfter(w, s.retryAfterSeconds())
	http.Error(w, msg, http.StatusTooManyRequests)
}

// validateQoSSpec checks the SessionSpec QoS fields (zero values mean
// "server default" and always pass).
func validateQoSSpec(spec SessionSpec) error {
	if math.IsNaN(spec.Weight) || math.IsInf(spec.Weight, 0) || spec.Weight < 0 || spec.Weight > maxSessionWeight {
		return fmt.Errorf("weight %g outside (0, %d]", spec.Weight, maxSessionWeight)
	}
	if math.IsNaN(spec.Rate) || math.IsInf(spec.Rate, 0) {
		return fmt.Errorf("rate %g is not a finite number", spec.Rate)
	}
	if math.IsNaN(spec.Burst) || math.IsInf(spec.Burst, 0) || spec.Burst < 0 {
		return fmt.Errorf("burst %g must be a finite number ≥ 0", spec.Burst)
	}
	return nil
}

// applySessionSpec resolves the session's RR budget (capped by the
// server's) and serving-discipline parameters from spec values (0 =
// server default) and installs them before the session is published:
// weight for the DWRR sampler, rate/burst for the admission token bucket.
// A negative rate is the explicit "unlimited" override of a server-wide
// DefaultRate.
func (s *Server) applySessionSpec(sess *Session, spec servingSpec) {
	sess.spec = spec
	sess.maxRR = spec.MaxRR
	if sess.maxRR <= 0 || sess.maxRR > s.cfg.MaxRR {
		sess.maxRR = s.cfg.MaxRR
	}
	sess.weight = spec.Weight
	if sess.weight <= 0 {
		sess.weight = 1
	}
	rate, burst := spec.Rate, spec.Burst
	if rate == 0 {
		rate = s.cfg.DefaultRate
	}
	if burst <= 0 {
		burst = s.cfg.DefaultBurst
	}
	if rate > 0 {
		sess.bucket = newTokenBucket(rate, burst)
		sess.rate = rate
		sess.burst = sess.bucket.burst
	}
}

// creditServed settles a DWRR visit: the served RR sets are debited from
// the session's deficit (never below zero — an exhausted budget must not
// bank credit it could never have spent) and the per-tenant deficit gauge
// is republished.
func (s *Server) creditServed(sess *Session, served int64) {
	s.smu.Lock()
	sess.deficit -= float64(served)
	if sess.deficit < 0 {
		sess.deficit = 0
	}
	d := sess.deficit
	s.smu.Unlock()
	sess.gDeficit.Set(d)
}
