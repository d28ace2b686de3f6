// Package core implements the paper's contribution: online processing of
// influence maximization (OPIM, §§4–5) and its extension to conventional
// influence maximization (OPIM-C, Algorithm 2 in §6).
//
// The Online type is the streaming engine: it continuously generates random
// RR sets, split evenly between two disjoint collections — R1, the
// "nominators" used to select the seed set with Algorithm 1, and R2, the
// "judges" used to lower-bound the selected set's spread. At any pause
// point Snapshot derives a seed set S* and an instance-specific
// approximation guarantee α = σˡ(S*)/σᵘ(S°) that holds with probability at
// least 1−δ.
//
// Three guarantee variants mirror the paper's OPIM⁰ / OPIM⁺ / OPIM′:
//
//	Vanilla — σᵘ from eq. (8) via Λ1(S*)/(1−1/e)
//	Plus    — σᵘ from eq. (13) via the tightened Λ1ᵘ(S°) of eq. (10)
//	Prime   — σᵘ from eq. (15) via the Leskovec-style Λ1⋄(S°)
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/reprolab/opim/internal/bound"
	"github.com/reprolab/opim/internal/maxcover"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
)

// Guarantee-derivation metrics (obs.Default(), see docs/OBSERVABILITY.md).
// The core_last_* gauges always hold the most recent snapshot's paper
// quantities, which is what opimd's GET /metrics reports without spending
// any δ budget.
var (
	mSnapshots  = obs.Default().Counter("core_snapshots_total")
	mRounds     = obs.Default().Counter("core_rounds_total")
	mLastAlpha  = obs.Default().Gauge("core_last_alpha")
	mLastSigmaL = obs.Default().Gauge("core_last_sigma_lower")
	mLastSigmaU = obs.Default().Gauge("core_last_sigma_upper")
	mLastTheta1 = obs.Default().Gauge("core_last_theta1")
	mLastTheta2 = obs.Default().Gauge("core_last_theta2")
)

// Variant selects how the upper bound σᵘ(S°) is derived.
type Variant int

const (
	// Vanilla is OPIM⁰: σᵘ from Λ1(S*)/(1−1/e), eq. (8).
	Vanilla Variant = iota
	// Plus is OPIM⁺: σᵘ from Λ1ᵘ(S°) (eq. 10), the paper's recommended
	// variant, never worse than Vanilla (Lemma 5.2).
	Plus
	// Prime is OPIM′: σᵘ from the Leskovec-style Λ1⋄(S°) (eq. 15); tighter
	// than Vanilla on many instances but not always (§5).
	Prime
)

// String implements fmt.Stringer using the paper's names.
func (v Variant) String() string {
	switch v {
	case Vanilla:
		return "OPIM0"
	case Plus:
		return "OPIM+"
	case Prime:
		return "OPIM'"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Generator abstracts where a session's RR sets are produced. The default
// (LocalGenerator) samples in-process via rrset.Generate; a distributed
// implementation (internal/fleet's Coordinator) farms seed ranges out to
// worker processes. Implementations MUST be complete and deterministic:
// Generate appends exactly count sets to c, with set i of the batch driven
// by base.Split(startID+i) where startID is c's size at call time, so the
// resulting collection is byte-identical to rrset.Generate no matter where
// (or how many times, after retries) each range was actually sampled.
// There is no error return by design — an implementation that cannot reach
// its backends must degrade to local sampling rather than fail, because
// Advance sits under serving paths that promise progress.
type Generator interface {
	Generate(c *rrset.Collection, s *rrset.Sampler, count int, base *rng.Source, workers int)
}

// LocalGenerator is the default Generator: in-process sharded sampling.
type LocalGenerator struct{}

// Generate implements Generator via rrset.Generate.
func (LocalGenerator) Generate(c *rrset.Collection, s *rrset.Sampler, count int, base *rng.Source, workers int) {
	rrset.Generate(c, s, count, base, workers)
}

// Options configures an Online session or a Maximize call.
type Options struct {
	// K is the seed-set size (required, 1 ≤ K ≤ n).
	K int
	// Delta is the failure probability δ ∈ (0, 1). Each Snapshot's reported
	// α holds with probability ≥ 1−Delta.
	Delta float64
	// Variant selects the σᵘ derivation. Default Vanilla (the zero value);
	// Plus is recommended.
	Variant Variant
	// Seed drives all randomness; a fixed Seed reproduces results exactly.
	Seed uint64
	// Workers bounds the parallelism of RR-set generation (≤ 0 means
	// GOMAXPROCS via the rrset package's Generate).
	Workers int
	// UnionBudget, when set, makes the i-th Snapshot spend failure budget
	// δ/2^i instead of δ, so that ALL returned seed sets meet their
	// guarantees simultaneously with probability ≥ 1−δ (the union-bound
	// schedule discussed at the end of §4.2).
	UnionBudget bool
	// OnRound, when non-nil, is invoked by Maximize after each doubling
	// round with the round number (1-based) and that round's snapshot —
	// the offline algorithm's window into the online progress. It must not
	// retain the snapshot's Seeds slice across calls. Not persisted by
	// SaveSession.
	OnRound func(round int, snap *Snapshot) `json:"-"`
	// Exact replaces the paper's martingale bounds (eqs. 5/8/13/15) with
	// exact Clopper–Pearson binomial limits. Valid because each snapshot
	// conditions on a FIXED sample count, making coverage exactly
	// binomial; typically a slightly tighter α at small sample counts.
	// Experimental extension — see bound.SigmaLowerExact/SigmaUpperExact.
	Exact bool
	// Events, when non-nil, receives one structured event per derived
	// snapshot ("snapshot") and, in Maximize, per doubling round ("round")
	// plus a final "maximize" summary — each carrying the paper quantities
	// (θ1, θ2, Λ1, Λ2, σˡ, σᵘ, α) at that instant. Wire an obs.JSONLSink
	// here to make a run replayable; see docs/OBSERVABILITY.md. Sinks are
	// not persisted by SaveSession; reattach with SetEvents after
	// LoadSession.
	Events obs.Sink `json:"-"`
	// Generator, when non-nil, produces the session's RR sets (a fleet
	// coordinator, say) in place of in-process sampling. It must honor the
	// Generator determinism contract; results are then independent of where
	// sampling ran. Not persisted by SaveSession — the process that resumes
	// a session re-injects its own (SetGenerator), since a checkpoint must
	// not capture another deployment's fleet topology.
	Generator Generator `json:"-"`
	// BaseSeeds, when non-empty, switches the session to the AUGMENTATION
	// problem: the base set is already committed, selection picks K
	// additional nodes maximizing the residual spread σ(B∪S) − σ(B), and
	// every reported quantity (σˡ, σᵘ, α) refers to the residual. The
	// residual of a monotone submodular function is monotone submodular,
	// so all guarantees carry over unchanged.
	BaseSeeds []int32
}

func (o Options) validate(n int32) error {
	if o.K < 1 || int64(o.K) > int64(n) {
		return fmt.Errorf("core: k = %d outside [1, n=%d]", o.K, n)
	}
	if !(o.Delta > 0 && o.Delta < 1) {
		return fmt.Errorf("core: δ = %v outside (0, 1)", o.Delta)
	}
	switch o.Variant {
	case Vanilla, Plus, Prime:
	default:
		return fmt.Errorf("core: unknown variant %d", int(o.Variant))
	}
	seen := make(map[int32]struct{}, len(o.BaseSeeds))
	for _, v := range o.BaseSeeds {
		if v < 0 || v >= n {
			return fmt.Errorf("core: base seed %d outside [0, n=%d)", v, n)
		}
		if _, dup := seen[v]; dup {
			return fmt.Errorf("core: duplicate base seed %d", v)
		}
		seen[v] = struct{}{}
	}
	// Selection picks K nodes disjoint from the base, so the graph must
	// hold K + |B| distinct nodes.
	if total := int64(o.K) + int64(len(o.BaseSeeds)); total > int64(n) {
		return fmt.Errorf("core: k + len(BaseSeeds) = %d exceeds n = %d", total, n)
	}
	if len(o.BaseSeeds) > 0 && o.Variant == Prime {
		return fmt.Errorf("core: the Prime variant does not support BaseSeeds; use Plus or Vanilla")
	}
	return nil
}

// Online is a pausable OPIM session. It is not safe for concurrent use;
// drive it from one goroutine (RR generation itself parallelizes
// internally).
type Online struct {
	sampler *rrset.Sampler
	opts    Options
	r1, r2  *rrset.Collection
	base1   *rng.Source
	base2   *rng.Source
	queries int
	start   time.Time    // session epoch, for event elapsed_seconds
	scratch *snapScratch // persistent selection/coverage buffers, reused per snapshot

	// graphName/graphSpec label which catalog graph this session runs on;
	// SaveSession records them (with the graph's fingerprint) in OPIMS6 so a
	// restarted daemon can re-resolve — and verify — the exact instance.
	// Empty on sessions created outside a catalog (plain library use).
	graphName string
	graphSpec string

	// ext is the OPIMS6 opaque extension blob: application state that must
	// ride along with every checkpoint of this session (opimd keeps each
	// session's serving spec and learner there). Core never interprets it; SaveSession
	// writes it and LoadSession restores it.
	ext []byte
}

// NewOnline starts an OPIM session on the sampler's graph.
func NewOnline(sampler *rrset.Sampler, opts Options) (*Online, error) {
	if err := opts.validate(sampler.Graph().N()); err != nil {
		return nil, err
	}
	return newOnline(sampler, opts), nil
}

// newOnline builds an empty session on sampler from validated options.
func newOnline(sampler *rrset.Sampler, opts Options) *Online {
	root := rng.New(opts.Seed)
	return &Online{
		sampler: sampler,
		opts:    opts,
		r1:      rrset.NewCollection(sampler.Graph().N()),
		r2:      rrset.NewCollection(sampler.Graph().N()),
		base1:   root.Split(1),
		base2:   root.Split(2),
		start:   time.Now(),
		scratch: newSnapScratch(),
	}
}

// Resample rebinds the session to sampler and regenerates both halves at
// their current sizes, in-process. Because set i of each half is a pure
// function of the seed, i and the graph, the result is byte-identical to
// a session that ran on sampler's graph from the start — the catch-up for
// an engine whose graph moved by batches it cannot repair one by one.
func (o *Online) Resample(sampler *rrset.Sampler) {
	o.resample(sampler, o.r1.Count(), o.r2.Count())
}

// resample replaces both halves with theta1 and theta2 sets freshly drawn
// on sampler from the session's base sources.
func (o *Online) resample(sampler *rrset.Sampler, theta1, theta2 int) {
	n := sampler.Graph().N()
	o.sampler = sampler
	o.r1, o.r2 = rrset.NewCollection(n), rrset.NewCollection(n)
	rrset.Generate(o.r1, sampler, theta1, o.base1, o.opts.Workers)
	rrset.Generate(o.r2, sampler, theta2, o.base2, o.opts.Workers)
	// Selection/coverage scratch holds epoch-marked state tied to the old
	// collections; start fresh.
	o.scratch = newSnapScratch()
}

// SetEvents attaches (or replaces, or with nil detaches) the session's
// event sink. Needed after LoadSession, which cannot restore one.
func (o *Online) SetEvents(s obs.Sink) { o.opts.Events = s }

// SetGraphIdentity labels the session with the catalog name and GraphSpec
// string of the graph it runs on; SaveSession persists both (plus the
// graph's content fingerprint) so resume/adopt can verify it is handed the
// same instance. LoadSession restores the labels automatically.
func (o *Online) SetGraphIdentity(name, spec string) {
	o.graphName = name
	o.graphSpec = spec
}

// GraphIdentity returns the labels set by SetGraphIdentity (or restored by
// LoadSession); both are empty for sessions never attached to a catalog.
func (o *Online) GraphIdentity() (name, spec string) {
	return o.graphName, o.graphSpec
}

// SetExtension attaches (or with nil clears) the session's opaque
// extension blob, persisted verbatim by SaveSession in the OPIMS6 frame.
// The caller keeps ownership of b's semantics but must not mutate it after
// handing it over; replace it wholesale when the state changes.
func (o *Online) SetExtension(b []byte) { o.ext = b }

// Extension returns the session's opaque extension blob as restored by
// LoadSession or set by SetExtension (nil when absent). The returned slice
// must not be mutated.
func (o *Online) Extension() []byte { return o.ext }

// Sampler returns the sampler this session draws RR sets from. Multiple
// sessions may share one sampler (it is immutable); this is how a server
// hosting many sessions creates new ones next to an existing session.
func (o *Online) Sampler() *rrset.Sampler { return o.sampler }

// Options returns a copy of the session's configuration (BaseSeeds
// cloned, so the caller cannot corrupt the session through the slice).
func (o *Online) Options() Options {
	opts := o.opts
	if len(opts.BaseSeeds) > 0 {
		opts.BaseSeeds = append([]int32(nil), opts.BaseSeeds...)
	}
	return opts
}

// Queries returns how many snapshots this session has served — the i that
// determines the next δ/2^(i+1) spend under Options.UnionBudget.
func (o *Online) Queries() int { return o.queries }

// NumRR returns the total number of RR sets generated so far (both halves).
func (o *Online) NumRR() int64 {
	return int64(o.r1.Count()) + int64(o.r2.Count())
}

// EdgesExamined returns the cumulative γ across both halves, comparable to
// the quantity Borgs et al.'s algorithm monitors.
func (o *Online) EdgesExamined() int64 {
	return o.r1.EdgesExamined() + o.r2.EdgesExamined()
}

// SetGenerator installs (or with nil resets to local) the session's RR-set
// Generator. Needed after LoadSession, which never restores one — the
// resuming process decides its own sampling topology. Because conforming
// generators are byte-identical to local sampling, switching generators
// mid-session (a fleet scaling up, or degrading away) never perturbs the
// sample stream.
func (o *Online) SetGenerator(g Generator) { o.opts.Generator = g }

// generator returns the configured Generator, defaulting to local.
func (o *Online) generator() Generator {
	if o.opts.Generator != nil {
		return o.opts.Generator
	}
	return LocalGenerator{}
}

// Advance generates count additional RR sets, split evenly between R1 and
// R2 (odd counts give the extra set to R1).
func (o *Online) Advance(count int) {
	if count <= 0 {
		return
	}
	half := count / 2
	gen := o.generator()
	gen.Generate(o.r1, o.sampler, count-half, o.base1, o.opts.Workers)
	gen.Generate(o.r2, o.sampler, half, o.base2, o.opts.Workers)
}

// maxAdvanceChunk caps the per-chunk RR-set count of AdvanceContext. It
// is even — see AdvanceContext's parity invariant.
const maxAdvanceChunk = 1 << 16

// AdvanceContext is Advance with cancellation: it generates count RR sets
// in chunks, checking ctx between chunks, and returns the number actually
// generated together with ctx.Err() when it stopped early. Generated sets
// are kept — cancelling an advance loses no work, it only pauses sooner.
//
// Chunking never changes the sample stream: every chunk except the last
// is even, so the R1/R2 split (odd counts give R1 the extra set) matches
// a single Advance(count) call exactly and the resulting collections are
// byte-identical. The chunk size adapts to the observed sampling rate,
// aiming at ~25ms per chunk, so cancellation latency stays near 25ms on
// any graph.
func (o *Online) AdvanceContext(ctx context.Context, count int) (int, error) {
	generated := 0
	chunk := 64
	for generated < count {
		if err := ctx.Err(); err != nil {
			return generated, err
		}
		c := chunk
		if rem := count - generated; c > rem {
			c = rem
		}
		t0 := time.Now()
		o.Advance(c)
		generated += c
		if el := time.Since(t0); el > 0 {
			next := int(float64(c) * float64(25*time.Millisecond) / float64(el))
			next &^= 1 // keep chunks even so the R1/R2 split is unchanged
			if next < 64 {
				next = 64
			}
			if next > 4*chunk {
				next = 4 * chunk
			}
			if next > maxAdvanceChunk {
				next = maxAdvanceChunk
			}
			chunk = next
		}
	}
	return generated, nil
}

// AdvanceTo grows the session until NumRR() ≥ totalRR. The delta is walked
// in maxAdvanceChunk pieces, so an int64 target neither truncates through
// int on 32-bit platforms nor turns into one uninterruptible multi-minute
// Advance. Every chunk except the last is even, so — like AdvanceContext —
// the R1/R2 split and the resulting sample stream are byte-identical to a
// single Advance call.
func (o *Online) AdvanceTo(totalRR int64) {
	for {
		d := totalRR - o.NumRR()
		if d <= 0 {
			return
		}
		c := int64(maxAdvanceChunk)
		if d < c {
			c = d
		}
		o.Advance(int(c))
	}
}

// AdvanceFor generates RR sets until d of wall-clock time has elapsed —
// the paper's timestamp-driven pause points (§2.2) made literal. It is
// AdvanceContext under a d deadline with no count limit, so every chunk is
// even and the sets generated are exactly those one Advance of the
// returned count draws. It returns the number of RR sets generated.
func (o *Online) AdvanceFor(d time.Duration) int64 {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	n, _ := o.AdvanceContext(ctx, math.MaxInt)
	return int64(n)
}

// Snapshot is the answer to one user pause: a seed set and its guarantee.
type Snapshot struct {
	// Seeds is the greedy seed set S* derived from R1.
	Seeds []int32
	// Alpha is the reported approximation guarantee σˡ(S*)/σᵘ(S°), valid
	// with probability ≥ 1−δ (or the union-budget share when enabled).
	Alpha float64
	// SigmaLower is σˡ(S*) per eq. (5).
	SigmaLower float64
	// SigmaUpper is σᵘ(S°) per eq. (8), (13) or (15) depending on Variant.
	SigmaUpper float64
	// CoverageR1 is Λ1(S*); CoverageR2 is Λ2(S*).
	CoverageR1, CoverageR2 int64
	// Theta1, Theta2 are |R1| and |R2|.
	Theta1, Theta2 int64
	// DeltaSpent is the failure budget this snapshot consumed.
	DeltaSpent float64
	// Variant that produced SigmaUpper.
	Variant Variant
}

// Snapshot pauses the stream and derives (S*, α) from the RR sets generated
// so far. It can be called repeatedly as the session advances; with
// Options.UnionBudget the i-th call uses failure budget δ/2^i.
func (o *Online) Snapshot() *Snapshot {
	o.queries++
	delta := o.opts.Delta
	if o.opts.UnionBudget {
		delta = o.opts.Delta / math.Pow(2, float64(o.queries))
	}
	snap := deriveSnapshotBase(o.r1, o.r2, o.opts.K, delta, o.opts.Variant, o.opts.Exact, o.opts.BaseSeeds, o.scratch)
	mSnapshots.Inc()
	recordSnapshotGauges(snap)
	obs.Emit(o.opts.Events, "snapshot", snapshotFields(snap, map[string]any{
		"query":             o.queries,
		"elapsed_seconds":   time.Since(o.start).Seconds(),
		"graph_fingerprint": o.sampler.Graph().Fingerprint(),
	}))
	return snap
}

// recordSnapshotGauges publishes a snapshot's paper quantities as the
// core_last_* gauges.
func recordSnapshotGauges(s *Snapshot) {
	mLastAlpha.Set(s.Alpha)
	mLastSigmaL.Set(s.SigmaLower)
	mLastSigmaU.Set(s.SigmaUpper)
	mLastTheta1.Set(float64(s.Theta1))
	mLastTheta2.Set(float64(s.Theta2))
}

// snapshotFields merges a snapshot's paper quantities into extra (which it
// mutates and returns).
func snapshotFields(s *Snapshot, extra map[string]any) map[string]any {
	extra["theta1"] = s.Theta1
	extra["theta2"] = s.Theta2
	extra["lambda1"] = s.CoverageR1
	extra["lambda2"] = s.CoverageR2
	extra["sigma_lower"] = s.SigmaLower
	extra["sigma_upper"] = s.SigmaUpper
	extra["alpha"] = s.Alpha
	extra["delta_spent"] = s.DeltaSpent
	extra["variant"] = s.Variant.String()
	extra["k"] = len(s.Seeds)
	return extra
}

// snapScratch bundles the reusable buffers one snapshot derivation needs:
// the greedy-selection scratch (marginals, epoch-marked covered/chosen
// flags, node order, top-k heap) and the epoch-marked coverage kernel used for
// the Λ2 queries. One snapScratch per session (or per Maximize run) means
// repeated snapshots allocate only their Result; it is not safe for
// concurrent use, matching Online's single-driver contract.
type snapScratch struct {
	sel  *maxcover.Scratch
	cov  *rrset.CoverageScratch
	both []int32 // base∪seeds buffer for the augmentation Λ2 query
}

func newSnapScratch() *snapScratch {
	return &snapScratch{sel: maxcover.NewScratch(), cov: rrset.NewCoverageScratch()}
}

// deriveSnapshot implements §4.1's three steps on explicit halves: greedy
// on R1, lower bound from R2, upper bound from R1.
func deriveSnapshot(r1, r2 *rrset.Collection, k int, delta float64, variant Variant, exact bool) *Snapshot {
	return deriveSnapshotBase(r1, r2, k, delta, variant, exact, nil, nil)
}

// deriveSnapshotBase additionally supports the augmentation problem: with
// a non-empty base, selection and all coverages refer to the residual
// function Λ(B∪·) − Λ(B). A nil sc allocates fresh buffers.
func deriveSnapshotBase(r1, r2 *rrset.Collection, k int, delta float64, variant Variant, exact bool, base []int32, sc *snapScratch) *Snapshot {
	if sc == nil {
		sc = newSnapScratch()
	}
	n := r1.N()
	theta1 := int64(r1.Count())
	theta2 := int64(r2.Count())
	delta1 := delta / 2
	delta2 := delta / 2

	var sel *maxcover.Result
	switch {
	case len(base) > 0 && variant == Vanilla:
		sel = sc.sel.GreedyAugment(r1, base, k)
	case len(base) > 0:
		sel = sc.sel.GreedyAugmentWithBounds(r1, base, k)
	case variant == Vanilla:
		sel = sc.sel.Greedy(r1, k)
	case variant == Prime:
		// Table 1: OPIM′ only needs Λ1⋄, at O(n + Σ|R|).
		sel = sc.sel.GreedyWithDiamond(r1, k)
	default:
		sel = sc.sel.GreedyWithBounds(r1, k)
	}

	lambda2 := r2.CoverageWith(sc.cov, sel.Seeds)
	if len(base) > 0 {
		// Residual coverage in R2: sets covered by base∪S but not by base.
		sc.both = append(append(sc.both[:0], base...), sel.Seeds...)
		lambda2 = r2.CoverageWith(sc.cov, sc.both) - r2.CoverageWith(sc.cov, base)
	}
	var lambdaUpper float64
	switch variant {
	case Vanilla:
		lambdaUpper = float64(sel.Coverage) / bound.OneMinusInvE
	case Plus:
		lambdaUpper = float64(sel.LambdaU)
	case Prime:
		lambdaUpper = float64(sel.LambdaDiamond)
	}
	var sigmaL, sigmaU float64
	if exact {
		sigmaL = bound.SigmaLowerExact(lambda2, theta2, n, delta2)
		sigmaU = bound.SigmaUpperExact(lambdaUpper, theta1, n, delta1)
	} else {
		sigmaL = bound.SigmaLower(float64(lambda2), n, theta2, delta2)
		sigmaU = bound.SigmaUpper(lambdaUpper, n, theta1, delta1)
	}

	return &Snapshot{
		Seeds:      sel.Seeds,
		Alpha:      bound.Alpha(sigmaL, sigmaU),
		SigmaLower: sigmaL,
		SigmaUpper: sigmaU,
		CoverageR1: sel.Coverage,
		CoverageR2: lambda2,
		Theta1:     theta1,
		Theta2:     theta2,
		DeltaSpent: delta,
		Variant:    variant,
	}
}

// String implements fmt.Stringer with a one-line progress summary.
func (s *Snapshot) String() string {
	return fmt.Sprintf("α=%.4f (σˡ=%.1f σᵘ=%.1f, θ1=%d θ2=%d, %v)",
		s.Alpha, s.SigmaLower, s.SigmaUpper, s.Theta1, s.Theta2, s.Variant)
}
