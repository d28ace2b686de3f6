package learn

// Campaign is the round state machine a feedback-driven session runs:
//
//	StartRound → (apply realization epoch, re-solve) → ServeSeeds
//	          → await observation → Observe → StartRound → …
//
// Odd rounds explore (Thompson-sampled realization), even rounds exploit
// (posterior-mean realization). The machine is deliberately replayable:
// the explore draw for round r comes from rng.New(seed).Split(r), and a
// realization sets absolute target weights, so re-deriving a round after
// a crash reproduces the batch already applied (an empty diff) rather
// than mutating twice.

import (
	"encoding/binary"
	"fmt"

	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rng"
)

// Campaign drives explore/exploit rounds over one Posterior. Not safe for
// concurrent use; the server serializes access under the session lock.
type Campaign struct {
	post *Posterior
	seed uint64 // root of the campaign's Thompson draw streams

	round    int64 // 0 before the first StartRound
	awaiting bool  // seeds served for `round`, observation outstanding
	explore  bool  // kind of the current round
	seeds    []int32

	entropy float64 // post.Entropy(), recomputed once per applied observation
}

// NewCampaign starts a fresh campaign over g with a uniform prior. seed
// roots the per-round Thompson draw streams.
func NewCampaign(g *graph.Graph, seed uint64) *Campaign {
	return &Campaign{post: NewPosterior(g), seed: seed}
}

// Posterior exposes the campaign's posterior (read-mostly: convergence
// metrics, realization previews). Callers must not mutate it directly;
// observations go through Observe.
func (c *Campaign) Posterior() *Posterior { return c.post }

// Entropy returns the posterior's mean per-edge entropy (Posterior.Entropy)
// as of the last applied observation; it is computed once per observation,
// so reading it costs nothing.
func (c *Campaign) Entropy() float64 { return c.entropy }

// Round returns the current round number (0 before the first StartRound).
func (c *Campaign) Round() int64 { return c.round }

// Awaiting reports whether seeds have been served for the current round
// and its observation is still outstanding.
func (c *Campaign) Awaiting() bool { return c.awaiting }

// Explore reports whether the current round is an explore
// (Thompson-sampled) round rather than an exploit (posterior-mean) round.
func (c *Campaign) Explore() bool { return c.explore }

// Seeds returns the seed set served for the current round, nil if none.
func (c *Campaign) Seeds() []int32 { return c.seeds }

// ErrRoundOpen reports StartRound while the previous round's observation
// is still outstanding.
var ErrRoundOpen = fmt.Errorf("learn: previous round still awaiting its observation")

// StartRound advances to the next round and returns the weight-only batch
// realizing that round's graph on cur, plus whether the round explores.
// The batch may be empty (cur already realizes the round), in which case
// no mutation epoch is needed. It fails with ErrRoundOpen if the current
// round has served seeds but not yet absorbed an observation.
//
// Determinism: round r's explore draw always comes from the fresh stream
// rng.New(seed).Split(r), never from carried RNG state, so a campaign
// restored from a checkpoint re-derives exactly the realizations a
// never-crashed run would.
func (c *Campaign) StartRound(cur *graph.Graph) ([]graph.Mutation, bool, error) {
	if c.awaiting {
		return nil, false, ErrRoundOpen
	}
	round := c.round + 1
	explore := round%2 == 1
	var (
		ms  []graph.Mutation
		err error
	)
	if explore {
		ms, err = c.post.SampleRealization(cur, rng.New(c.seed).Split(uint64(round)))
	} else {
		ms, err = c.post.MeanRealization(cur)
	}
	if err != nil {
		return nil, false, err
	}
	c.round = round
	c.explore = explore
	c.seeds = nil
	return ms, explore, nil
}

// ServeSeeds records the seed set solved for the current round and opens
// the observation window.
func (c *Campaign) ServeSeeds(seeds []int32) {
	c.seeds = append([]int32(nil), seeds...)
	c.awaiting = true
}

// Observe folds a cascade trace into the posterior. round ties the trace
// to the round whose seeds generated it: 0 accepts free-form observations
// at any time (cascades observed outside the round protocol); the current
// round's number closes its observation window. applied=false with a nil
// error means the observation was a duplicate of one already absorbed —
// the caller should acknowledge without re-applying (at-least-once
// delivery). A round from the future is an error.
func (c *Campaign) Observe(round int64, atts []Attempt) (applied bool, err error) {
	switch {
	case round < 0 || round > c.round:
		return false, fmt.Errorf("learn: observation for round %d, current round is %d", round, c.round)
	case round == 0:
		// free-form: always applies
	case round < c.round || !c.awaiting:
		return false, nil // duplicate of an already-closed round
	}
	if err := c.post.ObserveBatch(atts); err != nil {
		return false, err
	}
	if round == c.round && round != 0 {
		c.awaiting = false
	}
	c.entropy = c.post.Entropy()
	return true, nil
}

// campaignMagic versions the serialized campaign state.
const campaignMagic = "OPIMC1\n"

// MarshalBinary serializes the full campaign state — round machine plus
// posterior — deterministically (identical states produce identical
// bytes). The blob is what opimd stores, after the serving spec, in the
// session checkpoint's OPIMS6 extension blob.
func (c *Campaign) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, len(campaignMagic)+8+8+2+4+4*len(c.seeds)+posteriorSize(c.post.g.M()))
	b = append(b, campaignMagic...)
	b = binary.LittleEndian.AppendUint64(b, c.seed)
	b = binary.LittleEndian.AppendUint64(b, uint64(c.round))
	var flags byte
	if c.awaiting {
		flags |= 1
	}
	if c.explore {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.seeds)))
	for _, s := range c.seeds {
		b = binary.LittleEndian.AppendUint32(b, uint32(s))
	}
	return c.post.appendBinary(b), nil
}

// UnmarshalCampaign restores a campaign serialized by MarshalBinary,
// binding its posterior to g (any epoch of the campaign's fixed-topology
// chain). The restored machine resumes exactly where it left off: if it
// was awaiting an observation, the served seeds are intact and the
// observation window is still open.
func UnmarshalCampaign(b []byte, g *graph.Graph) (*Campaign, error) {
	if len(b) < len(campaignMagic)+21 || string(b[:len(campaignMagic)]) != campaignMagic {
		return nil, fmt.Errorf("learn: bad campaign magic")
	}
	b = b[len(campaignMagic):]
	c := &Campaign{
		seed:  binary.LittleEndian.Uint64(b[0:8]),
		round: int64(binary.LittleEndian.Uint64(b[8:16])),
	}
	flags := b[16]
	c.awaiting = flags&1 != 0
	c.explore = flags&2 != 0
	ns := int(binary.LittleEndian.Uint32(b[17:21]))
	b = b[21:]
	if ns > len(b)/4 {
		return nil, fmt.Errorf("learn: short campaign seed list")
	}
	if ns > 0 {
		c.seeds = make([]int32, ns)
		for i := range c.seeds {
			c.seeds[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		b = b[4*ns:]
	}
	post, rest, err := unmarshalPosterior(b, g)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("learn: %d trailing bytes after campaign state", len(rest))
	}
	c.post = post
	c.entropy = post.Entropy()
	return c, nil
}
