package core

// Incremental rebasing onto a mutated graph. A session's R1 and R2 halves
// are repaired independently (each has its own base source), invalidating
// only the sets whose traces touch a mutated edge, and the session's
// bounds are re-derived from the repaired collections on the next
// Snapshot — there is no cached bound state to patch. See rrset.Repair for
// the byte-identity argument; Resample is the full-regeneration
// counterpart for an engine more than one batch behind.

import (
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/rrset"
)

// RepairForMutations rebases the session onto sampler — built over the
// graph obtained by applying the batch ms to the graph the session's RR
// sets were sampled on — regenerating exactly the RR sets the batch
// invalidated. Afterwards the session is indistinguishable from one that
// ran on the mutated graph from the start: the same Advance calls produce
// the same sample stream, Snapshot derives bounds valid for the mutated
// graph, and SaveSession emits the bytes a never-mutated run would have.
// An empty batch just rebinds the sampler (a same-content reload).
//
// The caller is responsible for the lineage bookkeeping: ms must be the
// exact batch between the session's graph and sampler's (an engine further
// behind takes Resample). Returns the number of RR sets regenerated across
// both halves.
func (o *Online) RepairForMutations(sampler *rrset.Sampler, ms []graph.Mutation) int {
	regen := o.r1.Repair(sampler, o.base1, o.r1.InvalidatedBy(ms), o.opts.Workers)
	regen += o.r2.Repair(sampler, o.base2, o.r2.InvalidatedBy(ms), o.opts.Workers)
	o.sampler = sampler
	// Selection/coverage scratch is sized for the old universe and holds
	// epoch-marked state tied to the old collections; start fresh.
	o.scratch = newSnapScratch()
	return regen
}
