package cliutil

import (
	"flag"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
)

// GraphSpec is the full recipe for one influence instance: where the graph
// comes from (a file path or a synthetic profile), how it is reweighted, and
// which diffusion model interprets the probabilities. Every command-line
// tool used to re-parse this tuple from its own flags; the daemon's /graphs
// API accepts it verbatim as a JSON body; and session checkpoints (OPIMS6)
// record its String form so a restarted daemon can re-load the exact
// instance a session was running on.
//
// The zero value means "generate the default profile under IC" once Profile
// is filled in; Path and Profile are mutually exclusive sources, with Path
// winning when both are set (matching the historical -graph/-profile flag
// semantics).
type GraphSpec struct {
	// Path is an edge-list file (text or binary); empty means generate
	// Profile instead.
	Path string `json:"path,omitempty"`
	// Profile names a synthetic generator profile (see gen.ProfileByName).
	Profile string `json:"profile,omitempty"`
	// Scale divides the profile's default size (0 = default).
	Scale int `json:"scale,omitempty"`
	// Weights reweights a loaded graph: none | wc | uniform:<p> | trivalency.
	Weights string `json:"weights,omitempty"`
	// Seed feeds the generator and any randomized reweighting.
	Seed uint64 `json:"seed,omitempty"`
	// Model is the diffusion model: IC (default when empty) or LT.
	Model string `json:"model,omitempty"`
}

// DefaultProfile is the synthetic profile used when neither a path nor a
// profile is given — the same default the command-line tools have always
// shipped with.
const DefaultProfile = "synth-pokec"

// specKeys is the closed set of String/Parse keys; Parse rejects others so
// a typo in a hand-written spec fails loudly instead of silently loading
// the default graph.
var specKeys = map[string]bool{
	"path": true, "profile": true, "scale": true,
	"weights": true, "seed": true, "model": true,
}

// String renders the spec in canonical URL-query form, e.g.
// "model=LT&profile=synth-pokec&seed=7". Zero-valued fields are omitted and
// keys are sorted, so two specs render identically exactly when their
// fields are equal; ParseGraphSpec inverts it. The encoding is query-escaped
// so arbitrary file paths survive the round trip.
func (s GraphSpec) String() string {
	v := url.Values{}
	if s.Path != "" {
		v.Set("path", s.Path)
	}
	if s.Profile != "" {
		v.Set("profile", s.Profile)
	}
	if s.Scale != 0 {
		v.Set("scale", strconv.Itoa(s.Scale))
	}
	if s.Weights != "" && s.Weights != "none" {
		v.Set("weights", s.Weights)
	}
	if s.Seed != 0 {
		v.Set("seed", strconv.FormatUint(s.Seed, 10))
	}
	if s.Model != "" {
		v.Set("model", strings.ToUpper(s.Model))
	}
	return v.Encode()
}

// ParseGraphSpec parses the String form back into a GraphSpec. Unknown or
// repeated keys are errors.
func ParseGraphSpec(str string) (GraphSpec, error) {
	var s GraphSpec
	v, err := url.ParseQuery(str)
	if err != nil {
		return s, fmt.Errorf("bad graph spec %q: %v", str, err)
	}
	for key, vals := range v {
		if !specKeys[key] {
			return s, fmt.Errorf("bad graph spec %q: unknown key %q", str, key)
		}
		if len(vals) != 1 {
			return s, fmt.Errorf("bad graph spec %q: repeated key %q", str, key)
		}
	}
	s.Path = v.Get("path")
	s.Profile = v.Get("profile")
	if sc := v.Get("scale"); sc != "" {
		n, err := strconv.Atoi(sc)
		if err != nil {
			return s, fmt.Errorf("bad graph spec %q: scale: %v", str, err)
		}
		s.Scale = n
	}
	s.Weights = v.Get("weights")
	if sd := v.Get("seed"); sd != "" {
		n, err := strconv.ParseUint(sd, 10, 64)
		if err != nil {
			return s, fmt.Errorf("bad graph spec %q: seed: %v", str, err)
		}
		s.Seed = n
	}
	s.Model = v.Get("model")
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// Validate checks field ranges and the model/weights vocabulary without
// touching the filesystem or generating anything.
func (s GraphSpec) Validate() error {
	if s.Path == "" && s.Profile == "" {
		return fmt.Errorf("graph spec: neither path nor profile set")
	}
	if s.Scale < 0 || s.Scale > 1<<28 {
		return fmt.Errorf("graph spec: scale %d out of range", s.Scale)
	}
	if s.Model != "" {
		if _, err := ParseModel(s.Model); err != nil {
			return fmt.Errorf("graph spec: %v", err)
		}
	}
	switch w := s.Weights; {
	case w == "" || w == "none" || w == "wc" || w == "trivalency":
	case strings.HasPrefix(w, "uniform:"):
		if _, err := strconv.ParseFloat(w[len("uniform:"):], 64); err != nil {
			return fmt.Errorf("graph spec: bad weights %q: %v", w, err)
		}
	default:
		return fmt.Errorf("graph spec: unknown weights %q (want none|wc|uniform:<p>|trivalency)", w)
	}
	return nil
}

// ParsedModel returns the spec's diffusion model (IC when the field is
// empty).
func (s GraphSpec) ParsedModel() (diffusion.Model, error) {
	if s.Model == "" {
		return diffusion.IC, nil
	}
	return ParseModel(s.Model)
}

// Load validates the spec, then loads or generates the graph and resolves
// the model — the one code path behind every -graph/-profile flag set and
// the daemon's /graphs registry.
func (s GraphSpec) Load() (*graph.Graph, diffusion.Model, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	model, err := s.ParsedModel()
	if err != nil {
		return nil, 0, err
	}
	g, err := LoadGraph(s.Path, s.Profile, int32(s.Scale), s.Weights, s.Seed)
	if err != nil {
		return nil, 0, err
	}
	return g, model, nil
}

// RegisterFlags wires the spec's fields to the conventional flag names
// (-graph, -profile, -scale, -weights, -model) on fs. The -seed flag is
// deliberately not registered: commands share one -seed between the
// generator and the sampling RNG, so they register it themselves and copy
// it into the spec after flag.Parse.
func (s *GraphSpec) RegisterFlags(fs *flag.FlagSet) {
	if s.Profile == "" {
		s.Profile = DefaultProfile
	}
	if s.Model == "" {
		s.Model = "IC"
	}
	fs.StringVar(&s.Path, "graph", s.Path, "edge-list file (text or binary); empty = use -profile")
	fs.StringVar(&s.Profile, "profile", s.Profile, "synthetic profile when -graph is empty")
	fs.IntVar(&s.Scale, "scale", s.Scale, "profile scale divisor (0 = default)")
	fs.StringVar(&s.Weights, "weights", s.Weights, "reweight loaded graph: none | wc | uniform:<p> | trivalency")
	fs.StringVar(&s.Model, "model", s.Model, "diffusion model: IC or LT")
}
