package engine

import (
	"encoding/json"
	"errors"
	"sync"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/crossbar"
	"nwdec/internal/dataset"
	"nwdec/internal/nwerr"
	"nwdec/internal/stats"
	"nwdec/internal/sweep"
)

// Kind names one request type the engine can serve. Kinds are strings so
// cache keys, metric names and HTTP routes all read the same.
type Kind string

// The request kinds, one per expensive entry point of the library.
const (
	// KindDesign resolves one decoder design (core.NewDesign).
	KindDesign Kind = "design"
	// KindOptimize sweeps the design space and returns the best design
	// under an objective (core.Optimize).
	KindOptimize Kind = "optimize"
	// KindMonteCarlo measures the empirical cave yield of a design over
	// repeated fabrications (Design.MonteCarloYieldWorkers).
	KindMonteCarlo Kind = "montecarlo"
	// KindExperiment runs one named experiment of the reproduction
	// (experiments.Runner.Run).
	KindExperiment Kind = "experiment"
	// KindSweep evaluates the batch design-space grid (sweep.RunWorkers).
	KindSweep Kind = "sweep"
	// KindCodes generates a code-word listing with transition statistics
	// (the nwcodes workload).
	KindCodes Kind = "codes"
	// KindFabricate builds one Monte-Carlo crossbar memory instance
	// (Design.FabricateWorkers). Fabrications return mutable state, so
	// this kind is never cached or deduplicated — only admitted and
	// instrumented.
	KindFabricate Kind = "fabricate"
)

// cacheable reports whether results of this kind may be cached and
// shared. Everything is, except fabrication: a *crossbar.Memory is
// mutable (the whole point is writing to it), so two requests must never
// receive the same instance.
func (k Kind) cacheable() bool { return k != KindFabricate }

// known reports whether k is one of the declared kinds.
func (k Kind) known() bool {
	switch k {
	case KindDesign, KindOptimize, KindMonteCarlo, KindExperiment,
		KindSweep, KindCodes, KindFabricate:
		return true
	}
	return false
}

// Request is one unit of work submitted to the engine. A request is fully
// described by its value: two requests with equal identity fields compute
// identical results (the determinism invariant of the pipeline), which is
// what makes content-addressed caching sound.
//
// The JSON tags make Request its own interchange form for the cluster
// peer protocol (MarshalWire/UnmarshalWire): every identity field
// crosses the wire, Workers never does.
type Request struct {
	// Kind selects the entry point.
	Kind Kind `json:"kind"`
	// Config is the platform configuration (all kinds; KindCodes reads
	// only CodeType, Base and CodeLength from it).
	Config core.Config `json:"config"`
	// Experiment is the registry name for KindExperiment.
	Experiment string `json:"experiment,omitempty"`
	// Grid is the parameter grid for KindSweep (zero = default grid).
	Grid sweep.Grid `json:"grid"`
	// Objective ranks designs for KindOptimize.
	Objective core.Objective `json:"objective"`
	// Types are the code families for KindOptimize (nil = all).
	Types []code.Type `json:"types,omitempty"`
	// Lengths are the code lengths for KindOptimize (nil = 4..12 even).
	Lengths []int `json:"lengths,omitempty"`
	// Count is the number of words to emit for KindCodes (0 = the whole
	// space, capped at 64 — the historical nwcodes default).
	Count int `json:"count,omitempty"`
	// Seed drives the stochastic kinds (KindMonteCarlo, KindExperiment,
	// KindFabricate).
	Seed uint64 `json:"seed,omitempty"`
	// Trials is the repetition count for KindMonteCarlo and the
	// Monte-Carlo experiments (KindExperiment; 0 = the runner default).
	Trials int `json:"trials,omitempty"`
	// Workers bounds the worker pool (0 = GOMAXPROCS). It is an
	// execution detail: results are bit-identical at every worker count,
	// so Workers is excluded from the cache key — a request computed at
	// one worker count serves all others. For the same reason it stays
	// off the wire: the owning node computes with its own worker bound.
	Workers int `json:"-"`

	// key memoizes Key(). The engine facade fills it once per Do call so
	// the backend layers below share one fingerprint computation.
	key string
}

// Key returns the request's content address: the kind plus a fingerprint
// of every identity field. The configuration contributes through
// Config.Fingerprint, which folds in the threshold model's calibration
// parameters; Workers is deliberately absent (see the field comment).
func (r Request) Key() string {
	if r.key != "" {
		return r.key
	}
	return string(r.Kind) + "/" + dataset.Fingerprint(struct {
		Config     string
		Experiment string
		Grid       sweep.Grid
		Objective  core.Objective
		Types      []code.Type
		Lengths    []int
		Count      int
		Seed       uint64
		Trials     int
	}{
		Config:     r.Config.Fingerprint(),
		Experiment: r.Experiment,
		Grid:       r.Grid,
		Objective:  r.Objective,
		Types:      r.Types,
		Lengths:    r.Lengths,
		Count:      r.Count,
		Seed:       r.Seed,
		Trials:     r.Trials,
	})
}

// validate rejects malformed requests with Invalid-class errors — and
// well-formed requests naming nonexistent experiments with NotFound-class
// ones — before any work is admitted.
func (r Request) validate() error {
	if !r.Kind.known() {
		return nwerr.Invalidf("engine: unknown request kind %q", string(r.Kind))
	}
	if r.Kind == KindExperiment && r.Experiment == "" {
		return nwerr.Invalidf("engine: experiment request needs a name")
	}
	if r.Kind == KindExperiment && !ExperimentKnown(r.Experiment) {
		return nwerr.NotFoundf("engine: unknown experiment %q", r.Experiment)
	}
	if r.Kind == KindMonteCarlo && r.Trials <= 0 {
		return nwerr.Invalidf("engine: montecarlo request needs a positive trial count, got %d", r.Trials)
	}
	if r.Count < 0 {
		return nwerr.Invalidf("engine: negative word count %d", r.Count)
	}
	return nil
}

// Response is the result of one request. Dataset is always set except for
// KindFabricate. The kind-specific payloads (Design, Rows, Yield) are
// shared between callers of the same cached result and must be treated as
// read-only, as are the bytes JSON returns; Dataset is a private clone,
// safe to annotate. Memory and RNG come only from the uncached
// KindFabricate, so they are exclusively the caller's.
type Response struct {
	// Dataset is the structured result (nil for KindFabricate).
	Dataset *dataset.Dataset
	// Design is the resolved design for KindDesign and KindOptimize.
	Design *core.Design
	// Rows are the evaluated grid points for KindSweep.
	Rows []sweep.Row
	// Yield is the measured mean usable fraction for KindMonteCarlo.
	Yield float64
	// Memory is the fabricated crossbar for KindFabricate.
	Memory *crossbar.Memory
	// RNG is the generator state after fabrication for KindFabricate, so
	// controllers can continue drawing from the same stream (fault
	// injection in nwmem depends on this).
	RNG *stats.RNG
	// CacheHit reports whether the result was served without computing:
	// from the cache, or by joining an identical in-flight request. For a
	// peer-served response it reports the owning node's verdict.
	CacheHit bool
	// Peer reports that the response was served by the request key's
	// owning node over the cluster peer protocol instead of by this
	// process (see internal/cluster). Peer responses carry the dataset
	// only: the kind-specific payloads (Design, Rows, Yield) do not cross
	// the wire.
	Peer bool
	// Key is the request's content address, for logging and HTTP headers.
	Key string

	// encoded memoizes the JSON form of the result. Every response served
	// from one cached original (the computing caller, cache hits, joined
	// flight followers) shares it, so the original renders at most once;
	// a result too costly to store still shares it among its flight. A
	// peer-served response carries the owner's body bytes in it. Nil for
	// a response that never passed the cache layer.
	encoded *encoded
}

// encoded is the shared, lazily rendered JSON form of one result. ds is
// the cached original, never the caller's private clone, so no caller
// annotation can leak into the bytes; raw is read-only once rendered.
type encoded struct {
	once sync.Once
	ds   *dataset.Dataset
	raw  []byte
	err  error
}

// bytes renders the form on first use and returns the shared result.
func (e *encoded) bytes() ([]byte, error) {
	e.once.Do(func() {
		if e.raw == nil {
			e.raw, e.err = EncodeJSON(e.ds)
		}
	})
	return e.raw, e.err
}

// PeerResponse builds the response of a request served by the key's
// owning node: ds is the dataset parsed from the owner's body and raw
// the body itself, which JSON returns as is instead of re-rendering ds.
// raw must be the JSON form of ds and is shared read-only.
func PeerResponse(ds *dataset.Dataset, raw []byte, hit bool, key string) *Response {
	return &Response{
		Dataset:  ds,
		CacheHit: hit,
		Peer:     true,
		Key:      key,
		encoded:  &encoded{ds: ds, raw: raw},
	}
}

// JSON returns the result's JSON interchange form (Dataset.WriteJSON
// bytes). A response served from the cache shares one rendering of the
// cached original with every other response for its key: the first
// call renders it, later calls and later hits return the same slice,
// which callers must not modify. The bytes describe the result as
// computed, not caller annotations on Dataset, and do not depend on the
// worker count (Meta.Workers is not part of the form). A response that
// never passed the cache layer renders its Dataset on each call; one
// without a dataset (KindFabricate) is an Internal-class error.
//
// A result holding a value JSON cannot carry (an infinite bit area,
// where the yield underflows to zero) is Invalid-class: the request's
// parameters, not the server, put it out of the form's reach. Any other
// encode failure is Internal.
func (r *Response) JSON() ([]byte, error) {
	if r.encoded != nil {
		return r.encoded.bytes()
	}
	return EncodeJSON(r.Dataset)
}

// EncodeJSON renders ds as Dataset.JSON does, under the error classes
// Response.JSON documents: a nil dataset is Internal, a value the form
// cannot carry is Invalid, any other failure is Internal. Servers writing
// a dataset that did not come from the engine (a job's assembled
// results) classify its encode failures the same way.
func EncodeJSON(ds *dataset.Dataset) ([]byte, error) {
	if ds == nil {
		return nil, nwerr.Internalf("engine: response carries no dataset to encode")
	}
	raw, err := ds.JSON()
	var unsupported *json.UnsupportedValueError
	if errors.As(err, &unsupported) {
		return nil, nwerr.Invalidf("engine: %s result is not representable as JSON: %w", ds.Name, err)
	}
	if err != nil {
		return nil, nwerr.Internal(err)
	}
	return raw, nil
}

// clone returns the caller's private view of a response: the dataset is
// deep-copied (and stamped with the request's worker count — an execution
// detail excluded from serialization) so no caller can mutate the cached
// original. The JSON memo is shared, not copied: it renders the original.
func (r *Response) clone(req Request, hit bool) *Response {
	out := *r
	out.CacheHit = hit
	if r.Dataset != nil {
		out.Dataset = r.Dataset.Clone()
		out.Dataset.Meta.Workers = req.Workers
	}
	return &out
}

// cost estimates the cache weight of a response in cells. The unit is
// coarse — the cap exists to bound memory, not to account bytes exactly.
func (r *Response) cost() int64 {
	c := int64(1)
	if r.Dataset != nil {
		cols := len(r.Dataset.Columns)
		if cols < 1 {
			cols = 1
		}
		c += int64(len(r.Dataset.Rows)) * int64(cols)
	}
	c += int64(len(r.Rows))
	if r.Design != nil {
		c += 64
	}
	return c
}
