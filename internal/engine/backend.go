package engine

import (
	"context"
	"sync/atomic"
)

// Backend is one layer of the serving stack. The engine is a composition
// of backends, each owning exactly one cross-cutting mechanism:
//
//	cacheBackend → admissionBackend → computeBackend
//
// in request-flow order: serve repeats from the content-addressed memo
// (a stored result, or an identical request's computation in flight),
// bound how many requests compute at once, run the library entry point. The *Engine facade
// validates requests, counts them, and hands them to the head of the
// chain — and is itself a Backend, so callers that route requests
// further (the cluster peer backend) compose over it uniformly.
//
// Every Backend must be safe for concurrent use. Handle's contract
// follows Engine.Do: the response a caller receives is its own (its
// dataset is a private clone), and errors carry the internal/nwerr
// taxonomy.
type Backend interface {
	// Handle serves one request. The request must already be validated
	// (the Engine facade does this once at the top of the chain).
	Handle(ctx context.Context, req Request) (*Response, error)
	// Stats reports the layer's lifetime counters.
	Stats() BackendStats
}

// BackendStats are the lifetime counters of one backend layer,
// independent of the obs registry (which travels per-request): they are
// always on, cost three atomic increments, and let tests and operators
// read each layer in isolation.
type BackendStats struct {
	// Name identifies the layer ("cache", "admission", "compute",
	// "engine", "peer").
	Name string
	// Requests counts requests that entered the layer.
	Requests int64
	// Served counts requests the layer answered itself, without
	// consulting the next layer (a cache hit, a joined flight).
	Served int64
	// Errors counts requests that left the layer with an error.
	Errors int64
}

// layerStats is the atomic counter block every backend embeds; its
// Stats method satisfies the Backend interface's stats half.
type layerStats struct {
	name     string
	requests atomic.Int64
	served   atomic.Int64
	errors   atomic.Int64
}

// Stats returns a consistent-enough snapshot of the counters (each field
// is read atomically; the fields are not mutually synchronized).
func (s *layerStats) Stats() BackendStats {
	return BackendStats{
		Name:     s.name,
		Requests: s.requests.Load(),
		Served:   s.served.Load(),
		Errors:   s.errors.Load(),
	}
}
