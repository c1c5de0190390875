package jobs

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/par"
	"nwdec/internal/sweep"
)

// Executor evaluates one chunk of a job, mirroring the engine's Backend
// pattern one layer up: the Runner owns checkpointing, lifecycle and
// status — an Executor owns nothing but the computation of a chunk's
// dataset, so layers compose freely (local compute, bounded retries,
// ring routing) without any of them touching the store. That split is
// what keeps resume byte-identity trivial: whichever layer produced a
// chunk, the submitting Runner persists it into the same partition slot,
// and the chunk dataset itself is a pure function of (spec, index).
type Executor interface {
	// Execute evaluates the chunk of the spec and returns its dataset.
	// Implementations must be safe for concurrent use and must derive
	// the result only from (spec, chunk) — never from node identity.
	Execute(ctx context.Context, spec Spec, chunk Chunk) (*dataset.Dataset, error)
	// Stats reports the layer's lifetime counters.
	Stats() ExecutorStats
}

// Chunk is one unit of executor work: the index into the job's
// deterministic partition plus the grid points of that slice. Carrying
// the points keeps Execute free of re-derivation on the submitting node;
// a remote node re-derives them from the wire form instead.
type Chunk struct {
	// Index is the chunk's position in the par.Ranges partition.
	Index int
	// Points are the grid points of this chunk, in grid order.
	Points []sweep.Point
}

// ExecutorStats are the lifetime counters of one executor layer,
// mirroring engine.BackendStats. Chunks counts Execute calls; Served
// counts the calls the layer resolved through its own mechanism (local
// compute, a successful retry, a peer answer); Errors counts failures
// the layer observed — for the ring layer each error also produced a
// local fallback, so an error there is degraded locality, not a failed
// chunk.
type ExecutorStats struct {
	Name   string
	Chunks int64
	Served int64
	Errors int64
}

// execStats is the embedded atomic counter block shared by the executor
// layers.
type execStats struct {
	chunks atomic.Int64
	served atomic.Int64
	errors atomic.Int64
}

func (s *execStats) snapshot(name string) ExecutorStats {
	return ExecutorStats{
		Name:   name,
		Chunks: s.chunks.Load(),
		Served: s.served.Load(),
		Errors: s.errors.Load(),
	}
}

// LocalExecutor computes chunks in this process — the Runner's historic
// behavior extracted behind the Executor seam. Each chunk is internally
// parallel on the par pool; results are bit-identical at every worker
// count. It increments the jobs/chunks_computed counter of the context's
// registry, so in a fleet the counter tallies chunks at the node that
// actually computed them.
type LocalExecutor struct {
	// Workers bounds the per-chunk worker pool (<= 0 selects GOMAXPROCS).
	Workers int

	stats execStats
}

// Execute evaluates the chunk's points on the local par pool.
func (e *LocalExecutor) Execute(ctx context.Context, spec Spec, chunk Chunk) (*dataset.Dataset, error) {
	e.stats.chunks.Add(1)
	rows, err := sweep.EvalPoints(ctx, e.Workers, chunk.Points)
	if err != nil {
		e.stats.errors.Add(1)
		return nil, err
	}
	e.stats.served.Add(1)
	obs.From(ctx).Counter("jobs/chunks_computed").Add(1)
	return sweep.Dataset(rows), nil
}

// Stats reports the layer's lifetime counters.
func (e *LocalExecutor) Stats() ExecutorStats { return e.stats.snapshot("local") }

// Retry defaults.
const (
	// DefaultRetryAttempts is the total attempt bound of a RetryExecutor
	// (first try included).
	DefaultRetryAttempts = 3
	// DefaultRetryBackoff is the delay before the first retry; it doubles
	// per attempt.
	DefaultRetryBackoff = 50 * time.Millisecond
)

// RetryExecutor retries a failing inner executor with doubling backoff,
// but only for error classes a retry can plausibly cure: Internal (a
// flaky peer, a torn response) and Overload (a shedding node that asked
// us to come back). Invalid, NotFound and Canceled failures — and a done
// context — are surfaced immediately: retrying a request that cannot
// succeed is how fleets melt down. The backoff wait is driven by a
// timer, not the wall clock, so the deterministic-package invariant
// holds; retries surface through the jobs/retries counter and Stats.
type RetryExecutor struct {
	// Next is the wrapped executor (required).
	Next Executor
	// Backoff is the first retry delay, doubling per attempt (<= 0
	// selects DefaultRetryBackoff).
	Backoff time.Duration

	stats execStats
}

// Execute tries the inner executor up to DefaultRetryAttempts times.
// Served counts chunks rescued by a retry (succeeded on a later
// attempt); first-try successes pass through uncounted, keeping the
// layer's stats a pure measure of its own contribution.
func (e *RetryExecutor) Execute(ctx context.Context, spec Spec, chunk Chunk) (*dataset.Dataset, error) {
	e.stats.chunks.Add(1)
	backoff := e.Backoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	var last error
	for try := 0; try < DefaultRetryAttempts; try++ {
		if try > 0 {
			obs.From(ctx).Counter("jobs/retries").Add(1)
			if err := sleep(ctx, backoff); err != nil {
				return nil, err
			}
			backoff *= 2
		}
		ds, err := e.Next.Execute(ctx, spec, chunk)
		if err == nil {
			if try > 0 {
				e.stats.served.Add(1)
			}
			return ds, nil
		}
		last = err
		e.stats.errors.Add(1)
		if !retryable(err) {
			break
		}
	}
	return nil, last
}

// Stats reports the layer's lifetime counters.
func (e *RetryExecutor) Stats() ExecutorStats { return e.stats.snapshot("retry") }

// retryable reports whether the error class can plausibly be cured by
// trying again.
func retryable(err error) bool {
	switch nwerr.ClassOf(err) {
	case nwerr.ClassInternal, nwerr.ClassOverload:
		return true
	}
	return false
}

// sleep waits for d or until ctx is done, whichever is first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nwerr.Canceled(fmt.Errorf("jobs: retry backoff interrupted: %w", ctx.Err()))
	case <-t.C:
		return nil
	}
}

// ServeChunk is the serving side of the chunk protocol: it rebuilds the
// job spec from the wire form, re-derives the deterministic point
// partition exactly as the submitting runner did, evaluates the one
// requested chunk locally and returns the chunk's content-addressed key
// with the dataset. cmd/nwserve wires it into cluster.ChunkHandler; it
// lives here so the cluster layer never needs to import jobs.
func ServeChunk(ctx context.Context, workers int, req engine.ChunkRequest) (string, *dataset.Dataset, error) {
	spec := Spec{Base: req.Config, Grid: req.Grid, Chunk: req.Chunk}.normalized()
	if err := spec.validate(); err != nil {
		return "", nil, err
	}
	points := spec.Grid.Points(spec.Base)
	if len(points) == 0 {
		return "", nil, nwerr.Invalidf("jobs: chunk request grid produced no valid design points")
	}
	ranges := par.Ranges(len(points), spec.Chunk)
	if req.Index < 0 || req.Index >= len(ranges) {
		return "", nil, nwerr.Invalidf("jobs: chunk index %d outside the %d-chunk partition", req.Index, len(ranges))
	}
	rg := ranges[req.Index]
	exec := LocalExecutor{Workers: workers}
	ds, err := exec.Execute(ctx, spec, Chunk{Index: req.Index, Points: points[rg.Lo:rg.Hi]})
	if err != nil {
		return "", nil, err
	}
	obs.From(ctx).Counter("jobs/peer_chunks_served").Add(1)
	return spec.ChunkKey(req.Index), ds, nil
}
