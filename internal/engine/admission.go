package engine

import (
	"context"

	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/par"
)

// admissionBackend bounds how many requests may compute concurrently: a
// burst degrades to queueing (the default) or, in shed mode, to an
// immediate Overload-class rejection the HTTP facade turns into
// 503 + Retry-After — the server stays responsive under saturation
// instead of accumulating an unbounded queue of waiters.
//
// The layer sits below the cache layer, so hits and joined flights never
// consume a slot.
type admissionBackend struct {
	sem   *par.Semaphore
	shed  bool
	next  Backend
	stats layerStats
}

func newAdmissionBackend(maxInFlight int, shed bool, next Backend) *admissionBackend {
	return &admissionBackend{
		sem:   par.NewSemaphore(maxInFlight),
		shed:  shed,
		next:  next,
		stats: layerStats{name: "admission"},
	}
}

// Stats reports the layer's lifetime counters.
func (b *admissionBackend) Stats() BackendStats { return b.stats.Stats() }

// inFlight returns the number of requests currently holding a slot.
func (b *admissionBackend) inFlight() int { return b.sem.InFlight() }

// Handle admits the request through the semaphore and delegates. In
// queueing mode a full semaphore blocks until a slot frees or the
// context dies (a Canceled-class error); in shed mode it fails fast with
// an Overload-class error, which is the recoverable "back off and retry"
// signal of the taxonomy.
func (b *admissionBackend) Handle(ctx context.Context, req Request) (*Response, error) {
	b.stats.requests.Add(1)
	reg := obs.From(ctx)
	if b.shed {
		if !b.sem.TryAcquire() {
			b.stats.errors.Add(1)
			reg.Counter("engine/admission/shed").Add(1)
			return nil, nwerr.Overloadf(
				"engine: admission saturated (%d requests computing); retry later", b.sem.Cap())
		}
	} else if err := b.sem.Acquire(ctx); err != nil {
		b.stats.errors.Add(1)
		reg.Counter("engine/admission/aborted").Add(1)
		return nil, nwerr.Canceled(err)
	}
	reg.Gauge("engine/inflight").Set(float64(b.sem.InFlight()))
	defer func() {
		b.sem.Release()
		reg.Gauge("engine/inflight").Set(float64(b.sem.InFlight()))
	}()
	resp, err := b.next.Handle(ctx, req)
	if err != nil {
		b.stats.errors.Add(1)
		return nil, err
	}
	return resp, nil
}
