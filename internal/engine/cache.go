package engine

import (
	"container/list"
	"context"
	"sync"

	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
)

// cacheBackend is the engine's memo: one table, under one mutex, of the
// results it has stored (a bounded, content-addressed LRU) and the
// results it is still computing (in-flight keys). A cacheable request
// does one of three things:
//
//   - hit: its key is stored, and it gets a private clone;
//   - join: its key is in flight, and it waits for the leader and clones
//     the leader's original, which carries the shared JSON memo;
//   - lead: it registers a flight and descends into admission → compute.
//
// The leader stores its result and deletes its flight in one critical
// section, so a request arriving the instant a flight completes either
// joins it or hits the store — it can never recompute. Non-cacheable
// kinds (fabrication) pass straight through: their results are mutable
// state that must never be shared between callers.
type cacheBackend struct {
	next  Backend
	stats layerStats

	mu      sync.Mutex
	lru     *resultCache
	flights map[string]*flight
}

// flight is one in-progress computation that concurrent identical
// requests join instead of recomputing. The leader publishes resp/err
// and then closes done; followers block on done (or their own context)
// and read the published result. The close-channel broadcast replaces the
// WaitGroup idiom, which the project reserves for internal/par.
type flight struct {
	done chan struct{}
	// resp is the computed original, never handed to a caller: followers
	// clone it, exactly as hits clone a stored one.
	resp *Response
	err  error
}

func newCacheBackend(maxEntries int, maxCost int64, next Backend) *cacheBackend {
	return &cacheBackend{
		next:    next,
		stats:   layerStats{name: "cache"},
		lru:     newResultCache(maxEntries, maxCost),
		flights: make(map[string]*flight),
	}
}

// Stats reports the layer's lifetime counters. Served counts hits plus
// joined followers.
func (b *cacheBackend) Stats() BackendStats { return b.stats.Stats() }

// len returns the number of stored responses.
func (b *cacheBackend) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lru.ll.Len()
}

// Handle hits, joins or leads (see cacheBackend). Every caller receives
// a private clone; the stored or in-flight original never leaves the
// layer. A follower shares the leader's result and the leader's error —
// including a Canceled one — since no computation of its own remains to
// continue; a follower whose own context dies stops waiting and returns
// Canceled.
func (b *cacheBackend) Handle(ctx context.Context, req Request) (*Response, error) {
	b.stats.requests.Add(1)
	if !req.Kind.cacheable() {
		return b.next.Handle(ctx, req)
	}
	reg := obs.From(ctx)
	key := req.Key()
	b.mu.Lock()
	if resp, ok := b.lru.get(key); ok {
		b.mu.Unlock()
		reg.Counter("engine/cache/hits").Add(1)
		b.stats.served.Add(1)
		return resp.clone(req, true), nil
	}
	f, joined := b.flights[key]
	if !joined {
		f = &flight{done: make(chan struct{})}
		b.flights[key] = f
	}
	b.mu.Unlock()
	if joined {
		reg.Counter("engine/flight/joined").Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			b.stats.errors.Add(1)
			return nil, nwerr.Canceled(ctx.Err())
		}
		if f.err != nil {
			b.stats.errors.Add(1)
			return nil, f.err
		}
		b.stats.served.Add(1)
		return f.resp.clone(req, true), nil
	}
	reg.Counter("engine/cache/misses").Add(1)
	return b.lead(ctx, req, key, f)
}

// lead computes the flight's result, stores it (unless it alone exceeds
// the cost cap, in which case only its flight shares it) and lands the
// flight. Errors are never stored: the next request leads a fresh
// flight. Before the original is published it gains the shared JSON memo
// that every clone of it carries (see Response.JSON).
func (b *cacheBackend) lead(ctx context.Context, req Request, key string, f *flight) (*Response, error) {
	resp, err := b.next.Handle(ctx, req)
	if err == nil {
		resp.encoded = &encoded{ds: resp.Dataset}
	}
	evicted := 0
	b.mu.Lock()
	delete(b.flights, key)
	if err == nil {
		evicted = b.lru.add(key, resp, resp.cost())
	}
	entries, cost := b.lru.ll.Len(), b.lru.cost
	b.mu.Unlock()
	f.resp, f.err = resp, err
	close(f.done)
	if err != nil {
		b.stats.errors.Add(1)
		return nil, err
	}
	reg := obs.From(ctx)
	if evicted > 0 {
		reg.Counter("engine/cache/evictions").Add(int64(evicted))
	}
	reg.Gauge("engine/cache/entries").Set(float64(entries))
	reg.Gauge("engine/cache/cost").Set(float64(cost))
	return resp.clone(req, false), nil
}

// cacheEntry is one cached response with its content address and weight.
type cacheEntry struct {
	key  string
	resp *Response
	cost int64
}

// resultCache is a bounded LRU over content-addressed responses. Two caps
// apply together: a maximum entry count and a maximum total cost (the sum
// of Response.cost weights); exceeding either evicts from the
// least-recently-used end. It has no lock of its own — cacheBackend's
// mutex guards it together with the in-flight map — and keeps no metrics:
// the backend counts hits, misses and evictions in the request path,
// where the obs registry is at hand.
type resultCache struct {
	maxEntries int
	maxCost    int64
	cost       int64
	ll         *list.List // front = most recently used; values are *cacheEntry
	items      map[string]*list.Element
}

func newResultCache(maxEntries int, maxCost int64) *resultCache {
	return &resultCache{
		maxEntries: maxEntries,
		maxCost:    maxCost,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// get returns the cached response for key, refreshing its recency.
func (c *resultCache) get(key string) (*Response, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

// add stores a response under a key the cache does not hold (only a
// flight's leader stores, and a key is never stored while in flight) and
// returns how many entries were evicted to make room. A response whose
// cost alone exceeds the cost cap is not stored at all — admitting it
// would immediately evict everything else and then itself.
func (c *resultCache) add(key string, resp *Response, cost int64) (evicted int) {
	if cost > c.maxCost {
		return 0
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, resp: resp, cost: cost})
	c.cost += cost
	for c.ll.Len() > c.maxEntries || c.cost > c.maxCost {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, ent.key)
		c.cost -= ent.cost
		evicted++
	}
	return evicted
}
