package cluster

import (
	"context"
	"net/http"
	"sync/atomic"

	"nwdec/internal/engine"
	"nwdec/internal/obs"
)

// PeerPath is the internal HTTP route of the peer protocol. Nodes POST
// the engine wire form of a request to the owner's PeerPath and receive
// the result dataset as JSON. The route is part of the fleet's internal
// surface, not the public API.
const PeerPath = "/peer/"

// Header names of the peer protocol.
const (
	headerCache = "X-Cache"
	headerKey   = "X-Request-Key"
)

// PeerBackend is an engine.Backend that routes each request to its key's
// owning node. Requests this node owns — and requests that cannot cross
// the wire (non-cacheable kinds, custom threshold models) — go straight
// to the local engine. Requests a peer owns are POSTed to the peer's
// PeerPath; any peer failure (connection, timeout, non-200, undecodable
// body) falls back to computing locally, so the cluster degrades to a
// set of independent nodes rather than an outage.
//
// Routing everything through the key's owner is what makes the fleet
// compute each key once: the owner's memo coalesces concurrent
// fetches from every node, and the owner's cache is the key's single
// home. Peer-served responses are deliberately *not* re-cached locally —
// the owner is the cache home, and a second fetch hitting the owner's
// warm cache is exactly the cheap path the design wants.
type PeerBackend struct {
	*Members
	local engine.Backend

	requests atomic.Int64
	remote   atomic.Int64
	errors   atomic.Int64
}

// NewPeerBackend builds the routing layer over the local engine (or any
// engine.Backend). The ring membership is Self plus every key of Peers.
func NewPeerBackend(local engine.Backend, opts Options) (*PeerBackend, error) {
	m, err := NewMembers(opts)
	if err != nil {
		return nil, err
	}
	return &PeerBackend{Members: m, local: local}, nil
}

// Stats reports the layer's lifetime counters. Served counts requests
// answered by a peer (the layer "served" them without local compute);
// Errors counts peer fetch failures — each one also produced a local
// fallback, so an error here is degraded latency, not a failed request.
func (b *PeerBackend) Stats() engine.BackendStats {
	return engine.BackendStats{
		Name:     "peer",
		Requests: b.requests.Load(),
		Served:   b.remote.Load(),
		Errors:   b.errors.Load(),
	}
}

// Handle routes one request: local if this node owns the key (or the
// request cannot cross the wire), otherwise fetched from the owner with
// fallback to local on any peer failure.
func (b *PeerBackend) Handle(ctx context.Context, req engine.Request) (*engine.Response, error) {
	b.requests.Add(1)
	if !req.Wireable() {
		return b.local.Handle(ctx, req)
	}
	key := req.Key()
	base, ok := b.PeerFor(key)
	if !ok {
		obs.From(ctx).Counter("cluster/peer/local").Add(1)
		return b.local.Handle(ctx, req)
	}
	resp, err := b.fetch(ctx, base, req, key)
	if err != nil {
		b.errors.Add(1)
		reg := obs.From(ctx)
		reg.Counter("cluster/peer/errors").Add(1)
		reg.Counter("cluster/peer/fallback_local").Add(1)
		return b.local.Handle(ctx, req)
	}
	b.remote.Add(1)
	obs.From(ctx).Counter("cluster/peer/served").Add(1)
	return resp, nil
}

// fetch asks the owning node for the request's result. The owner runs
// the request through its own engine facade, so validation, caching,
// deduplication and admission all happen there; this side only moves
// bytes — the response's JSON is the owner's body, passed through.
func (b *PeerBackend) fetch(ctx context.Context, base string, req engine.Request, key string) (*engine.Response, error) {
	body, err := req.MarshalWire()
	if err != nil {
		return nil, err
	}
	span := obs.From(ctx).StartSpan("cluster/peer/fetch")
	defer span.End()
	ds, raw, hdr, err := b.Post(ctx, base, PeerPath, body)
	if err != nil {
		return nil, err
	}
	return engine.PeerResponse(ds, raw, hdr.Get(headerCache) == "hit", key), nil
}

// PeerHandler serves PeerPath: it decodes the wire form of a request,
// runs it through the local backend (the node's own engine facade — NOT
// a peer backend, so a mis-routed request computes here instead of
// bouncing around the ring), and writes the result's JSON — on a cache
// hit, the owner's memoized bytes, with no re-render.
// Errors map to status codes through nwerr.HTTPStatus; an Overload
// rejection carries Retry-After so a shedding owner pushes its peers
// into their local-fallback path with a hint to come back.
func PeerHandler(local engine.Backend) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, func(ctx context.Context, body []byte) ([]byte, http.Header, error) {
			req, err := engine.UnmarshalWire(body)
			if err != nil {
				return nil, nil, err
			}
			resp, err := local.Handle(ctx, req)
			if err != nil {
				return nil, nil, err
			}
			raw, err := resp.JSON()
			if err != nil {
				return nil, nil, err
			}
			cache := "miss"
			if resp.CacheHit {
				cache = "hit"
			}
			return raw, http.Header{headerKey: {resp.Key}, headerCache: {cache}}, nil
		})
	})
}
