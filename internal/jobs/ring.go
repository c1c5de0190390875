package jobs

import (
	"context"

	"nwdec/internal/cluster"
	"nwdec/internal/dataset"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
)

// RingExecutor routes each chunk to its owning node on the cluster's
// consistent-hash ring and computes locally when this node is the owner
// — the job-layer analogue of cluster.PeerBackend, over the same
// cluster.Members transport. The routing key is Spec.ChunkKey (job id +
// chunk index, the same fingerprint chain as every other content
// address; Workers excluded), so every node agrees on each chunk's home.
// Any peer failure — connection, timeout, non-200, wrong-key response,
// undecodable body — falls back to computing the chunk locally, exactly
// like the request protocol: a dead node degrades the fleet to slower
// locality, never to a failed job. The submitting Runner still owns
// checkpointing, so which node computed a chunk never affects the
// persisted bytes. Membership is fixed at construction.
type RingExecutor struct {
	*cluster.Members
	local Executor
	stats execStats
}

// RingOptions configures a RingExecutor: the node's fleet membership.
type RingOptions = cluster.Options

// NewRingExecutor builds the routing layer over the local executor
// (normally a LocalExecutor; any Executor works). The ring membership is
// Self plus every key of Peers.
func NewRingExecutor(local Executor, opts RingOptions) (*RingExecutor, error) {
	if local == nil {
		return nil, nwerr.Invalidf("jobs: ring executor needs a local executor to fall back on")
	}
	m, err := cluster.NewMembers(opts)
	if err != nil {
		return nil, err
	}
	return &RingExecutor{Members: m, local: local}, nil
}

// Execute routes the chunk: local if this node owns its key (or the spec
// cannot cross the wire), otherwise fetched from the owner with fallback
// to local compute on any peer failure.
func (e *RingExecutor) Execute(ctx context.Context, spec Spec, chunk Chunk) (*dataset.Dataset, error) {
	e.stats.chunks.Add(1)
	if spec.Base.Model != nil {
		return e.local.Execute(ctx, spec, chunk)
	}
	key := spec.ChunkKey(chunk.Index)
	base, ok := e.PeerFor(key)
	if !ok {
		obs.From(ctx).Counter("jobs/peer_local").Add(1)
		return e.local.Execute(ctx, spec, chunk)
	}
	ds, err := e.fetch(ctx, base, spec, chunk.Index, key)
	if err != nil {
		e.stats.errors.Add(1)
		reg := obs.From(ctx)
		reg.Counter("jobs/peer_errors").Add(1)
		reg.Counter("jobs/peer_fallback_local").Add(1)
		return e.local.Execute(ctx, spec, chunk)
	}
	e.stats.served.Add(1)
	obs.From(ctx).Counter("jobs/peer_served").Add(1)
	return ds, nil
}

// Stats reports the layer's lifetime counters. Served counts chunks a
// peer computed; Errors counts peer failures, each of which also
// produced a local fallback.
func (e *RingExecutor) Stats() ExecutorStats { return e.stats.snapshot("ring") }

// fetch asks the owning node to evaluate the chunk. The owner re-derives
// the partition from the wire form, so this side sends only identity
// fields plus the index; the response's key header must echo the routing
// key — a mismatch means the peer evaluated a different partition (a
// version or configuration skew) and the response is rejected rather
// than checkpointed.
func (e *RingExecutor) fetch(ctx context.Context, base string, spec Spec, idx int, key string) (*dataset.Dataset, error) {
	body, err := spec.chunkWire(idx).MarshalWire()
	if err != nil {
		return nil, err
	}
	span := obs.From(ctx).StartSpan("jobs/peer_fetch")
	defer span.End()
	ds, _, hdr, err := e.Post(ctx, base, cluster.ChunkPath, body)
	if err != nil {
		return nil, err
	}
	if got := hdr.Get(cluster.ChunkKeyHeader); got != key {
		return nil, nwerr.Internalf("jobs: peer %s answered chunk key %q, want %q", base, got, key)
	}
	return ds, nil
}
