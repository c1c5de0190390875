package cluster

import (
	"context"
	"net/http"

	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/nwerr"
)

// ChunkPath is the internal HTTP route of the chunk protocol: the job
// layer POSTs the engine chunk wire form to a chunk's owning node and
// receives the evaluated chunk dataset as JSON. Like PeerPath it is part
// of the fleet's internal surface, not the public API. The route is more
// specific than PeerPath, so a mux serving both dispatches chunk
// requests here and everything else under /peer/ to the request handler.
const ChunkPath = "/peer/chunk"

// Chunk-protocol header names. They are exported because the job layer's
// ring executor — the client side of the protocol — verifies ChunkKeyHeader
// against the key it routed on, and operators correlate ChunkNodeHeader
// with fleet logs.
const (
	// ChunkKeyHeader carries the content-addressed chunk key the serving
	// node derived from the request. The client rejects a response whose
	// key differs from the one it routed on — the defense against a
	// misconfigured fleet serving the wrong partition.
	ChunkKeyHeader = "X-Chunk-Key"
	// ChunkNodeHeader carries the serving node's ring identity on every
	// chunk response, success or error.
	ChunkNodeHeader = "X-Job-Node"
)

// ChunkFunc evaluates one decoded chunk request on the local node and
// returns the chunk's content-addressed key plus its dataset. The
// cluster layer deliberately takes this as a function rather than
// importing the job layer: jobs composes over cluster, never the
// reverse, so the handler moves bytes and the caller (cmd/nwserve wires
// in jobs.ServeChunk) owns the evaluation semantics.
type ChunkFunc func(ctx context.Context, req engine.ChunkRequest) (key string, ds *dataset.Dataset, err error)

// ChunkHandler serves ChunkPath: it decodes the chunk wire form,
// evaluates it through eval on the caller's goroutine (this package is
// goroutine-free by project policy) and writes the chunk dataset as
// JSON with the key and node headers. Errors map to status codes
// through nwerr.HTTPStatus exactly like the request protocol, so an
// Overload rejection carries Retry-After and pushes the submitting
// runner into its local-fallback path.
func ChunkHandler(node string, eval ChunkFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ChunkNodeHeader, node)
		serve(w, r, func(ctx context.Context, body []byte) ([]byte, http.Header, error) {
			req, err := engine.UnmarshalChunkWire(body)
			if err != nil {
				return nil, nil, err
			}
			key, ds, err := eval(ctx, req)
			if err != nil {
				return nil, nil, err
			}
			if ds == nil {
				return nil, nil, nwerr.Internalf("cluster: %s request produced no dataset", r.URL.Path)
			}
			raw, err := ds.JSON()
			if err != nil {
				return nil, nil, nwerr.Internal(err)
			}
			return raw, http.Header{ChunkKeyHeader: {key}}, nil
		})
	})
}
