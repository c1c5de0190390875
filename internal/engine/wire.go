package engine

import (
	"encoding/json"

	"nwdec/internal/core"
	"nwdec/internal/nwerr"
	"nwdec/internal/sweep"
)

// Wireable reports whether the request can cross the peer protocol: its
// result must be shareable (cacheable kind) and its identity fields must
// survive a JSON round trip. A custom threshold model is the one
// identity field that cannot — Config.Model is an interface, and only
// in-process callers can supply one — so such requests always compute on
// the node that received them.
func (r Request) Wireable() bool {
	return r.Kind.cacheable() && r.Config.Model == nil
}

// MarshalWire encodes the request for the peer protocol. Non-wireable
// requests are rejected with an Invalid-class error; route them locally
// instead. Both ends of the protocol run the same binary, so the
// encoding only needs to be a faithful round trip, not a versioned
// format.
func (r Request) MarshalWire() ([]byte, error) {
	if !r.Wireable() {
		return nil, nwerr.Invalidf("engine: request kind %q is not wireable", string(r.Kind))
	}
	return json.Marshal(r)
}

// UnmarshalWire decodes a peer-protocol request. The result still goes
// through Engine.Do's validation on the serving node; this only rejects
// bytes that are not the wire form at all.
func UnmarshalWire(data []byte) (Request, error) {
	var r Request
	if err := json.Unmarshal(data, &r); err != nil {
		return Request{}, nwerr.Invalidf("engine: bad wire request: %w", err)
	}
	return r, nil
}

// ChunkRequest is the wire form of one job-chunk computation for the
// cluster chunk protocol (POST /peer/chunk): the identity fields of a
// job spec — base config, grid, chunk size — plus the index of the one
// chunk the serving node should evaluate. It lives here rather than in
// internal/jobs because both sides of the protocol need it and the
// cluster layer must not import jobs (the jobs layer composes over the
// cluster, never the reverse). The serving node re-derives the
// deterministic point partition from (config, grid, chunk) exactly as
// the submitting runner did, so an index addresses the same points on
// every node. Worker counts are deliberately absent, as everywhere in
// the identity chain.
type ChunkRequest struct {
	Config core.Config `json:"config"`
	Grid   sweep.Grid  `json:"grid"`
	Chunk  int         `json:"chunk"`
	Index  int         `json:"index"`
}

// MarshalWire encodes the chunk request for the peer protocol. A config
// carrying a custom threshold model cannot cross the wire (the same
// restriction as Request.Wireable) and is rejected as Invalid-class.
func (r ChunkRequest) MarshalWire() ([]byte, error) {
	if r.Config.Model != nil {
		return nil, nwerr.Invalidf("engine: chunk request with a custom threshold model is not wireable")
	}
	return json.Marshal(r)
}

// UnmarshalChunkWire decodes a chunk-protocol request. Validation of the
// decoded spec happens on the serving node; this only rejects bytes that
// are not the wire form at all.
func UnmarshalChunkWire(data []byte) (ChunkRequest, error) {
	var r ChunkRequest
	if err := json.Unmarshal(data, &r); err != nil {
		return ChunkRequest{}, nwerr.Invalidf("engine: bad chunk wire request: %w", err)
	}
	return r, nil
}
