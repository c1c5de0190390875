package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nwdec/internal/dataset"
	"nwdec/internal/nwerr"
)

// DefaultPeerTimeout bounds one peer fetch. It must cover a full
// computation on the owner (experiments run for seconds, not
// milliseconds); a peer that cannot answer within it is treated as down
// and the work falls back to computing locally.
const DefaultPeerTimeout = 30 * time.Second

// Options configures a node's fleet membership (see Members).
type Options struct {
	// Self is this node's ID. Keys the ring assigns to Self are served
	// locally.
	Self string
	// Peers maps every *other* node's ID to its base URL
	// (e.g. "http://10.0.0.2:8080"). Self must not appear as a key.
	Peers map[string]string
	// Timeout bounds one peer fetch (0 = DefaultPeerTimeout).
	Timeout time.Duration
}

// Members is one node's view of the fleet and the client half of the
// peer transport: the ring over Self plus every peer, the peers' base
// URLs, and a bounded POST that moves a body to a peer and a dataset
// back. Both routing layers embed it — PeerBackend for engine requests,
// the job layer's ring executor for chunks — and add only their routing
// policy on top. Membership is fixed at construction.
type Members struct {
	ring    *Ring
	peers   map[string]string
	client  *http.Client
	timeout time.Duration
}

// NewMembers validates the membership and builds the ring. An empty
// Self, Self listed among Peers, or a peer without a URL is rejected as
// Invalid-class.
func NewMembers(opts Options) (*Members, error) {
	if opts.Self == "" {
		return nil, nwerr.Invalidf("cluster: node needs a non-empty -node-id")
	}
	if _, ok := opts.Peers[opts.Self]; ok {
		return nil, nwerr.Invalidf("cluster: peer set must not contain this node %q", opts.Self)
	}
	nodes := []string{opts.Self}
	peers := make(map[string]string, len(opts.Peers))
	for id, base := range opts.Peers {
		if base == "" {
			return nil, nwerr.Invalidf("cluster: peer %q has an empty URL", id)
		}
		nodes = append(nodes, id)
		peers[id] = strings.TrimSuffix(base, "/")
	}
	ring, err := NewRing(nodes, DefaultVirtualNodes)
	if err != nil {
		return nil, nwerr.Invalid(err)
	}
	m := &Members{ring: ring, peers: peers, client: &http.Client{}, timeout: opts.Timeout}
	if m.timeout <= 0 {
		m.timeout = DefaultPeerTimeout
	}
	return m, nil
}

// Ring exposes the membership's ring, for ownership introspection.
func (m *Members) Ring() *Ring { return m.ring }

// PeerFor returns the base URL of the peer that owns key. ok is false
// when this node owns it, so the caller computes locally.
func (m *Members) PeerFor(key string) (base string, ok bool) {
	base, ok = m.peers[m.ring.Owner(key)]
	return base, ok
}

// Post sends body to path on the peer at base and returns the 200
// response's body bytes together with the dataset parsed from them and
// the response headers. Parsing validates the body, so a caller may pass
// raw on to its own clients instead of re-rendering the dataset. The
// call is bounded by the peer timeout but stays on the caller's
// goroutine — the hedge against a dead peer is the caller's local
// fallback, not a racing goroutine (this package is goroutine-free by
// project policy). A non-200 answer is an Internal-class error quoting
// the start of the body.
func (m *Members) Post(ctx context.Context, base, path string, body []byte) (ds *dataset.Dataset, raw []byte, hdr http.Header, err error) {
	ctx, cancel := context.WithTimeout(ctx, m.timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := m.client.Do(hreq)
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if cerr := hresp.Body.Close(); err == nil && cerr != nil {
			ds, raw, hdr, err = nil, nil, nil, cerr
		}
	}()
	if hresp.StatusCode != http.StatusOK {
		// Drain a little for connection reuse; the text is diagnostic only.
		msg, rerr := io.ReadAll(io.LimitReader(hresp.Body, 512))
		if rerr != nil {
			msg = []byte("(unreadable body: " + rerr.Error() + ")")
		}
		return nil, nil, nil, nwerr.Internalf("cluster: peer %s: status %d: %s", base, hresp.StatusCode, strings.TrimSpace(string(msg)))
	}
	raw, err = readBody(hresp)
	if err != nil {
		return nil, nil, nil, err
	}
	ds, err = dataset.ParseJSON(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, nil, err
	}
	return ds, raw, hresp.Header, nil
}

// maxBodyHint caps the buffer readBody sizes from a peer's
// Content-Length, so a bogus length cannot force a huge allocation up
// front; a longer body still reads, growing as it goes.
const maxBodyHint = 64 << 20

// readBody reads a response body in one allocation when the peer
// declared its length (serve always does), instead of growing a buffer
// by doubling.
func readBody(hresp *http.Response) ([]byte, error) {
	n := hresp.ContentLength
	if n < 0 || n > maxBodyHint {
		n = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	if _, err := buf.ReadFrom(hresp.Body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// serve is the server half of the peer transport, shared by the request
// and chunk protocols: it reads the (1 MiB-bounded) body, evaluates it
// on the caller's goroutine, and writes the JSON body eval returned with
// its headers and Content-Length — or the error under its taxonomy
// status.
func serve(w http.ResponseWriter, r *http.Request, eval func(ctx context.Context, body []byte) ([]byte, http.Header, error)) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, nwerr.Invalidf("cluster: reading %s request: %w", r.URL.Path, err))
		return
	}
	raw, hdr, err := eval(r.Context(), body)
	if err != nil {
		writeError(w, err)
		return
	}
	h := w.Header()
	for k, v := range hdr {
		h[k] = v
	}
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(raw)))
	if _, err := w.Write(raw); err != nil {
		return // client went away; nothing to salvage
	}
}

// writeError maps an error to its taxonomy status (with the Retry-After
// hint on 503) and writes it as the plain-text body.
func writeError(w http.ResponseWriter, err error) {
	status := nwerr.HTTPStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), status)
}
