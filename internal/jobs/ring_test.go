package jobs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nwdec/internal/cluster"
	"nwdec/internal/code"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/sweep"
)

// ringSpec is a single-point-per-chunk spec with enough chunks that
// every node of a small ring owns several.
func ringSpec() Spec {
	return Spec{
		Grid: sweep.Grid{
			Types:   []code.Type{code.TypeGray, code.TypeHot},
			Lengths: []int{4, 6},
			SigmaTs: []float64{0.04, 0.045, 0.05, 0.055, 0.06, 0.065},
		},
		Chunk: 1,
	}
}

// chunkServer starts an httptest node serving the chunk protocol under
// the given ring identity, instrumented with its own obs registry so
// tests can count the chunks it computed.
func chunkServer(t *testing.T, name string) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.New(nil)
	h := cluster.ChunkHandler(name, func(ctx context.Context, req engine.ChunkRequest) (string, *dataset.Dataset, error) {
		return ServeChunk(ctx, 0, req)
	})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r.WithContext(obs.Into(r.Context(), reg)))
	}))
	return srv, reg
}

// peerChunk returns the index of a chunk of spec that the ring assigns
// to owner.
func peerChunk(t *testing.T, re *RingExecutor, spec Spec, owner string) int {
	t.Helper()
	spec = spec.normalized()
	n := len(spec.Grid.Points(spec.Base))
	for i := 0; i < n; i++ {
		if re.Ring().Owner(spec.ChunkKey(i)) == owner {
			return i
		}
	}
	t.Fatalf("ring assigns no chunk of %d to %q", n, owner)
	return -1
}

// TestRingExecutorRoutes pins the happy path: a chunk owned by a peer is
// computed there (peer_served, ring stats Served) and the dataset is
// byte-identical to a local evaluation; a chunk owned by self computes
// locally (peer_local).
func TestRingExecutorRoutes(t *testing.T) {
	spec := ringSpec()
	srvB, regB := chunkServer(t, "b")
	defer srvB.Close()
	re, err := NewRingExecutor(&LocalExecutor{}, RingOptions{
		Self:  "a",
		Peers: map[string]string{"b": srvB.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New(nil)
	ctx := obs.Into(context.Background(), reg)

	remote := peerChunk(t, re, spec, "b")
	ds, err := re.Execute(ctx, spec, chunkOf(t, spec, remote))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(localJSON(t, spec, remote)) {
		t.Error("peer-computed chunk differs from local evaluation")
	}
	if n := reg.Counter("jobs/peer_served").Value(); n != 1 {
		t.Errorf("jobs/peer_served = %d, want 1", n)
	}
	if n := regB.Counter("jobs/chunks_computed").Value(); n != 1 {
		t.Errorf("peer's jobs/chunks_computed = %d, want 1", n)
	}

	local := peerChunk(t, re, spec, "a")
	if _, err := re.Execute(ctx, spec, chunkOf(t, spec, local)); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("jobs/peer_local").Value(); n != 1 {
		t.Errorf("jobs/peer_local = %d, want 1", n)
	}
	st := re.Stats()
	if st.Name != "ring" || st.Chunks != 2 || st.Served != 1 || st.Errors != 0 {
		t.Errorf("ring stats = %+v, want chunks=2 served=1 errors=0", st)
	}
}

// TestRingExecutorFailover pins every peer-failure path the issue names:
// a 5xx response, a timeout, and a response carrying the wrong chunk key
// each fall back to local compute with the correct dataset and the
// fallback counters incremented — never an error, never a wrong result.
func TestRingExecutorFailover(t *testing.T) {
	spec := ringSpec()
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		timeout time.Duration
	}{
		{"peer-5xx", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}, 0},
		{"peer-timeout", func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(2 * time.Second)
		}, 50 * time.Millisecond},
		{"wrong-key", func(w http.ResponseWriter, r *http.Request) {
			// A well-formed dataset under the wrong key: a skewed peer
			// serving a different partition. Must be rejected, not stored.
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			req, err := engine.UnmarshalChunkWire(body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			_, ds, err := ServeChunk(r.Context(), 0, req)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			raw, err := ds.JSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set(cluster.ChunkKeyHeader, "bogus")
			w.Header().Set("Content-Type", "application/json")
			if _, err := w.Write(raw); err != nil {
				return
			}
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			re, err := NewRingExecutor(&LocalExecutor{}, RingOptions{
				Self:    "a",
				Peers:   map[string]string{"b": srv.URL},
				Timeout: tc.timeout,
			})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.New(nil)
			idx := peerChunk(t, re, spec, "b")
			ds, err := re.Execute(obs.Into(context.Background(), reg), spec, chunkOf(t, spec, idx))
			if err != nil {
				t.Fatalf("fallback must absorb the peer failure, got %v", err)
			}
			got, err := ds.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(localJSON(t, spec, idx)) {
				t.Error("fallback dataset differs from local evaluation")
			}
			if n := reg.Counter("jobs/peer_fallback_local").Value(); n != 1 {
				t.Errorf("jobs/peer_fallback_local = %d, want 1", n)
			}
			if n := reg.Counter("jobs/peer_errors").Value(); n != 1 {
				t.Errorf("jobs/peer_errors = %d, want 1", n)
			}
			st := re.Stats()
			if st.Errors != 1 || st.Served != 0 {
				t.Errorf("ring stats = %+v, want errors=1 served=0", st)
			}
		})
	}
}

// TestRingExecutorValidation pins the constructor's rejection rules,
// mirroring cluster.NewPeerBackend.
func TestRingExecutorValidation(t *testing.T) {
	if _, err := NewRingExecutor(nil, RingOptions{Self: "a"}); !nwerr.IsInvalid(err) {
		t.Errorf("nil local: err = %v, want Invalid-class", err)
	}
	if _, err := NewRingExecutor(&LocalExecutor{}, RingOptions{}); !nwerr.IsInvalid(err) {
		t.Errorf("empty self: err = %v, want Invalid-class", err)
	}
	if _, err := NewRingExecutor(&LocalExecutor{}, RingOptions{Self: "a", Peers: map[string]string{"a": "http://x"}}); !nwerr.IsInvalid(err) {
		t.Errorf("self in peers: err = %v, want Invalid-class", err)
	}
	if _, err := NewRingExecutor(&LocalExecutor{}, RingOptions{Self: "a", Peers: map[string]string{"b": ""}}); !nwerr.IsInvalid(err) {
		t.Errorf("empty peer URL: err = %v, want Invalid-class", err)
	}
}
