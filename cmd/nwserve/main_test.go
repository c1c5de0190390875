package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"nwdec/internal/cluster"
	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/engine"
	"nwdec/internal/jobs"
	"nwdec/internal/sweep"
)

// newTestServer builds a single-node server over a fresh engine.
func newTestServer(t testing.TB) *server {
	t.Helper()
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runner := jobs.NewRunner(jobs.NewMemoryStore(), jobs.Options{Workers: 1, Node: "local"})
	t.Cleanup(runner.Close)
	return &server{eng: eng, backend: eng, runner: runner, workers: 1, node: "local"}
}

// TestDesignQueryStatus drives the HTTP routes through srv.mux(): design
// parameters the library rejects, and results the JSON form cannot
// carry, answer 400 with class "invalid" — not 500 "internal", and not a
// silent 200 with the default design or an empty body.
func TestDesignQueryStatus(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t).mux())
	defer ts.Close()

	for _, tc := range []struct {
		path   string
		status int
		class  string
	}{
		{"/v1/design", http.StatusOK, ""},
		{"/v1/design?wires=12&rawbits=4096", http.StatusOK, ""},
		{"/v1/design?length=-2", http.StatusBadRequest, "invalid"},
		{"/v1/design?sigma=-1", http.StatusBadRequest, "invalid"},
		{"/v1/design?base=-1", http.StatusBadRequest, "invalid"},
		{"/v1/design?wires=-3", http.StatusBadRequest, "invalid"},
		{"/v1/design?rawbits=-5", http.StatusBadRequest, "invalid"},
		{"/v1/design?wires=many", http.StatusBadRequest, "invalid"},
		{"/v1/experiment/nope", http.StatusNotFound, "not_found"},
		// The yield underflows to zero, so the effective bit area is +Inf:
		// a value the JSON form cannot carry. The request, not the server,
		// is at fault, and the status is decided before any body is sent.
		{"/v1/design?sigma=1e100", http.StatusBadRequest, "invalid"},
		{"/v1/sweep?sigmas=1e300", http.StatusBadRequest, "invalid"},
		{"/v1/optimize?sigma=1e300", http.StatusBadRequest, "invalid"},
	} {
		t.Run(tc.path, func(t *testing.T) {
			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.class == "" {
				return
			}
			var body struct{ Error, Class string }
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if body.Class != tc.class {
				t.Errorf("class = %q (%s), want %q", body.Class, body.Error, tc.class)
			}
		})
	}
}

// routeCases pairs one public route of every cacheable kind with the
// engine request it parses to; the tests check the pairing through the
// X-Request-Key header.
var routeCases = []struct {
	path string
	req  engine.Request
}{
	{"/v1/design?type=hc&length=6&sigma=0.04",
		engine.Request{Kind: engine.KindDesign, Config: core.Config{CodeType: code.TypeHot, CodeLength: 6, SigmaT: 0.04}}},
	{"/v1/optimize?objective=yield",
		engine.Request{Kind: engine.KindOptimize, Objective: core.MaxYield}},
	{"/v1/montecarlo?trials=2&seed=7",
		engine.Request{Kind: engine.KindMonteCarlo, Trials: 2, Seed: 7}},
	{"/v1/experiment/fig5",
		engine.Request{Kind: engine.KindExperiment, Experiment: "fig5"}},
	{"/v1/sweep?lengths=4,6&sigmas=0.05",
		engine.Request{Kind: engine.KindSweep, Grid: sweep.Grid{Lengths: []int{4, 6}, SigmaTs: []float64{0.05}}}},
	{"/v1/codes?type=gc&length=6&count=8",
		engine.Request{Kind: engine.KindCodes, Config: core.Config{CodeType: code.TypeGray, CodeLength: 6}, Count: 8}},
}

// freshJSON is the reference body: Dataset.JSON() of the request's result
// from a newly built engine.
func freshJSON(t *testing.T, req engine.Request) []byte {
	t.Helper()
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := resp.Dataset.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fetch issues one request and returns the body, checking the status
// and, on any status but 204, that Content-Length matches the body.
func fetch(t *testing.T, method, url string, body []byte, status int) ([]byte, http.Header) {
	t.Helper()
	hreq, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, status, raw)
	}
	if cl := resp.Header.Get("Content-Length"); status != http.StatusNoContent && cl != strconv.Itoa(len(raw)) {
		t.Errorf("%s %s: Content-Length %q, body %d bytes", method, url, cl, len(raw))
	}
	return raw, resp.Header
}

// TestServedBytes: for every cacheable kind, the public route's miss and
// hit bodies and the peer route's body (owner-side miss on a fresh node,
// hit on a warm one) all equal a fresh engine's Dataset.JSON(), with a
// Content-Length that matches.
func TestServedBytes(t *testing.T) {
	warm := httptest.NewServer(newTestServer(t).mux())
	defer warm.Close()
	for _, tc := range routeCases {
		t.Run(tc.path, func(t *testing.T) {
			want := freshJSON(t, tc.req)
			wire, err := tc.req.MarshalWire()
			if err != nil {
				t.Fatal(err)
			}
			cold := httptest.NewServer(newTestServer(t).mux())
			defer cold.Close()
			for _, c := range []struct {
				name, method, url string
				body              []byte
				cache             string
			}{
				{"miss", http.MethodGet, warm.URL + tc.path, nil, "miss"},
				{"hit", http.MethodGet, warm.URL + tc.path, nil, "hit"},
				{"peer hit", http.MethodPost, warm.URL + cluster.PeerPath, wire, "hit"},
				{"peer miss", http.MethodPost, cold.URL + cluster.PeerPath, wire, "miss"},
			} {
				got, hdr := fetch(t, c.method, c.url, c.body, http.StatusOK)
				if !bytes.Equal(got, want) {
					t.Errorf("%s body differs from a fresh engine's:\n%s\nvs\n%s", c.name, got, want)
				}
				if k := hdr.Get("X-Request-Key"); k != tc.req.Key() {
					t.Errorf("%s: X-Request-Key %q, want %q", c.name, k, tc.req.Key())
				}
				if x := hdr.Get("X-Cache"); x != c.cache {
					t.Errorf("%s: X-Cache %q, want %q", c.name, x, c.cache)
				}
			}
		})
	}
}

// TestPeerServedBytes: in a two-node fleet, a key the asked node does not
// own is answered with the owner's body bytes, passed through unchanged
// on both the owner's miss and its hit.
func TestPeerServedBytes(t *testing.T) {
	owner := httptest.NewServer(newTestServer(t).mux())
	defer owner.Close()
	asker := newTestServer(t)
	pb, err := cluster.NewPeerBackend(asker.eng, cluster.Options{Self: "a", Peers: map[string]string{"b": owner.URL}})
	if err != nil {
		t.Fatal(err)
	}
	asker.backend = pb
	ts := httptest.NewServer(asker.mux())
	defer ts.Close()
	remote := 0
	for _, tc := range routeCases {
		if _, ok := pb.PeerFor(tc.req.Key()); !ok {
			continue
		}
		remote++
		want := freshJSON(t, tc.req)
		for _, cache := range []string{"miss-peer", "hit-peer"} {
			got, hdr := fetch(t, http.MethodGet, ts.URL+tc.path, nil, http.StatusOK)
			if x := hdr.Get("X-Cache"); x != cache {
				t.Errorf("%s: X-Cache %q, want %q", tc.path, x, cache)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s (%s): peer-served body differs from a fresh engine's", tc.path, cache)
			}
		}
		direct, _ := fetch(t, http.MethodGet, owner.URL+tc.path, nil, http.StatusOK)
		if !bytes.Equal(direct, want) {
			t.Errorf("%s: owner's own body differs from a fresh engine's", tc.path)
		}
	}
	if remote == 0 {
		t.Fatal("no route case is owned by the peer; the test exercised no hop")
	}
	if got := pb.Stats().Served; got != int64(2*remote) {
		t.Errorf("peer served %d requests, want %d", got, 2*remote)
	}
}

// runJob submits a job spec (202) and polls its status until the job
// leaves the running state.
func runJob(t *testing.T, base, spec string) jobs.Status {
	t.Helper()
	raw, _ := fetch(t, http.MethodPost, base+"/v1/jobs", []byte(spec), http.StatusAccepted)
	var st jobs.Status
	for {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("job status body: %v", err)
		}
		if st.State != jobs.StateRunning {
			return st
		}
		time.Sleep(10 * time.Millisecond)
		raw, _ = fetch(t, http.MethodGet, base+"/v1/jobs/"+st.ID, nil, http.StatusOK)
	}
}

// TestJobLifecycle drives one small grid job through the HTTP surface:
// submit (202), poll to completion, fetch the assembled sweep dataset
// with X-Job-State complete, then delete it (204 once, 404 after).
func TestJobLifecycle(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t).mux())
	defer ts.Close()
	// code.Type serializes as its enum int (1 = Gray code).
	st := runJob(t, ts.URL, `{"grid":{"Types":[1],"Lengths":[4],"SigmaTs":[0.05]},"chunk":1}`)
	if st.State != jobs.StateComplete {
		t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	raw, hdr := fetch(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/results", nil, http.StatusOK)
	if got := hdr.Get("X-Job-State"); got != string(jobs.StateComplete) {
		t.Errorf("results X-Job-State %q, want complete", got)
	}
	var doc struct {
		Name string  `json:"name"`
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("results body: %v", err)
	}
	if doc.Name != "sweep" || len(doc.Rows) == 0 {
		t.Errorf("results dataset %q with %d rows, want a non-empty sweep", doc.Name, len(doc.Rows))
	}
	fetch(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil, http.StatusNoContent)
	fetch(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil, http.StatusNotFound)
}

// TestJobResultsUnrepresentable: a job whose sweep holds a value the JSON
// form cannot carry (the +Inf bit area of a design whose yield underflows
// to zero) answers /results with 400 "invalid", decided before any body
// is sent — not 200 with an empty body.
func TestJobResultsUnrepresentable(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t).mux())
	defer ts.Close()
	st := runJob(t, ts.URL, `{"grid":{"Types":[1],"Lengths":[4],"SigmaTs":[1e300]},"chunk":1}`)
	if st.State != jobs.StateComplete {
		t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	raw, _ := fetch(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/results", nil, http.StatusBadRequest)
	var body struct{ Error, Class string }
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Class != "invalid" {
		t.Errorf("class = %q (%s), want invalid", body.Class, body.Error)
	}
}

// TestShutdownDrains: shutdown on a real loopback server stops accepting
// connections, lets the request already in flight finish, and returns
// nil once Serve has exited.
func TestShutdownDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	entered, release := make(chan struct{}), make(chan struct{})
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "drained")
	})}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + addr)
		if err != nil {
			body <- err.Error()
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			body <- err.Error()
			return
		}
		body <- string(raw)
	}()
	<-entered

	done := make(chan error, 1)
	go func() { done <- shutdown(hs, served) }()
	// Shutdown has begun once the listener refuses new connections.
	for {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		conn.Close()
		runtime.Gosched()
	}
	select {
	case err := <-done:
		t.Fatalf("shutdown returned %v with a request still in flight", err)
	default:
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := <-body; got != "drained" {
		t.Errorf("in-flight request got %q, want the drained response", got)
	}
}

// BenchmarkServeWarmHit times one warm GET /v1/experiment/fig7 through
// the server's mux: routing, the engine hit path and the body write,
// with no network.
func BenchmarkServeWarmHit(b *testing.B) {
	h := newTestServer(b).mux()
	serveOnce := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/experiment/fig7", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	serveOnce()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serveOnce(); rec.Header().Get("X-Cache") != "hit" {
			b.Fatal("warmed server missed the cache")
		}
	}
}
