package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"nwdec/internal/engine"
	"nwdec/internal/jobs"
)

// TestDesignQueryStatus drives the HTTP routes through srv.mux(): design
// parameters the library rejects answer 400 with class "invalid" — not
// 500 "internal", and not a silent 200 with the default design.
func TestDesignQueryStatus(t *testing.T) {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runner := jobs.NewRunner(jobs.NewMemoryStore(), jobs.Options{Workers: 1, Node: "local"})
	defer runner.Close()
	srv := &server{eng: eng, backend: eng, runner: runner, workers: 1, node: "local"}
	ts := httptest.NewServer(srv.mux())
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
