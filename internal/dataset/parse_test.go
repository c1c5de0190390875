package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestParseJSONRoundTrips pins the inverse the cluster peer protocol
// relies on: WriteJSON → ParseJSON reproduces the dataset — schema,
// rows with their exact Go cell types, notes, metadata — and the
// re-serialization is byte-identical, so a peer-served dataset renders
// exactly like a locally computed one.
func TestParseJSONRoundTrips(t *testing.T) {
	ds := sample()
	raw, err := ds.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Columns, ds.Columns) {
		t.Errorf("columns = %+v, want %+v", got.Columns, ds.Columns)
	}
	if !reflect.DeepEqual(got.Rows, ds.Rows) {
		t.Errorf("rows = %+v, want %+v", got.Rows, ds.Rows)
	}
	if !reflect.DeepEqual(got.Notes, ds.Notes) {
		t.Errorf("notes = %+v, want %+v", got.Notes, ds.Notes)
	}
	wantMeta := ds.Meta
	wantMeta.Workers = 0 // execution detail: excluded from serialization
	if got.Meta != wantMeta {
		t.Errorf("meta = %+v, want %+v", got.Meta, wantMeta)
	}
	again, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Errorf("re-serialization differs:\n%s\nvs\n%s", again, raw)
	}
}

// TestParseJSONEmptyRows: a dataset with no rows round-trips to an empty
// (non-nil in JSON) row set.
func TestParseJSONEmptyRows(t *testing.T) {
	raw, err := New("e", "empty", Col("n", Int)).JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "e" || len(got.Rows) != 0 || len(got.Columns) != 1 {
		t.Errorf("parsed %+v", got)
	}
}

// TestParseJSONRejects: malformed documents fail with a diagnostic
// instead of panicking in AddRow or silently coercing cell types.
func TestParseJSONRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"not-json", `{"name":`},
		{"unknown-kind", `{"name":"x","columns":[{"name":"a","kind":"complex"}],"rows":[]}`},
		{"arity", `{"name":"x","columns":[{"name":"a","kind":"int"}],"rows":[[1,2]]}`},
		{"type-mismatch", `{"name":"x","columns":[{"name":"a","kind":"int"}],"rows":[["one"]]}`},
		{"frac-as-int", `{"name":"x","columns":[{"name":"a","kind":"int"}],"rows":[[1.5]]}`},
		{"num-as-bool", `{"name":"x","columns":[{"name":"a","kind":"bool"}],"rows":[[1]]}`},
		{"trailing-doc", `{"name":"x","columns":[],"rows":[]} {}`},
		{"trailing-brace", `{"name":"x","columns":[],"rows":[]}}`},
		{"trailing-text", "{\"name\":\"x\",\"columns\":[],\"rows\":[]}\ngarbage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseJSON(strings.NewReader(tc.doc)); err == nil {
				t.Errorf("ParseJSON accepted %s", tc.doc)
			}
		})
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{String, Int, Float, Bool} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("kind(9)"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
}

// FuzzParseJSON holds ParseJSON — the only check a peer-served body
// passes before its bytes reach a client — to its contract: any input is
// either rejected with an error or parsed into a dataset whose JSON form
// is a fixed point (rendering, parsing and rendering again reproduces
// the same bytes). Nothing panics.
func FuzzParseJSON(f *testing.F) {
	for _, ds := range []*Dataset{sample(), New("e", "empty", Col("n", Int))} {
		raw, err := ds.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"name":"x","columns":[{"name":"a","kind":"float"}],"rows":[[1e308],[-0.5]]}`))
	f.Add([]byte(`{"name":"x","columns":[{"name":"a","kind":"int"}],"rows":[[9223372036854775807]]}`))
	f.Add([]byte(`{"name":"x","columns":[{"name":"a","kind":"string"}],"rows":[["\u00e9\ufffd"]],"notes":[""]}`))
	f.Add([]byte(`{"name":"x","columns":[],"rows":[]} {}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		first, err := ParseJSON(bytes.NewReader(b))
		if err != nil {
			return
		}
		want, err := first.JSON()
		if err != nil {
			t.Fatalf("accepted input does not render: %v", err)
		}
		second, err := ParseJSON(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("rendered form does not parse: %v\n%s", err, want)
		}
		got, err := second.JSON()
		if err != nil {
			t.Fatalf("re-parsed dataset does not render: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("JSON form is not a fixed point:\n%s\nvs\n%s", got, want)
		}
	})
}
