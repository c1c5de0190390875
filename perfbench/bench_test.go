package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	if !reflect.DeepEqual(warmStream(7, 4096), warmStream(7, 4096)) {
		t.Error("warm_hit: the same seed gave different key sequences")
	}
	if reflect.DeepEqual(warmStream(7, 4096), warmStream(8, 4096)) {
		t.Error("warm_hit: different seeds gave the same key sequence")
	}
	for i := 0; i < 200; i++ {
		if !reflect.DeepEqual(coldOp(7, i), coldOp(7, i)) {
			t.Fatalf("cold_fleet: op %d differs for the same seed", i)
		}
		if !reflect.DeepEqual(jobSpec(7, i), jobSpec(7, i)) {
			t.Fatalf("replayed jobs: job %d differs for the same seed", i)
		}
	}
	same := 0
	for i := 0; i < 200; i++ {
		if coldOp(7, i).Path == coldOp(8, i).Path {
			same++
		}
	}
	if same > 0 {
		t.Errorf("cold_fleet: %d of 200 ops are equal across seeds 7 and 8", same)
	}
	if jobSpec(7, 0).ID() == jobSpec(8, 0).ID() {
		t.Error("replayed jobs: seeds 7 and 8 gave the same first job")
	}
}

func TestColdKeysAndJobsAreUniqueWithinARun(t *testing.T) {
	keys := make(map[string]int)
	for i := 0; i < 20000; i++ {
		k := coldOp(3, i).Req.Key()
		if j, dup := keys[k]; dup {
			t.Fatalf("cold_fleet ops %d and %d share key %s", j, i, k)
		}
		keys[k] = i
	}
	ids := make(map[string]bool)
	for j := 0; j < 500; j++ {
		spec := jobSpec(3, j)
		if ids[spec.ID()] {
			t.Fatalf("replayed job %d repeats an earlier id", j)
		}
		ids[spec.ID()] = true
		if spec.Chunk < 4 || spec.Chunk > 8 {
			t.Fatalf("replayed job chunk %d outside 4–8", spec.Chunk)
		}
	}
	if n := len(jobSpec(3, 0).Grid.Points(jobSpec(3, 0).Base)); n != 1920 {
		t.Errorf("replayed job grid has %d points, want 1920", n)
	}
}

func TestWarmStreamCoversTheKeySetWithSkew(t *testing.T) {
	keys := warmKeys()
	if len(keys) != 42 {
		t.Fatalf("warm key set has %d keys, want 20 experiments + 20 designs + codes + sweep", len(keys))
	}
	hottest := func(seed uint64) (key, n int) {
		counts := make([]int, len(keys))
		for _, k := range warmStream(seed, 100000) {
			counts[k]++
		}
		for k, c := range counts {
			if c > n {
				key, n = k, c
			}
		}
		return key, n
	}
	key1, top := hottest(1)
	if top < 100000/10 {
		t.Errorf("hottest key drew %d of 100000 requests; Zipf(1.1) over 42 keys gives its top key far more", top)
	}
	if key2, _ := hottest(2); key2 != key1 {
		t.Errorf("seeds 1 and 2 have different hottest keys (%s, %s): the seed must not change the key mix", keys[key1].Path, keys[key2].Path)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reverse order: percentile must sort
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true},  // 10 samples beyond the 10th
		{19, 0.5, 10, false}, // 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{100, 0.9, 90, true},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples is supported")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 10–50 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // only 90–100 lies inside root
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},  // grandchild: counts against a only
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6, 6: 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"perfbench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1–60", doc.RunSeconds)
	}
	var names []string
	for i, w := range doc.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: why differs from the program's", w.Name)
		}
	}
	if want := []string{"warm_hit", "cold_fleet"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the program reports %d", len(doc.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if s := doc.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != maxBound {
		t.Errorf("setup_s must be first, in s, lower is better, with the largest bound: %+v", s)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, the program reports %d", len(doc.PerLayer), len(perLayer))
	}
	layers := make(map[string]bool)
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, m, d)
		}
		layer, _, _ := strings.Cut(m.Name, ".")
		layers[layer] = true
	}
	for _, l := range []string{"nwserve", "engine", "dataset", "compute", "par", "cluster", "jobs", "sweep", "harness"} {
		if !layers[l] {
			t.Errorf("no per-layer metric for layer %s", l)
		}
	}
}
