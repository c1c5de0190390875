// Command perfbench is the repository's end-to-end benchmark. It starts
// real nwserve processes on loopback, drives them over HTTP from one
// closed-loop client, checks every response for correctness and prints
// the end-to-end metrics; with -trace 1 it instead prints per-layer
// metrics, from a pass with the nodes' -metrics snapshot on and from an
// in-process replay of the same seeded inputs through the public stack.
//
// Run it through run.sh, which builds nwserve and this program first:
//
//	bash perfbench/run.sh --workload warm_hit --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result: a JSON object with
// the keys correct, attempted, failed and metrics. See README.md for the
// workloads, the metrics and the layer map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	pass func(context.Context, passEnv) (*passResult, error)
	// producer is the replay span of the call that produces the bytes
	// of the workload's result requests in process.
	producer []string
	// engineSpan is the replay span engine.do_* report for the workload.
	engineSpan string
}

var workloads = []workload{
	{
		name:       "warm_hit",
		why:        "one node, Zipf keys over a pre-warmed set: loads the HTTP facade, the engine hit path and JSON encoding, not compute",
		pass:       warmHitPass,
		producer:   []string{"engine.do.hit"},
		engineSpan: "engine.do.hit",
	},
	{
		name:       "cold_fleet",
		why:        "two peered nodes, every key unique: loads compute, cache inserts and evictions, and the peer hop",
		pass:       coldFleetPass,
		producer:   []string{"cluster.handle.local", "cluster.handle.peer"},
		engineSpan: "engine.do.miss",
	},
}

// metric is one reported metric as BENCHMARK.json declares it.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"server_rss_mb", "MiB", "lower", 0.1},
	{"server_cpu_ms_per_op", "ms", "lower", 0.25},
}

var perLayer = []metric{
	{"nwserve.outside_engine_p50_us", "us", "lower", 0},
	{"nwserve.req_p99_ms", "ms", "lower", 0},
	{"nwserve.work_per_s", "1/s", "higher", 0},
	{"nwserve.resp_bytes_mean", "B", "lower", 0},
	{"nwserve.cache_hits", "count", "higher", 0},
	{"nwserve.cache_evictions", "count", "lower", 0},
	{"engine.do_p50_us", "us", "lower", 0},
	{"engine.do_p99_us", "us", "lower", 0},
	{"engine.hit_ratio", "ratio", "higher", 0},
	{"engine.shed", "count", "lower", 0},
	{"engine.evictions", "count", "lower", 0},
	{"dataset.clone_p50_us", "us", "lower", 0},
	{"dataset.render_json_p50_us", "us", "lower", 0},
	{"dataset.parse_json_p50_us", "us", "lower", 0},
	{"dataset.concat_p50_us", "us", "lower", 0},
	{"compute.montecarlo_p50_us", "us", "lower", 0},
	{"compute.design_p50_us", "us", "lower", 0},
	{"compute.sweep_p50_us", "us", "lower", 0},
	{"compute.experiment_p50_us", "us", "lower", 0},
	{"par.busy_ratio", "ratio", "higher", 0},
	{"cluster.peer_share", "ratio", "lower", 0},
	{"cluster.peer_handle_p50_us", "us", "lower", 0},
	{"cluster.wire_p50_us", "us", "lower", 0},
	{"cluster.fallbacks", "count", "lower", 0},
	{"jobs.exec_local_p50_us", "us", "lower", 0},
	{"jobs.exec_peer_p50_us", "us", "lower", 0},
	{"jobs.store_put_chunk_p50_us", "us", "lower", 0},
	{"jobs.store_get_chunk_p50_us", "us", "lower", 0},
	{"jobs.store_lease_p50_us", "us", "lower", 0},
	{"jobs.checkpoint_bytes_mean", "B", "lower", 0},
	{"jobs.peer_served", "count", "higher", 0},
	{"jobs.retries", "count", "lower", 0},
	{"jobs.results_p50_ms", "ms", "lower", 0},
	{"jobs.fleet_wall_mean_ms", "ms", "lower", 0},
	{"jobs.single_wall_mean_ms", "ms", "lower", 0},
	{"jobs.fleet_exec_ms", "ms", "lower", 0},
	{"jobs.single_exec_ms", "ms", "lower", 0},
	{"jobs.fleet_store_ms", "ms", "lower", 0},
	{"jobs.single_store_ms", "ms", "lower", 0},
	{"jobs.fleet_runner_ms", "ms", "lower", 0},
	{"jobs.single_runner_ms", "ms", "lower", 0},
	{"sweep.eval_point_p50_us", "us", "lower", 0},
	{"harness.client_cpu_share", "ratio", "lower", 0},
	{"harness.tracing_overhead_ratio", "ratio", "lower", 0},
}

// clientBoundShare is the client CPU share (CPU seconds per wall second)
// from which a run is flagged as possibly bound by the load generator.
const clientBoundShare = 0.9

// runTimeout bounds a whole run, below the 180 s a run may take.
const runTimeout = 170 * time.Second

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func nproc() int { return runtime.NumCPU() }

// clientConns is the closed loop's connection count: one per two CPUs,
// at least one. The client and the nodes share the machine; leaving the
// nodes most of it keeps the client from setting the pace, and on a
// 2-CPU host a single caller gave the steadiest latencies.
func clientConns() int { return max(1, nproc()/2) }

func main() {
	var (
		name    = flag.String("workload", "", "workload name: warm_hit or cold_fleet")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		bin     = flag.String("nwserve", "", "path of the nwserve binary to start")
		workdir = flag.String("workdir", ".bench_build/run", "directory for logs, job stores, spans and result files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *bin, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, bin, workdir string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", name)
	case seconds < 1:
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case bin == "":
		return errors.New("-nwserve is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace)))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	env := passEnv{bin: bin, dir: dir, seed: seed, window: time.Duration(seconds) * time.Second, conns: clientConns()}
	meta := runMeta(w.name, seed, seconds, trace, env.conns)

	var (
		values map[string]float64
		out    result
		passes []*passResult
	)
	if trace == 0 {
		res, err := w.pass(ctx, env)
		if err != nil {
			return err
		}
		passes = []*passResult{res}
		values = endToEndValues(res, meta)
	} else {
		// Half the window untraced, half with the nodes' metrics on: the
		// ratio of the two is the tracing overhead.
		env.window /= 2
		plain, err := w.pass(ctx, env)
		if err != nil {
			return err
		}
		env.metrics = true
		traced, err := w.pass(ctx, env)
		if err != nil {
			return err
		}
		rep, err := runReplay(ctx, seed, filepath.Join(dir, "replay"))
		if err != nil {
			return err
		}
		spanPath := filepath.Join(dir, "spans.jsonl")
		if err := writeSpans(spanPath, rep.spans); err != nil {
			return err
		}
		meta["span_file"] = spanPath
		passes = []*passResult{plain, traced}
		values = perLayerValues(w, plain, traced, rep, meta)
		out.Attempted += rep.ops
		out.Failed += rep.failed
		if len(rep.failures) > 0 {
			meta["replay_failures"] = rep.failures
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("run interrupted: %w", err)
	}
	var failures []string
	for _, p := range passes {
		out.Attempted += p.attempted
		out.Failed += p.failed
		failures = append(failures, p.failures...)
	}
	if len(failures) > 0 {
		meta["failures"] = failures
	}
	meta["node_flags"] = passes[len(passes)-1].nodeFlags
	if out.Attempted > 0 {
		meta["fail_ratio"] = float64(out.Failed) / float64(out.Attempted)
	}
	out.Correct = out.Failed == 0
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	out.Metrics = make(map[string]metricValue, len(defs))
	for _, m := range defs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	meta["metrics"] = out.Metrics
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(metaJSON, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("perfbench meta %s\n", metaJSON)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// subWindows is how many equal parts a request workload's timed window
// is cut into. Latency percentiles and throughput are computed per part
// and reported as the median over the parts, so a burst of host steal
// that hits one or two parts does not move the run's figure.
const subWindows = 10

// part is the requests that completed in one part of the window.
type part struct {
	ms []float64
	ok int
}

func splitWindow(res *passResult) []part {
	parts := make([]part, subWindows)
	for i, ms := range res.reqMS {
		k := min(max(int(res.reqAt[i]/res.windowSec*subWindows), 0), subWindows-1)
		parts[k].ms = append(parts[k].ms, ms)
		if res.reqOK[i] {
			parts[k].ok++
		}
	}
	return parts
}

// partPercentile returns the median over the parts of each part's
// q-percentile, and whether every part supports it.
func partPercentile(parts []part, q float64) (float64, bool) {
	vals := make([]float64, 0, len(parts))
	all := true
	for _, p := range parts {
		v, ok := percentile(p.ms, q)
		all = all && ok
		vals = append(vals, v)
	}
	return median(vals), all
}

// endToEndValues computes the end-to-end metrics of one pass.
func endToEndValues(res *passResult, meta map[string]any) map[string]float64 {
	v := map[string]float64{
		"setup_s":       median(res.setupS),
		"server_rss_mb": res.rssMB,
	}
	var unsupported []string
	check := func(name string, n int, ok bool) {
		if !ok {
			unsupported = append(unsupported, fmt.Sprintf("%s (%d samples)", name, n))
		}
	}
	var ok bool
	parts := splitWindow(res)
	v["op_p50_ms"], ok = partPercentile(parts, 0.5)
	check("op_p50_ms", len(res.reqMS), ok)
	v["req_p99_ms"], ok = partPercentile(parts, 0.99)
	check("req_p99_ms", len(res.reqMS), ok)
	rates := make([]float64, len(parts))
	okOps := 0
	for i, p := range parts {
		rates[i] = float64(p.ok) / (res.windowSec / subWindows)
		okOps += p.ok
	}
	v["work_per_s"] = median(rates)
	if okOps > 0 {
		v["server_cpu_ms_per_op"] = res.nodeCPUSec * 1e3 / float64(okOps)
	}
	// Measured on every run but not bounded: see README.md.
	meta["req_p99_ms"] = v["req_p99_ms"]
	meta["work_per_s"] = v["work_per_s"]
	meta["samples"] = len(res.reqMS)
	dist := make(map[string]float64)
	all := append([]float64(nil), res.reqMS...)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if val, ok := percentile(all, q); ok {
			dist[fmt.Sprintf("p%g", q*100)] = val
		}
	}
	if n := len(all); n > 0 {
		dist["max"] = all[n-1]
		dist["mean"] = mean(all)
	}
	meta["req_ms"] = dist
	meta["setup_samples_s"] = res.setupS
	if len(unsupported) > 0 {
		meta["unsupported_percentiles"] = unsupported
	}
	harnessMeta(res, meta)
	return v
}

// harnessMeta records the client's own load and flags a run whose client
// used close to a full core.
func harnessMeta(res *passResult, meta map[string]any) {
	share := clientCPUShare(res)
	meta["client_cpu_share"] = share
	if res.allTicks > 0 {
		meta["host_steal_share"] = res.stolenTicks / res.allTicks
	}
	if share >= clientBoundShare {
		meta["client_bound_warning"] = fmt.Sprintf("client used %.2f of a core; numbers may be bound by the load generator", share)
	}
}

func clientCPUShare(res *passResult) float64 {
	if res.windowSec <= 0 {
		return 0
	}
	return res.cpuSec / res.windowSec
}

// perLayerValues computes the per-layer metrics of a traced run.
func perLayerValues(w *workload, plain, traced *passResult, rep *replayResult, meta map[string]any) map[string]float64 {
	v := make(map[string]float64)
	for k, x := range rep.counts {
		v[k] = x
	}
	var unsupported []string
	pct := func(metric string, q float64, scale float64, names ...string) {
		var d []float64
		for _, n := range names {
			d = append(d, durations(rep.spans, n)...)
		}
		val, ok := percentile(d, q)
		if !ok {
			unsupported = append(unsupported, fmt.Sprintf("%s (%d samples)", metric, len(d)))
		}
		v[metric] = val / scale
	}
	pct("engine.do_p50_us", 0.5, 1, w.engineSpan)
	pct("engine.do_p99_us", 0.99, 1, w.engineSpan)
	pct("dataset.clone_p50_us", 0.5, 1, "dataset.clone")
	pct("dataset.render_json_p50_us", 0.5, 1, "dataset.render_json")
	pct("dataset.parse_json_p50_us", 0.5, 1, "dataset.parse_json")
	pct("dataset.concat_p50_us", 0.5, 1, "dataset.concat")
	pct("compute.montecarlo_p50_us", 0.5, 1, "compute.montecarlo")
	pct("compute.design_p50_us", 0.5, 1, "compute.design")
	pct("compute.sweep_p50_us", 0.5, 1, "compute.sweep")
	pct("compute.experiment_p50_us", 0.5, 1, "compute.experiment")
	pct("cluster.peer_handle_p50_us", 0.5, 1, "cluster.handle.peer")
	pct("cluster.wire_p50_us", 0.5, 1, "cluster.wire")
	pct("jobs.exec_local_p50_us", 0.5, 1, "jobs.exec_local")
	pct("jobs.exec_peer_p50_us", 0.5, 1, "jobs.exec_peer")
	pct("jobs.store_put_chunk_p50_us", 0.5, 1, "jobs.store_put_chunk")
	pct("jobs.store_get_chunk_p50_us", 0.5, 1, "jobs.store_get_chunk")
	pct("jobs.store_lease_p50_us", 0.5, 1, "jobs.store_lease")
	pct("jobs.results_p50_ms", 0.5, 1e3, "jobs.results")
	pct("sweep.eval_point_p50_us", 0.5, 1, "sweep.eval_point")

	// Where a job's wall time goes: the part of each job's span that its
	// exec and its store child spans cover, and its self time, the
	// runner's own, per job, on the fleet and on a single node.
	self := selfTimes(rep.spans)
	children := make(map[int][]span)
	for _, s := range rep.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, side := range []struct{ root, prefix, metric string }{
		{"jobs.fleet_job", "jobs.", "jobs.fleet_"},
		{"single.job", "single.", "jobs.single_"},
	} {
		var walls, exec, store, runner []float64
		for _, root := range rep.spans {
			if root.Name != side.root {
				continue
			}
			var e, st []span
			for _, c := range children[root.ID] {
				switch rest := strings.TrimPrefix(c.Name, side.prefix); {
				case strings.HasPrefix(rest, "exec_"):
					e = append(e, c)
				case strings.HasPrefix(rest, "store_"):
					st = append(st, c)
				}
			}
			walls = append(walls, float64(root.dur())/1e6)
			exec = append(exec, float64(covered(root, e))/1e6)
			store = append(store, float64(covered(root, st))/1e6)
			runner = append(runner, float64(self[root.ID])/1e6)
		}
		v[side.metric+"wall_mean_ms"] = mean(walls)
		v[side.metric+"exec_ms"] = mean(exec)
		v[side.metric+"store_ms"] = mean(store)
		v[side.metric+"runner_ms"] = mean(runner)
	}

	plainE2E := endToEndValues(plain, map[string]any{})
	tracedE2E := endToEndValues(traced, map[string]any{})
	var producer []float64
	for _, n := range w.producer {
		producer = append(producer, durations(rep.spans, n)...)
	}
	clientP50, _ := percentile(append([]float64(nil), plain.reqMS...), 0.5)
	producerP50, _ := percentile(producer, 0.5)
	v["nwserve.outside_engine_p50_us"] = clientP50*1e3 - producerP50
	v["nwserve.req_p99_ms"] = plainE2E["req_p99_ms"]
	v["nwserve.work_per_s"] = plainE2E["work_per_s"]
	v["nwserve.resp_bytes_mean"] = mean(plain.respBytes)
	v["nwserve.cache_hits"] = traced.snapshot["engine/cache/hits"]
	v["nwserve.cache_evictions"] = traced.snapshot["engine/cache/evictions"]

	v["harness.client_cpu_share"] = clientCPUShare(plain)
	harnessMeta(plain, meta)
	// The nodes' CPU time per operation rather than a latency: it moves
	// least from run to run, so it resolves the smallest overhead.
	if plainE2E["server_cpu_ms_per_op"] > 0 {
		v["harness.tracing_overhead_ratio"] = tracedE2E["server_cpu_ms_per_op"] / plainE2E["server_cpu_ms_per_op"]
	}
	meta["untraced"] = plainE2E
	meta["traced"] = tracedE2E
	if len(unsupported) > 0 {
		meta["unsupported_percentiles"] = unsupported
	}
	return v
}
