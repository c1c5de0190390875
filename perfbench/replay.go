package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nwdec/internal/cluster"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/experiments"
	"nwdec/internal/jobs"
	"nwdec/internal/obs"
	"nwdec/internal/sweep"
)

// Replay sizes. Each span name gets well over the 20 samples a
// supported p50 needs, except compute.experiment, which has exactly one
// sample per registry experiment (20).
const (
	replayHits       = 5000 // warm_hit stream requests
	replayCold       = 300  // cold_fleet requests, past the 128-entry cache cap
	replayJobs       = 2    // grid jobs, each run on a fleet and a single node
	replayReads      = 10   // Runner.Results and Concat calls per job
	replayEvalPoints = 200  // sweep.EvalPoint calls
	replaySelf       = "a"  // the replayed node's ring identity
	replayPeer       = "b"  // the in-process peer's ring identity
)

// replayResult is what the in-process replay measured.
type replayResult struct {
	spans    []span
	ops      int // replayed requests and jobs
	counts   map[string]float64
	failed   int
	failures []string
}

// monoClock is the obs clock of the replay's registry.
type monoClock struct{ t0 time.Time }

func (c monoClock) Now() time.Duration { return time.Since(c.t0) }

// replayer replays the workloads' seeded inputs through the public
// stack in process, wired as nwserve wires it, and records a span around
// each call into a layer.
type replayer struct {
	ctx     context.Context
	tr      *tracer
	reg     *obs.Registry
	peerURL string
	reqs    int
	out     *replayResult
	engines []*engine.Engine
}

func (r *replayer) nextReq() int {
	r.reqs++
	return r.reqs
}

func (r *replayer) fail(format string, args ...any) {
	r.out.failed++
	if len(r.out.failures) < 8 {
		r.out.failures = append(r.out.failures, fmt.Sprintf(format, args...))
	}
}

func (r *replayer) newEngine(opts engine.Options) (*engine.Engine, error) {
	eng, err := engine.New(opts)
	if err == nil {
		r.engines = append(r.engines, eng)
	}
	return eng, err
}

// runReplay runs the three replay sections on the workload seed. The
// replay context carries an obs registry with a clock, so par records
// its worker busy and idle time; node b of the fleet is an httptest
// server with nwserve's peer routes and the same registry.
func runReplay(ctx context.Context, seed uint64, dir string) (*replayResult, error) {
	defer func() { // job stores only; the spans are kept in memory
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}()
	reg := obs.New(monoClock{time.Now()})
	r := &replayer{
		ctx: obs.Into(ctx, reg),
		tr:  newTracer(),
		reg: reg,
		out: &replayResult{counts: make(map[string]float64)},
	}
	engB, err := r.newEngine(engine.Options{Shed: true})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("POST "+cluster.PeerPath, cluster.PeerHandler(engB))
	mux.Handle("POST "+cluster.ChunkPath, cluster.ChunkHandler(replayPeer,
		func(ctx context.Context, req engine.ChunkRequest) (string, *dataset.Dataset, error) {
			return jobs.ServeChunk(ctx, 0, req)
		}))
	srv := httptest.NewUnstartedServer(mux)
	srv.Config.BaseContext = func(net.Listener) context.Context { return obs.Into(context.Background(), reg) }
	srv.Start()
	defer srv.Close()
	r.peerURL = srv.URL

	if err := r.hits(seed); err != nil {
		return nil, fmt.Errorf("replay hits: %w", err)
	}
	peerFallbacks, err := r.cold(seed)
	if err != nil {
		return nil, fmt.Errorf("replay cold: %w", err)
	}
	ringFallbacks, err := r.jobs(seed, dir)
	if err != nil {
		return nil, fmt.Errorf("replay jobs: %w", err)
	}
	r.out.counts["cluster.fallbacks"] = float64(peerFallbacks + ringFallbacks)

	var cacheReq, cacheHit, shed int64
	for _, eng := range r.engines {
		for _, st := range eng.BackendStats() {
			switch st.Name {
			case "cache":
				cacheReq += st.Requests
				cacheHit += st.Served
			case "admission":
				shed += st.Errors
			}
		}
	}
	if cacheReq > 0 {
		r.out.counts["engine.hit_ratio"] = float64(cacheHit) / float64(cacheReq)
	}
	r.out.counts["engine.shed"] = float64(shed)
	var busy, idle float64
	for _, row := range reg.Snapshot().Rows {
		name, _ := row[0].(string)
		v, _ := row[2].(float64)
		switch {
		case name == "engine/cache/evictions":
			r.out.counts["engine.evictions"] = v
		case name == "jobs/retries":
			r.out.counts["jobs.retries"] = v
		case strings.HasPrefix(name, "par/worker/") && strings.HasSuffix(name, "/busy_ns"):
			busy += v
		case strings.HasPrefix(name, "par/worker/") && strings.HasSuffix(name, "/idle_ns"):
			idle += v
		}
	}
	if busy+idle > 0 {
		r.out.counts["par.busy_ratio"] = busy / (busy + idle)
	}
	r.out.spans = r.tr.snapshot()
	r.out.ops = r.reqs
	return r.out, nil
}

// compute calls the library entry point behind an engine request
// directly, the way the engine's compute layer would.
func (r *replayer) compute(parent, req int, er engine.Request) error {
	var err error
	switch er.Kind {
	case engine.KindExperiment:
		r.tr.do("compute.experiment", parent, req, func() {
			_, err = (&experiments.Runner{Cfg: er.Config, MCTrials: er.Trials, Seed: er.Seed}).Run(r.ctx, er.Experiment)
		})
	case engine.KindDesign:
		r.tr.do("compute.design", parent, req, func() { _, err = core.NewDesign(er.Config) })
	case engine.KindMonteCarlo:
		r.tr.do("compute.montecarlo", parent, req, func() {
			var d *core.Design
			if d, err = core.NewDesign(er.Config); err == nil {
				_, err = d.MonteCarloYieldWorkers(r.ctx, er.Trials, er.Seed, 0)
			}
		})
	case engine.KindSweep:
		r.tr.do("compute.sweep", parent, req, func() { _, err = sweep.RunWorkers(r.ctx, er.Config, er.Grid, 0) })
	}
	return err
}

// hits replays warm_hit: every key computed directly and warmed into an
// engine, then the Zipf stream served from its cache, each response
// cloned and rendered as nwserve renders it.
func (r *replayer) hits(seed uint64) error {
	eng, err := r.newEngine(engine.Options{Shed: true})
	if err != nil {
		return err
	}
	keys := warmKeys()
	for _, k := range keys {
		req := r.nextReq()
		root := r.tr.start("replay.warm", 0, req)
		if err := r.compute(root, req, k.Req); err != nil {
			return fmt.Errorf("%s: %w", k.Path, err)
		}
		r.tr.do("engine.do.warm", root, req, func() { _, err = eng.Do(r.ctx, k.Req) })
		r.tr.end(root)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Path, err)
		}
	}
	var buf bytes.Buffer
	for _, k := range warmStream(seed, replayHits) {
		req := r.nextReq()
		root := r.tr.start("replay.hit", 0, req)
		var resp *engine.Response
		r.tr.do("engine.do.hit", root, req, func() { resp, err = eng.Do(r.ctx, keys[k].Req) })
		if err != nil {
			return fmt.Errorf("%s: %w", keys[k].Path, err)
		}
		r.tr.do("dataset.clone", root, req, func() { resp.Dataset.Clone() })
		r.tr.do("dataset.render_json", root, req, func() {
			buf.Reset()
			err = resp.Dataset.Render(&buf, dataset.FormatJSON)
		})
		r.tr.end(root)
		if err != nil {
			return err
		}
		if !resp.CacheHit {
			r.fail("replayed %s was not a cache hit", keys[k].Path)
		}
	}
	return nil
}

// cold replays cold_fleet on node a of a two-node fleet whose node b is
// the in-process peer server. Each request is computed directly, routed
// through the PeerBackend, its wire form round-tripped, its body
// rendered and parsed back, and served once more by a plain engine for
// the engine's miss path. It returns the PeerBackend's fallback count.
func (r *replayer) cold(seed uint64) (int64, error) {
	engA, err := r.newEngine(engine.Options{Shed: true})
	if err != nil {
		return 0, err
	}
	pb, err := cluster.NewPeerBackend(engA, cluster.Options{Self: replaySelf, Peers: map[string]string{replayPeer: r.peerURL}})
	if err != nil {
		return 0, err
	}
	plain, err := r.newEngine(engine.Options{})
	if err != nil {
		return 0, err
	}
	peers := 0
	var buf bytes.Buffer
	for i := 0; i < replayCold; i++ {
		o := coldOp(seed, i)
		req := r.nextReq()
		root := r.tr.start("replay.cold", 0, req)
		if err := r.compute(root, req, o.Req); err != nil {
			return 0, fmt.Errorf("%s: %w", o.Path, err)
		}
		name := "cluster.handle.local"
		if pb.Ring().Owner(o.Req.Key()) != replaySelf {
			name = "cluster.handle.peer"
			peers++
		}
		var resp *engine.Response
		r.tr.do(name, root, req, func() { resp, err = pb.Handle(r.ctx, o.Req) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", o.Path, err)
		}
		r.tr.do("cluster.wire", root, req, func() {
			var wire []byte
			if wire, err = o.Req.MarshalWire(); err == nil {
				_, err = engine.UnmarshalWire(wire)
			}
		})
		if err != nil {
			return 0, fmt.Errorf("%s: wire: %w", o.Path, err)
		}
		r.tr.do("dataset.render_json", root, req, func() {
			buf.Reset()
			err = resp.Dataset.Render(&buf, dataset.FormatJSON)
		})
		if err != nil {
			return 0, err
		}
		r.tr.do("dataset.parse_json", root, req, func() { _, err = dataset.ParseJSON(bytes.NewReader(buf.Bytes())) })
		if err != nil {
			return 0, fmt.Errorf("%s: parse: %w", o.Path, err)
		}
		var plainResp *engine.Response
		r.tr.do("engine.do.miss", root, req, func() { plainResp, err = plain.Do(r.ctx, o.Req) })
		r.tr.end(root)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", o.Path, err)
		}
		want, err := plainResp.Dataset.JSON()
		if err != nil {
			return 0, err
		}
		if got, err := resp.Dataset.JSON(); err != nil || !bytes.Equal(got, want) {
			r.fail("replayed %s: routed body differs from the plain engine's", o.Path)
		}
	}
	r.out.counts["cluster.peer_share"] = float64(peers) / replayCold
	return pb.Stats().Errors, nil
}

// parentMap tells the store and executor decorators, which run on the
// runner's goroutine, which span their calls belong to.
type parentMap struct {
	mu sync.Mutex
	m  map[string][2]int // job id → (span, request)
}

func (p *parentMap) set(id string, span, req int) {
	p.mu.Lock()
	p.m[id] = [2]int{span, req}
	p.mu.Unlock()
}

func (p *parentMap) get(id string) (span, req int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.m[id]
	return v[0], v[1]
}

// timedStore is a timing decorator on a jobs.Store.
type timedStore struct {
	jobs.Store
	tr      *tracer
	prefix  string
	parents *parentMap
}

func (s *timedStore) PutChunk(id string, idx int, ds *dataset.Dataset) (err error) {
	p, req := s.parents.get(id)
	s.tr.do(s.prefix+"store_put_chunk", p, req, func() { err = s.Store.PutChunk(id, idx, ds) })
	return err
}

func (s *timedStore) GetChunk(id string, idx int) (ds *dataset.Dataset, err error) {
	p, req := s.parents.get(id)
	s.tr.do(s.prefix+"store_get_chunk", p, req, func() { ds, err = s.Store.GetChunk(id, idx) })
	return ds, err
}

func (s *timedStore) PutLease(id string, idx int, node string) (err error) {
	p, req := s.parents.get(id)
	s.tr.do(s.prefix+"store_lease", p, req, func() { err = s.Store.PutLease(id, idx, node) })
	return err
}

func (s *timedStore) DeleteLease(id string, idx int) (err error) {
	p, req := s.parents.get(id)
	s.tr.do(s.prefix+"store_lease", p, req, func() { err = s.Store.DeleteLease(id, idx) })
	return err
}

// timedExec is a timing decorator on the Executor a Runner is given. It
// names each chunk's span by the ring owner of the chunk key: exec_local
// for chunks this node owns, exec_peer for chunks that cross to a peer.
type timedExec struct {
	next    jobs.Executor
	ring    *cluster.Ring // nil: every chunk is local
	tr      *tracer
	prefix  string
	parents *parentMap
}

func (e *timedExec) Execute(ctx context.Context, spec jobs.Spec, chunk jobs.Chunk) (ds *dataset.Dataset, err error) {
	name := "exec_local"
	if e.ring != nil && e.ring.Owner(spec.ChunkKey(chunk.Index)) != replaySelf {
		name = "exec_peer"
	}
	p, req := e.parents.get(spec.ID())
	e.tr.do(e.prefix+name, p, req, func() { ds, err = e.next.Execute(ctx, spec, chunk) })
	return ds, err
}

func (e *timedExec) Stats() jobs.ExecutorStats { return e.next.Stats() }

// jobs replays grid jobs: each grid runs on a fleet runner wired as a
// peered nwserve node (RetryExecutor over RingExecutor over FSStore,
// with node b as the peer) and on a single-node runner over FSStore,
// under spans named jobs.* and single.* respectively. The results must
// be byte-identical. It returns the ring executor's fallback count.
func (r *replayer) jobs(seed uint64, dir string) (int64, error) {
	parents := &parentMap{m: make(map[string][2]int)}
	ring, err := jobs.NewRingExecutor(&jobs.LocalExecutor{}, jobs.RingOptions{Self: replaySelf, Peers: map[string]string{replayPeer: r.peerURL}})
	if err != nil {
		return 0, err
	}
	fleetFS, err := jobs.NewFSStore(filepath.Join(dir, "fleet"))
	if err != nil {
		return 0, err
	}
	singleFS, err := jobs.NewFSStore(filepath.Join(dir, "single"))
	if err != nil {
		return 0, err
	}
	fleet := jobs.NewRunner(&timedStore{Store: fleetFS, tr: r.tr, prefix: "jobs.", parents: parents}, jobs.Options{
		Executor: &timedExec{next: &jobs.RetryExecutor{Next: ring}, ring: ring.Ring(), tr: r.tr, prefix: "jobs.", parents: parents},
		Node:     replaySelf,
	})
	defer fleet.Close()
	single := jobs.NewRunner(&timedStore{Store: singleFS, tr: r.tr, prefix: "single.", parents: parents}, jobs.Options{
		Executor: &timedExec{next: &jobs.LocalExecutor{}, tr: r.tr, prefix: "single.", parents: parents},
	})
	defer single.Close()

	var ckptBytes, ckptFiles float64
	for j := 0; j < replayJobs; j++ {
		spec := jobSpec(seed, j)
		id := spec.ID()
		var bodies [2][]byte
		for i, run := range []struct {
			runner *jobs.Runner
			root   string
		}{{fleet, "jobs.fleet_job"}, {single, "single.job"}} {
			req := r.nextReq()
			root := r.tr.start(run.root, 0, req)
			parents.set(id, root, req)
			st, err := run.runner.Submit(r.ctx, spec)
			if err == nil {
				st, err = run.runner.Wait(r.ctx, st.ID)
			}
			r.tr.end(root)
			parents.set(id, 0, req) // later store reads are not the job's
			if err != nil {
				return 0, err
			}
			if st.State != jobs.StateComplete {
				return 0, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
			}
			page, err := run.runner.Results(id, 0, 0)
			if err != nil {
				return 0, err
			}
			var buf bytes.Buffer
			if err := page.Dataset.Render(&buf, dataset.FormatJSON); err != nil {
				return 0, err
			}
			bodies[i] = buf.Bytes()
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			r.fail("replayed job %s: fleet results differ from the single-node results", id)
		}
		for k := 0; k < replayReads; k++ {
			req := r.nextReq()
			root := r.tr.start("jobs.results", 0, req)
			parents.set(id, root, req)
			_, err := fleet.Results(id, 0, 0)
			r.tr.end(root)
			if err != nil {
				return 0, err
			}
		}
		idxs, err := fleetFS.Chunks(id)
		if err != nil {
			return 0, err
		}
		parts := make([]*dataset.Dataset, 0, len(idxs))
		for _, idx := range idxs {
			ds, err := fleetFS.GetChunk(id, idx)
			if err != nil {
				return 0, err
			}
			parts = append(parts, ds)
			fi, err := os.Stat(filepath.Join(fleetFS.Root(), id, fmt.Sprintf("chunk-%05d.json", idx)))
			if err != nil {
				return 0, err
			}
			ckptBytes += float64(fi.Size())
			ckptFiles++
		}
		for k := 0; k < replayReads; k++ {
			r.tr.do("dataset.concat", 0, r.nextReq(), func() { _, err = dataset.Concat(parts...) })
			if err != nil {
				return 0, err
			}
		}
	}
	points := jobSpec(seed, 0).Grid.Points(core.Config{})
	for _, p := range points[:replayEvalPoints] {
		var err error
		r.tr.do("sweep.eval_point", 0, r.nextReq(), func() { _, err = sweep.EvalPoint(p) })
		if err != nil {
			return 0, err
		}
	}
	if ckptFiles > 0 {
		r.out.counts["jobs.checkpoint_bytes_mean"] = ckptBytes / ckptFiles
	}
	r.out.counts["jobs.peer_served"] = float64(ring.Stats().Served)
	return ring.Stats().Errors, nil
}
