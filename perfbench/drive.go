package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/par"
)

// Set-ups per run; setup_s is their median. A warm_hit set-up includes
// the warm-up pass (about a second); a fleet's is only process start,
// 10 to 40 ms, so it is repeated more often.
const (
	warmSetups  = 5
	fleetSetups = 21
)

// launches is how many of a run's set-ups are measured, the last ones,
// each serving an equal slice of the timed window. On an idle host the
// median latency of a single launch moved by ±10 % from run to run, so
// a run's figures are medians over parts drawn from several launches.
const launches = 5

// coldCheckSample is how many cold_fleet responses are recomputed in
// process after the timed window.
const coldCheckSample = 24

// passEnv is what every HTTP pass shares.
type passEnv struct {
	bin     string
	dir     string
	seed    uint64
	window  time.Duration
	conns   int
	metrics bool // start nodes with their -metrics snapshot
}

// passResult is what one HTTP pass measured.
type passResult struct {
	setupS      []float64 // set-up times of the repeated fleet launches
	reqMS       []float64 // every HTTP request of the timed window
	respBytes   []float64 // sizes of their bodies
	reqAt       []float64 // completion times of reqMS in seconds since the window opened
	reqOK       []bool    // whether each of reqMS succeeded
	attempted   int
	failed      int
	failures    []string
	rssMB       float64
	nodeFlags   map[string][]string // flags of the measured fleet's nodes
	cpuSec      float64             // client CPU time over the timed window
	nodeCPUSec  float64             // the nodes' CPU time over the timed window
	stolenTicks float64             // machine CPU ticks the host stole in the window
	allTicks    float64             // all machine CPU ticks in the window
	windowSec   float64
	// snapshot holds the nodes' -metrics counters summed over nodes and
	// measured launches (traced pass only).
	snapshot map[string]float64

	mu sync.Mutex
}

// fail records one failed operation.
func (p *passResult) fail(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	header http.Header
	body   []byte
	ms     float64
}

func send(ctx context.Context, c *http.Client, method, url string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{ms: msSince(t0)}, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: data, ms: msSince(t0)}, err
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// stealTicks returns the machine's total and stolen CPU ticks from
// /proc/stat: on a virtual machine, steal is time the host ran something
// else while this machine's CPUs wanted to run.
func stealTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// cpuTime returns this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLaunches launches the workload's fleet setups times, each through
// warm (which may be nil); each launch is one set-up sample. The last
// launches of them each serve an equal slice of the timed window in a
// closed loop, do sending operation i to the fleet; the others are
// stopped at once. res gets the window's samples, usage and the median
// peak RSS of the measured launches.
func runLaunches(ctx context.Context, env passEnv, client *http.Client, cfg fleetConfig, setups int, res *passResult,
	warm func(*fleet) error, do func(f *fleet, i int, s *samples)) error {
	var (
		s    samples
		next atomic.Int64
		rss  []float64
	)
	for rep := 0; rep < setups; rep++ {
		var loop func(*fleet) error
		if rep >= setups-launches {
			loop = func(f *fleet) error {
				s.t0 = time.Now()
				return closedLoop(ctx, env.conns, env.window/launches, &next, func(i int) { do(f, i, &s) })
			}
		}
		mb, err := launch(ctx, env, cfg, res, warm, loop)
		client.CloseIdleConnections()
		if err != nil {
			return err
		}
		if loop != nil {
			rss = append(rss, mb)
			s.offset = res.windowSec
		}
	}
	res.requestPass(&s)
	res.rssMB = median(rss)
	return nil
}

// launch starts one fleet and times its set-up: the start and warm. If
// loop is not nil, it then measures loop on the fleet and returns the
// fleet's peak RSS; with the nodes' -metrics on, it adds their snapshot
// to res.snapshot.
func launch(ctx context.Context, env passEnv, cfg fleetConfig, res *passResult, warm, loop func(*fleet) error) (float64, error) {
	t0 := time.Now()
	f, err := startFleet(ctx, env.bin, env.dir, cfg)
	if err != nil {
		return 0, err
	}
	defer f.stop()
	if warm != nil {
		if err := warm(f); err != nil {
			return 0, err
		}
	}
	res.setupS = append(res.setupS, time.Since(t0).Seconds())
	var rss float64
	if loop != nil {
		u, err := startUsage(f)
		if err != nil {
			return 0, err
		}
		if err := loop(f); err != nil {
			return 0, err
		}
		if err := u.stop(res, f); err != nil {
			return 0, err
		}
		if rss, err = f.peakRSSMB(); err != nil {
			return 0, err
		}
		res.nodeFlags = make(map[string][]string)
		for _, n := range f.nodes {
			res.nodeFlags[n.id] = n.flags
		}
	}
	f.stop()
	if loop != nil && env.metrics {
		if err := res.addSnapshot(f); err != nil {
			return 0, err
		}
	}
	return rss, f.remove()
}

// addSnapshot adds the stopped fleet's metrics snapshot counters,
// summed over its nodes, to res.snapshot.
func (p *passResult) addSnapshot(f *fleet) error {
	counters, err := f.snapshotSums("counter")
	if err != nil {
		return err
	}
	if p.snapshot == nil {
		p.snapshot = make(map[string]float64)
	}
	for name, v := range counters {
		p.snapshot[name] += v
	}
	return nil
}

// closedLoop runs conns workers on the par pool until the window has
// passed or ctx is done; each worker sends its next operation only after
// the previous one returned. Operation indices come from next, which a
// run's slices share, so the set of inputs sent is a prefix of the
// seeded sequence whatever the interleaving.
func closedLoop(ctx context.Context, conns int, window time.Duration, next *atomic.Int64, do func(i int)) error {
	deadline := time.Now().Add(window)
	return par.ForEachN(ctx, conns, conns, func(ctx context.Context, _ int) error {
		for ctx.Err() == nil && time.Now().Before(deadline) {
			do(int(next.Add(1) - 1))
		}
		return ctx.Err()
	})
}

// usage is the wall clock, the client's and the nodes' CPU time and the
// machine's steal at the start of a timed window.
type usage struct {
	t0           time.Time
	cpu          time.Duration
	nodeCPU      float64
	total, steal float64
}

func startUsage(f *fleet) (usage, error) {
	nodeCPU, err := f.cpuSeconds()
	if err != nil {
		return usage{}, err
	}
	total, steal := stealTicks()
	return usage{t0: time.Now(), cpu: cpuTime(), nodeCPU: nodeCPU, total: total, steal: steal}, nil
}

// stop adds the window's length, client and node CPU time and the
// machine's stolen and total ticks to res.
func (u usage) stop(res *passResult, f *fleet) error {
	res.windowSec += time.Since(u.t0).Seconds()
	res.cpuSec += (cpuTime() - u.cpu).Seconds()
	if total, steal := stealTicks(); total > u.total {
		res.stolenTicks += steal - u.steal
		res.allTicks += total - u.total
	}
	nodeCPU, err := f.cpuSeconds()
	res.nodeCPUSec += nodeCPU - u.nodeCPU
	return err
}

// samples collects per-request measurements from concurrent workers.
type samples struct {
	t0     time.Time // start of the current slice of the window
	offset float64   // seconds of the window measured before t0
	mu     sync.Mutex
	ms     []float64
	at     []float64 // completion time in seconds of the window, its slices joined
	ok     []bool
	bytes  []float64
}

func (s *samples) add(ms float64, n int, ok bool) {
	at := s.offset + time.Since(s.t0).Seconds()
	s.mu.Lock()
	s.ms = append(s.ms, ms)
	s.at = append(s.at, at)
	s.ok = append(s.ok, ok)
	s.bytes = append(s.bytes, float64(n))
	s.mu.Unlock()
}

// requestPass fills res from a closed-loop request window.
func (res *passResult) requestPass(s *samples) {
	res.reqMS = s.ms
	res.reqAt = s.at
	res.reqOK = s.ok
	res.respBytes = s.bytes
	res.attempted = len(s.ms)
}

// warmHitPass: one node, Zipf traffic over a pre-warmed key set. Every
// body must equal the bytes captured for its key at the first warm-up;
// every later warm-up must capture the same bytes, and they must equal
// Engine.Do + Render(FormatJSON) in process.
func warmHitPass(ctx context.Context, env passEnv) (*passResult, error) {
	res := &passResult{}
	keys := warmKeys()
	client := newClient(env.conns)
	stream := warmStream(env.seed, warmStreamLen)
	var warm [][]byte
	err := runLaunches(ctx, env, client, fleetConfig{IDs: []string{"a"}, Metrics: env.metrics}, warmSetups, res, func(f *fleet) error {
		bodies := make([][]byte, len(keys))
		for i, k := range keys {
			r, err := send(ctx, client, http.MethodGet, f.nodes[0].url+k.Path, nil)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", k.Path, err)
			}
			if r.status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d: %s", k.Path, r.status, r.body)
			}
			if warm != nil && !bytes.Equal(r.body, warm[i]) {
				res.fail("warm-up %s: body differs from the first launch's", k.Path)
			}
			bodies[i] = r.body
		}
		if warm == nil {
			warm = bodies
		}
		return nil
	}, func(f *fleet, i int, s *samples) {
		k := stream[i%len(stream)]
		r, err := send(ctx, client, http.MethodGet, f.nodes[0].url+keys[k].Path, nil)
		ok := false
		switch {
		case err != nil:
			res.fail("GET %s: %v", keys[k].Path, err)
		case r.status != http.StatusOK:
			res.fail("GET %s: status %d", keys[k].Path, r.status)
		case r.header.Get("X-Cache") != "hit":
			res.fail("GET %s: X-Cache %q, want hit", keys[k].Path, r.header.Get("X-Cache"))
		case !bytes.Equal(r.body, warm[k]):
			res.fail("GET %s: body differs from the warm-up bytes", keys[k].Path)
		default:
			ok = true
		}
		s.add(r.ms, len(r.body), ok)
	})
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Options{})
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		want, err := renderDo(ctx, eng, k.Req)
		if err != nil {
			return nil, fmt.Errorf("in-process %s: %w", k.Path, err)
		}
		if !bytes.Equal(want, warm[i]) {
			res.fail("warm-up bytes of %s differ from Engine.Do + Render in process", k.Path)
		}
	}
	return res, nil
}

// renderDo serves the request in process and renders it the way nwserve
// does.
func renderDo(ctx context.Context, eng *engine.Engine, req engine.Request) ([]byte, error) {
	resp, err := eng.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := resp.Dataset.Render(&buf, dataset.FormatJSON); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// coldFleetPass: two peered nodes, every key unique, all requests to a.
// X-Cache must be miss or miss-peer, some must be miss-peer, and a
// seeded sample of bodies must match an in-process recomputation.
func coldFleetPass(ctx context.Context, env passEnv) (*passResult, error) {
	res := &passResult{}
	client := newClient(env.conns)
	var (
		missPeer atomic.Int64
		mu       sync.Mutex
		digests  = make(map[int][32]byte)
	)
	err := runLaunches(ctx, env, client, fleetConfig{IDs: []string{"a", "b"}, Metrics: env.metrics}, fleetSetups, res, nil, func(f *fleet, i int, s *samples) {
		o := coldOp(env.seed, i)
		r, err := send(ctx, client, http.MethodGet, f.nodes[0].url+o.Path, nil)
		ok := false
		switch cache := r.header.Get("X-Cache"); {
		case err != nil:
			res.fail("GET %s: %v", o.Path, err)
		case r.status != http.StatusOK:
			res.fail("GET %s: status %d: %s", o.Path, r.status, r.body)
		case cache != "miss" && cache != "miss-peer":
			res.fail("GET %s: X-Cache %q, want miss or miss-peer", o.Path, cache)
		default:
			ok = true
			if cache == "miss-peer" {
				missPeer.Add(1)
			}
			mu.Lock()
			digests[i] = sha256.Sum256(r.body)
			mu.Unlock()
		}
		s.add(r.ms, len(r.body), ok)
	})
	if err != nil {
		return nil, err
	}
	if missPeer.Load() == 0 {
		res.fail("no response crossed the peer hop (no X-Cache miss-peer)")
	}
	idx := make([]int, 0, len(digests))
	for i := range digests {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	rng := rand.New(rand.NewPCG(env.seed, 0x434845434b))
	rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	eng, err := engine.New(engine.Options{})
	if err != nil {
		return nil, err
	}
	for _, i := range idx[:min(coldCheckSample, len(idx))] {
		o := coldOp(env.seed, i)
		want, err := renderDo(ctx, eng, o.Req)
		if err != nil {
			return nil, fmt.Errorf("in-process %s: %w", o.Path, err)
		}
		if sha256.Sum256(want) != digests[i] {
			res.fail("GET %s: body differs from the in-process recomputation", o.Path)
		}
	}
	return res, nil
}
