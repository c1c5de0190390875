package engine

// White-box tests of the shared JSON form (Response.JSON): every path a
// cached result leaves the engine by — the computing caller, a cache
// hit, a joined flight follower — yields the same bytes as a fresh
// engine's Dataset.JSON(), rendered once and shared read-only.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"nwdec/internal/core"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
)

// gateBackend holds every request at its entry until release closes,
// then delegates, so a test can park a flight leader inside the chain
// while followers join.
type gateBackend struct {
	next    Backend
	entered chan struct{}
	release chan struct{}
	stats   layerStats
}

func (g *gateBackend) Stats() BackendStats { return g.stats.Stats() }

func (g *gateBackend) Handle(ctx context.Context, req Request) (*Response, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.next.Handle(ctx, req)
}

// freshJSON is the reference bytes: Dataset.JSON() of the request's
// result from a newly built engine.
func freshJSON(t *testing.T, req Request) []byte {
	t.Helper()
	eng, err := New(Options{})
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

// leadAndJoin parks a leader for req inside b's flight at gate, lets one
// follower join it, then lands the flight and returns both responses.
func leadAndJoin(t *testing.T, b *cacheBackend, gate *gateBackend, req Request) (leader, follower *Response) {
	t.Helper()
	reg := obs.New(nil)
	ctx := obs.Into(context.Background(), reg)
	var leadErr, followErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		leader, leadErr = b.Handle(ctx, req)
	}()
	<-gate.entered
	go func() {
		defer wg.Done()
		follower, followErr = b.Handle(ctx, req)
	}()
	awaitJoined(reg, 1)
	close(gate.release)
	wg.Wait()
	if leadErr != nil || followErr != nil {
		t.Fatalf("leader: %v, follower: %v", leadErr, followErr)
	}
	if leader.CacheHit || !follower.CacheHit {
		t.Fatalf("CacheHit leader/follower = %v/%v, want false/true", leader.CacheHit, follower.CacheHit)
	}
	return leader, follower
}

// newGate returns a gate over a fresh compute layer.
func newGate() *gateBackend {
	return &gateBackend{next: newComputeBackend(), entered: make(chan struct{}, 1), release: make(chan struct{})}
}

// sameJSON checks that every response's JSON equals want and that all
// of them are one shared slice.
func sameJSON(t *testing.T, want []byte, resps map[string]*Response) {
	t.Helper()
	var first []byte
	for name, resp := range resps {
		raw, err := resp.JSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%s body differs from a fresh engine's:\n%s\nvs\n%s", name, raw, want)
		}
		if first == nil {
			first = raw
		} else if &raw[0] != &first[0] {
			t.Errorf("%s body is a separate rendering, want the shared bytes", name)
		}
	}
}

// TestJSONSharedAcrossPaths: for one request of every cacheable kind,
// the leader's (miss), a joined follower's and a later hit's JSON all
// equal a fresh engine's Dataset.JSON() — and are one shared slice.
func TestJSONSharedAcrossPaths(t *testing.T) {
	for _, g := range wireGolden {
		t.Run(string(g.req.Kind), func(t *testing.T) {
			want := freshJSON(t, g.req)
			gate := newGate()
			b := newCacheBackend(DefaultMaxEntries, DefaultMaxCost, gate)
			leader, follower := leadAndJoin(t, b, gate, g.req)
			hit, err := b.Handle(context.Background(), g.req)
			if err != nil {
				t.Fatal(err)
			}
			if !hit.CacheHit {
				t.Fatal("repeat after the flight landed missed the cache")
			}
			sameJSON(t, want, map[string]*Response{"miss": leader, "follower": follower, "hit": hit})
		})
	}
}

// TestJSONSharedOverCost: a result whose cost alone exceeds the cost cap
// is not stored, yet its flight still shares it: one compute, and the
// follower reads the leader's rendering.
func TestJSONSharedOverCost(t *testing.T) {
	// A one-word codes dataset costs 1 + 1 row × 3 columns = 4 units.
	req := Request{Kind: KindCodes, Count: 1}
	want := freshJSON(t, req)
	gate := newGate()
	compute := gate.next.(*computeBackend)
	b := newCacheBackend(DefaultMaxEntries, 3, gate)
	leader, follower := leadAndJoin(t, b, gate, req)
	if got := compute.Stats().Requests; got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	if got := b.len(); got != 0 {
		t.Errorf("over-cost result was stored (%d entries)", got)
	}
	sameJSON(t, want, map[string]*Response{"miss": leader, "follower": follower})
}

// TestJSONConcurrentFirstUse: goroutines racing to read the JSON of a
// newly cached entry, each through its own cache hit, all receive the
// one shared rendering (run under -race in CI).
func TestJSONConcurrentFirstUse(t *testing.T) {
	eng, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: KindCodes, Count: 16}
	ctx := context.Background()
	if _, err := eng.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	const n = 8
	raws := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := eng.Do(ctx, req)
			if err != nil {
				errs[i] = err
				return
			}
			raws[i], errs[i] = resp.JSON()
		}(i)
	}
	wg.Wait()
	want := freshJSON(t, req)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !bytes.Equal(raws[i], want) {
			t.Errorf("goroutine %d: bytes differ from a fresh engine's", i)
		}
		if &raws[i][0] != &raws[0][0] {
			t.Errorf("goroutine %d received a separate rendering", i)
		}
	}
}

// TestJSONUnrepresentableIsInvalid: a design whose yield underflows to
// zero has an infinite effective bit area, which JSON cannot carry. The
// encode failure is the request's, so it classifies Invalid — on the
// computing call and, from the memo, on every hit.
func TestJSONUnrepresentableIsInvalid(t *testing.T) {
	eng, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: KindDesign, Config: core.Config{SigmaT: 1e100}}
	for i := 0; i < 2; i++ {
		resp, err := eng.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resp.JSON(); !errors.Is(err, nwerr.ErrInvalid) {
			t.Errorf("call %d: JSON error = %v, want Invalid-class", i, err)
		}
	}
}

// TestJSONUncached: a response that never passed the cache layer renders
// its own dataset, and one without a dataset (fabrication) is an
// Internal-class error rather than a body.
func TestJSONUncached(t *testing.T) {
	eng, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Do(context.Background(), Request{Kind: KindFabricate, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resp.JSON(); !errors.Is(err, nwerr.ErrInternal) {
		t.Errorf("fabricate JSON error = %v, want Internal-class", err)
	}
	req := Request{Kind: KindCodes, Count: 4}
	want := freshJSON(t, req)
	resp, err = computeKind(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if raw, err := resp.JSON(); err != nil || !bytes.Equal(raw, want) {
		t.Errorf("uncached JSON = %q, %v; want the dataset's bytes", raw, err)
	}
}

// TestPeerResponseJSON: a peer-served response's JSON is the owner's body
// itself, not a re-rendering of the parsed dataset.
func TestPeerResponseJSON(t *testing.T) {
	req := Request{Kind: KindCodes, Count: 4}
	raw := freshJSON(t, req)
	resp := PeerResponse(nil, raw, true, req.Key())
	got, err := resp.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &raw[0] {
		t.Error("peer response re-rendered instead of passing the body through")
	}
	if !resp.Peer || !resp.CacheHit || resp.Key != req.Key() {
		t.Errorf("peer response = %+v", resp)
	}
}
