package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/engine"
	"nwdec/internal/jobs"
	"nwdec/internal/sweep"
)

// All inputs are pure functions of the workload seed: the nodes receive
// only the generated requests, and the in-process checks and the traced
// replay regenerate the same ones.

// op is one synchronous request: the URI the client sends and the
// engine request nwserve parses it into.
type op struct {
	Path string
	Req  engine.Request
}

// designLengths are the code lengths of the Fig. 7/8 design space; every
// family is structurally valid at each of them for base 2.
var designLengths = []int{4, 6, 8, 10}

// zipfS is the skew of the warm_hit key popularity.
const zipfS = 1.1

// warmStreamLen is the length of the precomputed warm_hit key sequence;
// a run that sends more requests wraps around it.
const warmStreamLen = 1 << 18

// warmKeys lists warm_hit's key set in a fixed order: the registry
// experiments, /v1/design over 5 families × 4 lengths, the default
// /v1/codes listing and the default /v1/sweep.
func warmKeys() []op {
	var ops []op
	for _, name := range engine.ExperimentNames() {
		ops = append(ops, op{
			Path: "/v1/experiment/" + name,
			Req:  engine.Request{Kind: engine.KindExperiment, Experiment: name},
		})
	}
	for _, tp := range code.AllTypes() {
		for _, m := range designLengths {
			ops = append(ops, op{
				Path: fmt.Sprintf("/v1/design?type=%s&length=%d", typeName(tp), m),
				Req:  engine.Request{Kind: engine.KindDesign, Config: core.Config{CodeType: tp, CodeLength: m}},
			})
		}
	}
	ops = append(ops,
		op{Path: "/v1/codes", Req: engine.Request{Kind: engine.KindCodes}},
		op{Path: "/v1/sweep", Req: engine.Request{Kind: engine.KindSweep}},
	)
	return ops
}

// warmStream draws the warm_hit request sequence as indices into
// warmKeys: Zipf(zipfS) ranks over one fixed permutation of the keys.
// The seed draws the sequence, not the hot set: with a hot set of its
// own per seed, the latency median followed whichever keys were hot and
// moved by ±10 % between seeds on an idle host.
func warmStream(seed uint64, n int) []int {
	nkeys := len(warmKeys())
	perm := rand.New(rand.NewPCG(0, 0x5741524d)).Perm(nkeys)
	rng := rand.New(rand.NewPCG(seed, 0x5741524d))
	z := rand.NewZipf(rng, zipfS, 1, uint64(nkeys-1))
	out := make([]int, n)
	for i := range out {
		out[i] = perm[z.Uint64()]
	}
	return out
}

// coldOp generates the i-th cold_fleet request. Every index gives a key
// no other index of the same seed gives: the Monte-Carlo seed carries i
// in its high half, and the σ of designs and sweeps is offset by i·1e-7 V
// with a seeded jitter below half that step.
func coldOp(seed uint64, i int) op {
	rng := rand.New(rand.NewPCG(seed, 0x434f4c44<<32|uint64(i)))
	tp := code.AllTypes()[rng.IntN(5)]
	m := designLengths[rng.IntN(len(designLengths))]
	sigma := 1e-7*float64(i) + 0.5e-7*rng.Float64()
	switch u := rng.Float64(); {
	case u < 0.70:
		trials := []int{2, 4, 8}[rng.IntN(3)]
		mcSeed := uint64(i)<<32 | uint64(rng.Uint32())
		return op{
			Path: fmt.Sprintf("/v1/montecarlo?type=%s&length=%d&trials=%d&seed=%d", typeName(tp), m, trials, mcSeed),
			Req: engine.Request{Kind: engine.KindMonteCarlo, Config: core.Config{CodeType: tp, CodeLength: m},
				Trials: trials, Seed: mcSeed},
		}
	case u < 0.85:
		sigma += 0.030
		return op{
			Path: fmt.Sprintf("/v1/design?type=%s&length=%d&sigma=%s", typeName(tp), m, fmtFloat(sigma)),
			Req:  engine.Request{Kind: engine.KindDesign, Config: core.Config{CodeType: tp, CodeLength: m, SigmaT: sigma}},
		}
	default:
		sigma += 0.045
		perm := rng.Perm(5)
		types := []code.Type{code.AllTypes()[perm[0]], code.AllTypes()[perm[1]]}
		lperm := rng.Perm(len(designLengths))
		lengths := []int{designLengths[lperm[0]], designLengths[lperm[1]]}
		return op{
			Path: fmt.Sprintf("/v1/sweep?types=%s,%s&lengths=%d,%d&sigmas=%s",
				typeName(types[0]), typeName(types[1]), lengths[0], lengths[1], fmtFloat(sigma)),
			Req: engine.Request{Kind: engine.KindSweep, Grid: sweep.Grid{Types: types, Lengths: lengths, SigmaTs: []float64{sigma}}},
		}
	}
}

// jobChunk is the replayed jobs' checkpoint granularity. It is one fixed
// value, so the job wall-time figures are not a mix of chunk sizes, from
// the 4–8 range where per-chunk overhead (a ring hop, a checkpoint and
// two lease writes) is a large share of a chunk. 8 rather than 4 halves
// the share of the job that waits on the filesystem, whose latency on a
// shared virtual machine swung by 30× between runs.
const jobChunk = 8

// jobSpec generates the j-th replayed grid job: 5 families × 4 lengths × 8
// σ × 4 margins × 3 cave populations = 1,920 points. The σ axis is fresh
// per job (offset by j·1e-6 V plus a seeded jitter below it), so every
// job has its own id and no job reuses another's checkpoints.
func jobSpec(seed uint64, j int) jobs.Spec {
	rng := rand.New(rand.NewPCG(seed, 0x4a4f42<<32|uint64(j)))
	sigmas := make([]float64, 8)
	for k := range sigmas {
		sigmas[k] = 0.030 + 0.004*float64(k) + 1e-6*float64(j) + 0.5e-6*rng.Float64()
	}
	return jobs.Spec{
		Grid: sweep.Grid{
			Types:         code.AllTypes(),
			Lengths:       designLengths,
			SigmaTs:       sigmas,
			MarginFactors: []float64{0.8, 0.9, 1.0, 1.1},
			HalfCaveWires: []int{16, 20, 24},
		},
		Chunk: jobChunk,
	}
}

// typeName renders a code family the way nwserve's type= query parses it.
func typeName(tp code.Type) string { return strings.ToLower(tp.String()) }

// fmtFloat renders a float that parses back to the same value.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
