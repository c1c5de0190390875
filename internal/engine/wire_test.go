package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/nwerr"
	"nwdec/internal/physics"
	"nwdec/internal/sweep"
)

// wireGolden pins the peer protocol's bytes and content addresses: one
// request per wireable kind with its MarshalWire output and Key(). A
// change to either forks content addresses between nodes running
// different builds.
var wireGolden = []struct {
	req  Request
	wire string
	key  string
}{
	{
		Request{Kind: KindDesign, Config: core.Config{CodeType: code.TypeHot, CodeLength: 6, SigmaT: 0.04}},
		`{"kind":"design","config":{"CodeType":3,"Base":0,"CodeLength":6,"Spec":{"LithoPitch":0,"NanowirePitch":0,"MinContactFactor":0,"BoundaryLossWires":0,"RawBits":0,"HalfCaveWires":0},"SigmaT":0.04,"VMin":0,"VMax":0,"MarginFactor":0,"Model":null,"DoseUnit":0},"grid":{"Types":null,"Lengths":null,"SigmaTs":null,"MarginFactors":null,"HalfCaveWires":null},"objective":0}`,
		"design/ae14a31f70b8ccd9",
	},
	{
		Request{Kind: KindOptimize, Objective: core.MaxYield, Types: []code.Type{code.TypeGray, code.TypeArrangedHot}, Lengths: []int{6, 8}, Workers: 3},
		`{"kind":"optimize","config":{"CodeType":0,"Base":0,"CodeLength":0,"Spec":{"LithoPitch":0,"NanowirePitch":0,"MinContactFactor":0,"BoundaryLossWires":0,"RawBits":0,"HalfCaveWires":0},"SigmaT":0,"VMin":0,"VMax":0,"MarginFactor":0,"Model":null,"DoseUnit":0},"grid":{"Types":null,"Lengths":null,"SigmaTs":null,"MarginFactors":null,"HalfCaveWires":null},"objective":1,"types":[1,4],"lengths":[6,8]}`,
		"optimize/15f5d8b0ddab5420",
	},
	{
		Request{Kind: KindMonteCarlo, Config: core.Config{Base: 3, MarginFactor: 1.25}, Seed: 7, Trials: 40},
		`{"kind":"montecarlo","config":{"CodeType":0,"Base":3,"CodeLength":0,"Spec":{"LithoPitch":0,"NanowirePitch":0,"MinContactFactor":0,"BoundaryLossWires":0,"RawBits":0,"HalfCaveWires":0},"SigmaT":0,"VMin":0,"VMax":0,"MarginFactor":1.25,"Model":null,"DoseUnit":0},"grid":{"Types":null,"Lengths":null,"SigmaTs":null,"MarginFactors":null,"HalfCaveWires":null},"objective":0,"seed":7,"trials":40}`,
		"montecarlo/35c399f4bc70c945",
	},
	{
		Request{Kind: KindExperiment, Experiment: "fig7", Seed: 11, Trials: 5},
		`{"kind":"experiment","config":{"CodeType":0,"Base":0,"CodeLength":0,"Spec":{"LithoPitch":0,"NanowirePitch":0,"MinContactFactor":0,"BoundaryLossWires":0,"RawBits":0,"HalfCaveWires":0},"SigmaT":0,"VMin":0,"VMax":0,"MarginFactor":0,"Model":null,"DoseUnit":0},"experiment":"fig7","grid":{"Types":null,"Lengths":null,"SigmaTs":null,"MarginFactors":null,"HalfCaveWires":null},"objective":0,"seed":11,"trials":5}`,
		"experiment/8de1bf78088fa61b",
	},
	{
		Request{Kind: KindSweep, Config: core.Config{VMin: 0.1, VMax: 0.9, DoseUnit: 1e17}, Grid: sweep.Grid{Lengths: []int{4, 6}, SigmaTs: []float64{0.05}, HalfCaveWires: []int{20}}},
		`{"kind":"sweep","config":{"CodeType":0,"Base":0,"CodeLength":0,"Spec":{"LithoPitch":0,"NanowirePitch":0,"MinContactFactor":0,"BoundaryLossWires":0,"RawBits":0,"HalfCaveWires":0},"SigmaT":0,"VMin":0.1,"VMax":0.9,"MarginFactor":0,"Model":null,"DoseUnit":100000000000000000},"grid":{"Types":null,"Lengths":[4,6],"SigmaTs":[0.05],"MarginFactors":null,"HalfCaveWires":[20]},"objective":0}`,
		"sweep/a23ca7857685a89b",
	},
	{
		Request{Kind: KindCodes, Config: core.Config{CodeType: code.TypeBalancedGray, CodeLength: 8}, Count: 12},
		`{"kind":"codes","config":{"CodeType":2,"Base":0,"CodeLength":8,"Spec":{"LithoPitch":0,"NanowirePitch":0,"MinContactFactor":0,"BoundaryLossWires":0,"RawBits":0,"HalfCaveWires":0},"SigmaT":0,"VMin":0,"VMax":0,"MarginFactor":0,"Model":null,"DoseUnit":0},"grid":{"Types":null,"Lengths":null,"SigmaTs":null,"MarginFactors":null,"HalfCaveWires":null},"objective":0,"count":12}`,
		"codes/e18ac31ae38a0bd7",
	},
}

// TestWireGolden pins MarshalWire's bytes and Key() for one request of
// every wireable kind, and that the bytes decode back to the same key.
func TestWireGolden(t *testing.T) {
	for _, g := range wireGolden {
		data, err := g.req.MarshalWire()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != g.wire {
			t.Errorf("%s: MarshalWire =\n%s\nwant\n%s", g.req.Kind, data, g.wire)
		}
		if got := g.req.Key(); got != g.key {
			t.Errorf("%s: Key() = %s, want %s", g.req.Kind, got, g.key)
		}
		back, err := UnmarshalWire(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := back.Key(); got != g.key {
			t.Errorf("%s: decoded Key() = %s, want %s", g.req.Kind, got, g.key)
		}
	}
}

// nonZero returns a value of type typ that differs from typ's zero value
// in every settable leaf: strings become "x", numbers 1, slices one
// non-zero element, structs every field non-zero. Interfaces stay nil —
// the one Request leaf that cannot cross the wire (Config.Model) is
// gated by Wireable instead.
func nonZero(typ reflect.Type) reflect.Value {
	v := reflect.New(typ).Elem()
	switch typ.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.Slice:
		v.Set(reflect.Append(v, nonZero(typ.Elem())))
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				v.Field(i).Set(nonZero(typ.Field(i).Type))
			}
		}
	}
	return v
}

// TestRequestWireFields reflects over every exported field of Request:
// each identity field must survive MarshalWire→UnmarshalWire and change
// Key(), and Workers — the one execution detail — must do neither. A
// field added to Request without a wire tag or without a place in Key()
// fails here.
func TestRequestWireFields(t *testing.T) {
	base := Request{Kind: KindDesign}
	baseWire, err := base.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		req := base
		reflect.ValueOf(&req).Elem().Field(i).Set(nonZero(f.Type))
		data, err := req.MarshalWire()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		back, err := UnmarshalWire(data)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		survived := reflect.DeepEqual(reflect.ValueOf(back).Field(i).Interface(), reflect.ValueOf(req).Field(i).Interface())
		keyed := req.Key() != base.Key()
		if f.Name == "Workers" {
			if survived || keyed || !bytes.Equal(data, baseWire) {
				t.Errorf("Workers crossed the wire (%v) or changed Key() (%v)", survived, keyed)
			}
			continue
		}
		if !survived {
			t.Errorf("identity field %s lost in the wire round trip", f.Name)
		}
		if !keyed {
			t.Errorf("identity field %s does not change Key()", f.Name)
		}
	}
}

// TestChunkWireRoundTrip pins the chunk protocol's interchange form: the
// identity fields survive the round trip exactly (both ends re-derive
// the same point partition from them), a config carrying an in-process
// threshold model is rejected as non-wireable, and bytes that are not
// the wire form at all are Invalid-class.
func TestChunkWireRoundTrip(t *testing.T) {
	req := ChunkRequest{
		Config: core.Config{SigmaT: 0.05, MarginFactor: 1.25},
		Grid: sweep.Grid{
			Lengths: []int{4, 6},
			SigmaTs: []float64{0.04, 0.05},
		},
		Chunk: 3,
		Index: 2,
	}
	data, err := req.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalChunkWire(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Chunk != req.Chunk || got.Index != req.Index {
		t.Errorf("round trip changed partition identity: got chunk=%d index=%d", got.Chunk, got.Index)
	}
	if len(got.Grid.Lengths) != 2 || got.Grid.Lengths[0] != 4 ||
		len(got.Grid.SigmaTs) != 2 || got.Grid.SigmaTs[1] != 0.05 {
		t.Errorf("round trip changed grid: %+v", got.Grid)
	}
	if got.Config.SigmaT != req.Config.SigmaT || got.Config.MarginFactor != req.Config.MarginFactor {
		t.Errorf("round trip changed config: %+v", got.Config)
	}

	modeled := req
	modeled.Config.Model = physics.DefaultPhysicalModel()
	if _, err := modeled.MarshalWire(); !nwerr.IsInvalid(err) {
		t.Errorf("MarshalWire with custom model = %v, want Invalid-class", err)
	}
	if _, err := UnmarshalChunkWire([]byte("{nope")); !nwerr.IsInvalid(err) {
		t.Errorf("UnmarshalChunkWire(garbage) = %v, want Invalid-class", err)
	}
}

// checkWireFixedPoint holds a wire decoder to the fuzz invariant: data
// is rejected Invalid-class, or its re-encoding is a fixed point
// (encode→decode→encode gives equal bytes) that keeps the identity.
func checkWireFixedPoint[T any](t *testing.T, data []byte, decode func([]byte) (T, error), encode func(T) ([]byte, error), identity func(T) string) {
	t.Helper()
	v, err := decode(data)
	if err != nil {
		if !nwerr.IsInvalid(err) {
			t.Fatalf("decode error %v is not Invalid-class", err)
		}
		return
	}
	first, err := encode(v)
	if err != nil {
		if !nwerr.IsInvalid(err) {
			t.Fatalf("encode error %v is not Invalid-class", err)
		}
		return
	}
	back, err := decode(first)
	if err != nil {
		t.Fatalf("re-decoding %s: %v", first, err)
	}
	second, err := encode(back)
	if err != nil {
		t.Fatalf("re-encoding %s: %v", first, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", first, second)
	}
	if identity(v) != identity(back) {
		t.Fatalf("identity changed across the wire: %s -> %s", identity(v), identity(back))
	}
}

// FuzzUnmarshalWire holds the request decoder to the wire invariant;
// a request's identity is its Key().
func FuzzUnmarshalWire(f *testing.F) {
	for _, g := range wireGolden {
		f.Add([]byte(g.wire))
	}
	f.Add([]byte(`{"kind":"fabricate"}`))
	f.Add([]byte(`{"kind":"design","config":{"Model":{}}}`))
	f.Add([]byte(`{"types":[],"lengths":[-1],"seed":18446744073709551615}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWireFixedPoint(t, data, UnmarshalWire, Request.MarshalWire, Request.Key)
	})
}

// FuzzUnmarshalChunkWire holds the chunk decoder to the same invariant.
// A chunk's identity is the job key — the sweep request over its config
// and grid — plus its partition.
func FuzzUnmarshalChunkWire(f *testing.F) {
	f.Add([]byte(`{"config":{"SigmaT":0.05},"grid":{"Lengths":[4,6]},"chunk":3,"index":2}`))
	f.Add([]byte(`{"config":{"Model":{}},"chunk":-1}`))
	f.Add([]byte(`{"grid":{"SigmaTs":[1e308,-0]},"index":9007199254740993}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWireFixedPoint(t, data, UnmarshalChunkWire, ChunkRequest.MarshalWire, func(r ChunkRequest) string {
			return fmt.Sprintf("%s chunk=%d index=%d", Request{Kind: KindSweep, Config: r.Config, Grid: r.Grid}.Key(), r.Chunk, r.Index)
		})
	})
}
