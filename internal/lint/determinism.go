package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces the bit-determinism invariant of the pipeline
// packages: results must be identical run-to-run and at every worker
// count, so nothing in them may read the wall clock, draw from the
// shared global math/rand source, or let map-iteration order reach an
// output sequence.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no wall clock, global math/rand, or map-iteration order feeding output in deterministic packages",
	Run:  runDeterminism,
}

// randConstructors are the package-level math/rand functions that build
// explicitly seeded sources instead of drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(p *Pass) {
	if !p.Cfg.Deterministic(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if recvOf(fn) != nil {
				return true // method calls (e.g. *rand.Rand, time.Time) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					p.Reportf(call.Pos(), "time.%s reads the wall clock and breaks bit-determinism; pass explicit times or measure outside the deterministic packages", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !randConstructors[fn.Name()] {
					p.Reportf(call.Pos(), "global %s.%s draws from a shared nondeterministic source; use stats.RNG jump substreams instead", fn.Pkg().Name(), fn.Name())
				}
			}
			return true
		})
		checkMapRangeOrdering(p, f)
	}
}

// recvOf returns fn's receiver, or nil for package-level functions.
func recvOf(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

// calleeFunc resolves the called function of a call expression, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// checkMapRangeOrdering flags range-over-map loops whose body feeds an
// ordered output: appending to a slice declared outside the loop (unless
// that slice is sorted later in the same function) or writing directly
// to an output sink. Pure aggregations (sums, counts, building another
// map) are inherently order-independent and pass.
func checkMapRangeOrdering(p *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		sorted := sortedObjects(p, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.AssignStmt:
					obj := appendTarget(p, m)
					if obj != nil && !within(rng, obj.Pos()) && !sorted[obj] {
						p.Reportf(m.Pos(), "append inside range over map feeds output ordering from nondeterministic iteration; collect and sort keys first (or sort %s afterwards)", obj.Name())
					}
				case *ast.CallExpr:
					if isOutputCall(p, m) {
						p.Reportf(m.Pos(), "output written inside range over map inherits nondeterministic iteration order; iterate a sorted key slice instead")
					}
				}
				return true
			})
			return true
		})
	}
}

// appendTarget returns the assigned object of an `x = append(x, ...)`
// statement, or nil.
func appendTarget(p *Pass, as *ast.AssignStmt) types.Object {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return p.Info.ObjectOf(lhs)
}

// within reports whether pos falls inside node's source span.
func within(n ast.Node, pos token.Pos) bool {
	return pos >= n.Pos() && pos <= n.End()
}

// sortedObjects collects the objects passed as first argument to a
// sort.* or slices.Sort* call anywhere in the body: appends feeding
// those slices are order-safe because the sort erases insertion order.
func sortedObjects(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		if !strings.HasPrefix(fn.Name(), "Sort") && !isSortHelper(fn.Name()) {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := p.Info.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// isSortHelper matches the sort package's slice-ordering helpers that do
// not start with "Sort" (sort.Ints, sort.Strings, ...).
func isSortHelper(name string) bool {
	switch name {
	case "Ints", "Float64s", "Strings", "Slice", "SliceStable", "Stable":
		return true
	}
	return false
}

// isOutputCall reports whether call writes to an ordered output sink:
// an fmt print/fprint, or a Write*/AddRow* method.
func isOutputCall(p *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	if recvOf(fn) != nil {
		switch {
		case strings.HasPrefix(fn.Name(), "Write"), strings.HasPrefix(fn.Name(), "AddRow"):
			return true
		}
	}
	return false
}
