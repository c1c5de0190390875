package lint

import (
	"go/ast"
	"go/types"
)

// AtomicField enforces atomicity coherence: a struct field that any
// code accesses through the sync/atomic package-level functions
// (atomic.AddInt64(&s.n, 1), atomic.LoadUint64(&s.bits), ...) must be
// accessed atomically at every site — one plain read or write next to
// atomic ones is a data race the race detector only catches when the
// schedule cooperates, and exactly the silent-invariant break the
// hot-path counters (obs metrics, engine BackendStats, cluster ring
// state) cannot afford.
//
// The rule checks the whole run: Prepare collects the atomically
// accessed fields and the atomic call sites of every analyzed package,
// and each pass flags plain accesses against that union. So a plain
// access is caught wherever the atomic one lives — in the defining
// package, an importer, or a sibling. Fields of the typed sync/atomic
// kinds (atomic.Int64 and friends) are safe by construction — the type
// system forbids plain access — which is why the repository's own
// counters use them; this rule exists to keep the legacy address-of
// style from ever mixing in.
var AtomicField = &Analyzer{
	Name:    "atomicfield",
	Doc:     "a struct field accessed via sync/atomic anywhere must be accessed atomically everywhere",
	Prepare: prepareAtomicField,
	Run:     runAtomicField,
}

// atomicAccesses is the whole-run union AtomicField checks against:
// the fields accessed through sync/atomic, and the selector nodes inside
// those atomic calls, which are the only sites allowed to touch them.
type atomicAccesses struct {
	fields map[types.Object]bool
	sites  map[*ast.SelectorExpr]bool
}

func prepareAtomicField(pkgs []*Package) any {
	acc := atomicAccesses{
		fields: make(map[types.Object]bool),
		sites:  make(map[*ast.SelectorExpr]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || recvOf(fn) != nil {
					return true
				}
				for _, arg := range call.Args {
					ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || ue.Op.String() != "&" {
						continue
					}
					sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if fld := fieldOf(pkg.Info, sel); fld != nil {
						acc.fields[fld] = true
						acc.sites[sel] = true
					}
				}
				return true
			})
		}
	}
	return acc
}

func runAtomicField(p *Pass) {
	acc := p.Prepared.(atomicAccesses)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || acc.sites[sel] {
				return true
			}
			if fld := fieldOf(p.Info, sel); fld != nil && acc.fields[fld] {
				p.Reportf(sel.Pos(), "field %s is accessed via sync/atomic elsewhere; this plain access races with it — use the atomic API here too (or migrate the field to a typed atomic)", fld.Name())
			}
			return true
		})
	}
}

// fieldOf resolves sel to the struct field it selects, or nil when the
// selector is a package qualifier, method, or non-field value.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) types.Object {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}
