package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// PrintBound enforces output discipline: direct stdout writes
// (fmt.Print*, os.Stdout, the print builtins) are confined to the
// command layer (any package main), internal/cli, internal/report and
// the renderers. Library packages return data — datasets, strings,
// errors — and the edge decides how to present it.
var PrintBound = &Analyzer{
	Name: "printbound",
	Doc:  "direct stdout output only in cmd/*, internal/cli, internal/report and renderers",
	Run:  runPrintBound,
}

func runPrintBound(p *Pass) {
	if p.Pkg.Name() == "main" || p.Cfg.PrintAllowed(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(p.Info, n)
				if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
					strings.HasPrefix(fn.Name(), "Print") {
					p.Reportf(n.Pos(), "fmt.%s writes to stdout from a library package; return data or write through an injected io.Writer", fn.Name())
				}
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, ok := p.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "print" || b.Name() == "println") {
						p.Reportf(n.Pos(), "builtin %s writes to stderr from a library package; return data instead", b.Name())
					}
				}
			case *ast.SelectorExpr:
				if n.Sel.Name != "Stdout" {
					return true
				}
				if id, ok := n.X.(*ast.Ident); ok {
					if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "os" {
						p.Reportf(n.Pos(), "os.Stdout referenced from a library package; accept an io.Writer instead")
					}
				}
			}
			return true
		})
	}
}
