package lint

import "sort"

// Run applies the analyzers to every package, one package after another,
// and returns the surviving diagnostics sorted by (file, line, column,
// rule, message), so the stream does not depend on package order. Each
// analyzer's Prepare, when set, runs once over the whole package set
// before any pass, and its result is handed to every pass of that
// analyzer as Pass.Prepared.
//
// Suppression directives (//nwlint:ignore rule reason) are honored per
// package; malformed directives are reported under the pseudo-rule
// "ignore", and well-formed directives that no longer suppress any
// diagnostic of the rules that ran are reported as stale, with a
// suggested fix that deletes them.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	prepared := make([]any, len(analyzers))
	for i, a := range analyzers {
		if a.Prepare != nil {
			prepared[i] = a.Prepare(pkgs)
		}
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		var own []Diagnostic
		pass := &Pass{
			Fset:  pkg.Fset,
			Path:  pkg.Path,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
			Files: pkg.Files,
			Cfg:   cfg,
			diags: &own,
		}
		for i, a := range analyzers {
			pass.rule = a.Name
			pass.Prepared = prepared[i]
			a.Run(pass)
		}
		diags = append(diags, suppress(pkg, own, ran)...)
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return diags
}
