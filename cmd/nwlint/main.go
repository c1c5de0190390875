// Command nwlint runs the project's static analyzers over the module
// and reports every violation of the determinism, cancellation,
// concurrency-containment, error-discipline, output-discipline,
// scratch-confinement, atomic-coherence and layering invariants (see
// internal/lint).
//
// Usage:
//
//	nwlint [flags] [./... | package directories]
//
// With no arguments (or "./...") every package of the module is
// checked in one run, and the diagnostics print sorted by position.
// -rules picks a subset of the rules; a list that names no rule is a
// usage error. Diagnostics that carry a suggested fix can be applied in
// place with -fix or previewed as unified diffs with -diff (a dry run
// that never writes).
//
// Exit codes follow the internal/cli convention: 0 when the tree is
// clean (with -fix: when every diagnostic was fixed), 1 when
// diagnostics were found or the analysis failed, 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nwdec/internal/cli"
	"nwdec/internal/dataset"
	"nwdec/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a structured JSON dataset")
	rules := flag.String("rules", "", "comma-separated rule subset to run (default: all)")
	list := flag.Bool("list", false, "list the available rules and exit")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source tree")
	diff := flag.Bool("diff", false, "preview suggested fixes as diffs without writing (dry run)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "nwlint: %v\n", err)
		os.Exit(cli.ExitError)
	}
	usage := func(err error) {
		fmt.Fprintf(os.Stderr, "nwlint: %v\n", err)
		os.Exit(cli.ExitUsage)
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		os.Exit(cli.ExitOK)
	}
	if *fix && *jsonOut {
		usage(fmt.Errorf("-fix and -json are mutually exclusive"))
	}

	analyzers := lint.All()
	if *rules != "" {
		var err error
		analyzers, err = lint.ByName(*rules)
		if err != nil {
			usage(err)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fail(err)
	}

	paths, err := targetPaths(loader, flag.Args())
	if err != nil {
		usage(err)
	}

	pkgs := make([]*lint.Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fail(err)
		}
		pkgs = append(pkgs, pkg)
	}

	diags := lint.Run(pkgs, analyzers, lint.DefaultConfig(loader.Module))

	fixed := 0
	if *fix || *diff {
		files, err := lint.ApplyFixes(loader.Fset, diags)
		if err != nil {
			fail(err)
		}
		for _, f := range files {
			if *diff {
				fmt.Print(f.Diff())
			}
			if *fix && !*diff {
				if err := os.WriteFile(f.Path, f.New, 0o644); err != nil {
					fail(err)
				}
				rel := f.Path
				if r, err := filepath.Rel(cwd, f.Path); err == nil && !strings.HasPrefix(r, "..") {
					rel = r
				}
				fmt.Fprintf(os.Stderr, "nwlint: fixed %d issue(s) in %s\n", f.Applied, rel)
			}
			fixed += f.Applied
		}
	}

	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].Position.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Position.Filename = rel
		}
	}

	if *jsonOut {
		if err := lint.Dataset(diags).Render(os.Stdout, dataset.FormatJSON); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "nwlint: %d diagnostic(s)\n", len(diags))
		}
		// A -fix run that repaired everything leaves a clean tree: exit 0
		// so scripted fix loops terminate.
		if *fix && !*diff && fixed >= len(diags) {
			os.Exit(cli.ExitOK)
		}
		os.Exit(cli.ExitError)
	}
}

// targetPaths expands the command arguments into module import paths:
// no arguments or "./..." selects every module package; anything else
// is a package directory relative to the working directory.
func targetPaths(loader *lint.Loader, args []string) ([]string, error) {
	if len(args) == 0 {
		return loader.ModulePackages()
	}
	var out []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			all, err := loader.ModulePackages()
			if err != nil {
				return nil, err
			}
			out = append(out, all...)
			continue
		}
		abs, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(loader.Root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("package %q is outside module %s", arg, loader.Module)
		}
		if rel == "." {
			out = append(out, loader.Module)
		} else {
			out = append(out, loader.Module+"/"+filepath.ToSlash(rel))
		}
	}
	return out, nil
}
