package lint_test

import (
	"path/filepath"
	"slices"
	"testing"

	"nwdec/internal/lint"
)

// loadFixture loads one testdata fixture under the given import path
// with a fresh loader (fixtures that import real module packages must
// not share a loader with fixtures loaded under those packages' paths).
func loadFixture(t *testing.T, loader *lint.Loader, fixture, asPath string) *lint.Package {
	t.Helper()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", fixture), asPath)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestScratchConfine drives the scratch-confinement rule over a fixture
// calling the real internal/par entry points: every escape shape is
// flagged, the arena-view / element-read / per-item-result patterns are
// not.
func TestScratchConfine(t *testing.T) {
	loader := newTestLoader(t)
	pkg := loadFixture(t, loader, "scratchconfine", "nwdec/internal/yield")
	analyzers, err := lint.ByName("scratchconfine")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run([]*lint.Package{pkg}, analyzers, lint.DefaultConfig(loader.Module))
	matchDiagnostics(t, diags, wants(t, pkg))
}

// TestLayering drives the layering rule over a fixture analyzed under
// the internal/obs path that imports both a denied package and a
// restricted renderer.
func TestLayering(t *testing.T) {
	loader := newTestLoader(t)
	pkg := loadFixture(t, loader, "layering", "nwdec/internal/obs")
	analyzers, err := lint.ByName("layering")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run([]*lint.Package{pkg}, analyzers, lint.DefaultConfig(loader.Module))
	matchDiagnostics(t, diags, wants(t, pkg))
}

// render formats a diagnostic stream one line per diagnostic.
func render(diags []lint.Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.String()
	}
	return out
}

// sameStream fails the test unless two rendered streams are identical.
func sameStream(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d diagnostics, want %d:\n%v\nvs\n%v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// reversed returns a reversed copy of the package list.
func reversed(pkgs []*lint.Package) []*lint.Package {
	out := slices.Clone(pkgs)
	slices.Reverse(out)
	return out
}

// TestAtomicFactFlow pins the cross-package atomicfield check: the
// atomic access in the defining fixture makes the importing fixture's
// plain access a finding. The packages reach the runner in reverse
// dependency order, so the result cannot hang on which one runs first.
func TestAtomicFactFlow(t *testing.T) {
	loader := newTestLoader(t)
	def := loadFixture(t, loader, "atomicdef", "nwdec/internal/atomicdef")
	use := loadFixture(t, loader, "atomicuse", "nwdec/internal/atomicuse")
	analyzers, err := lint.ByName("atomicfield")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run([]*lint.Package{use, def}, analyzers, lint.DefaultConfig(loader.Module))
	matchDiagnostics(t, diags, append(wants(t, def), wants(t, use)...))
}

// TestWorkersByteIdentical pins the runner's determinism contract: the
// rendered diagnostic stream over a mixed set of real and fixture
// packages (import edges among them, non-empty diagnostics) is
// byte-identical whatever order the packages reach the runner in.
func TestWorkersByteIdentical(t *testing.T) {
	loader := newTestLoader(t)
	var pkgs []*lint.Package
	for _, path := range []string{"nwdec/internal/obs", "nwdec/internal/par", "nwdec/internal/cli"} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	pkgs = append(pkgs,
		loadFixture(t, loader, "errcheck", "nwdec/internal/errfixa"),
		loadFixture(t, loader, "errcheck", "nwdec/internal/errfixb"),
	)
	cfg := lint.DefaultConfig(loader.Module)

	want := render(lint.Run(pkgs, lint.All(), cfg))
	if len(want) == 0 {
		t.Fatal("package set produced no diagnostics; the determinism check is vacuous")
	}
	rotated := append(slices.Clone(pkgs[2:]), pkgs[:2]...)
	for _, order := range [][]*lint.Package{reversed(pkgs), rotated} {
		sameStream(t, render(lint.Run(order, lint.All(), cfg)), want)
	}
}

// TestAtomicWholeRun pins atomicfield's whole-run check: a plain access
// is flagged wherever the atomic access to the same field lives — in
// the same package (atomicdef), upstream of an importer that reads it
// plainly (atomicdef → atomicuse), and downstream of the plain read
// (atomicup is read plainly, its importer atomicdown is the only atomic
// site). The run happens in two package orders, which must give exactly
// the `// want` diagnostics and the same stream.
func TestAtomicWholeRun(t *testing.T) {
	loader := newTestLoader(t)
	// Each defining fixture loads before its importer, so the import
	// resolves to the fixture already cached under that path.
	pkgs := []*lint.Package{
		loadFixture(t, loader, "atomicdef", "nwdec/internal/atomicdef"),
		loadFixture(t, loader, "atomicuse", "nwdec/internal/atomicuse"),
		loadFixture(t, loader, "atomicup", "nwdec/internal/atomicup"),
		loadFixture(t, loader, "atomicdown", "nwdec/internal/atomicdown"),
	}
	analyzers, err := lint.ByName("atomicfield")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lint.DefaultConfig(loader.Module)
	var expects []expectation
	for _, pkg := range pkgs {
		expects = append(expects, wants(t, pkg)...)
	}

	forward := lint.Run(pkgs, analyzers, cfg)
	matchDiagnostics(t, forward, expects)
	backward := lint.Run(reversed(pkgs), analyzers, cfg)
	matchDiagnostics(t, backward, expects)
	sameStream(t, render(backward), render(forward))
}

// TestIndependentCopies runs all analyzers over independent copies of a
// fixture package under distinct deterministic paths: each copy reports
// exactly what a run over that copy alone reports, and the stream is
// the same in either package order.
func TestIndependentCopies(t *testing.T) {
	loader := newTestLoader(t)
	paths := []string{"nwdec/internal/code", "nwdec/internal/mspt", "nwdec/internal/physics"}
	var pkgs []*lint.Package
	for _, p := range paths {
		pkgs = append(pkgs, loadFixture(t, loader, "determinism", p))
	}
	cfg := lint.DefaultConfig(loader.Module)
	diags := lint.Run(pkgs, lint.All(), cfg)
	single := lint.Run(pkgs[:1], lint.All(), cfg)
	if len(single) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	if len(diags) != len(paths)*len(single) {
		t.Errorf("got %d diagnostics from %d copies, want %d", len(diags), len(paths), len(paths)*len(single))
	}
	sameStream(t, render(lint.Run(reversed(pkgs), lint.All(), cfg)), render(diags))
}
