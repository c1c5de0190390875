package lint_test

import (
	"testing"

	"nwdec/internal/lint"
)

// TestConfigRegistrations pins which invariants DefaultConfig applies to
// the packages whose correctness leans on them. TestCleanTree lints
// these packages; this table makes sure the rules it runs are the right
// ones for each.
func TestConfigRegistrations(t *testing.T) {
	cfg := lint.DefaultConfig("nwdec")
	cases := []struct {
		pkg                                string
		deterministic, goroutine, ctxEntry bool
	}{
		// A cache keyed by content addresses must never fold wall time
		// or map order into results; Do takes ctx first.
		{"engine", true, false, true},
		// The error taxonomy the engine exports carries its determinism.
		{"nwerr", true, false, false},
		// Each job runs on its own goroutine under the runner's
		// WaitGroup; Submit/Resume/Wait honor cancellation; time comes
		// only from the injected obs clock, so checkpoints reproduce.
		{"jobs", true, true, true},
		// The clock is injected at the command boundary; obs never reads
		// it, spawns or prints.
		{"obs", true, false, false},
		// The one pool where goroutine creation is allowed.
		{"par", false, true, false},
		// Below par: no goroutines of its own.
		{"stats", true, false, false},
		// Peer fetches honor cancellation; the fallback hedge is a
		// bounded synchronous timeout, so no goroutines.
		{"cluster", false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.pkg, func(t *testing.T) {
			path := "nwdec/internal/" + tc.pkg
			if got := cfg.Deterministic(path); got != tc.deterministic {
				t.Errorf("Deterministic = %v, want %v", got, tc.deterministic)
			}
			if got := cfg.GoroutineAllowed(path); got != tc.goroutine {
				t.Errorf("GoroutineAllowed = %v, want %v", got, tc.goroutine)
			}
			if got := cfg.CtxEntry(path); got != tc.ctxEntry {
				t.Errorf("CtxEntry = %v, want %v", got, tc.ctxEntry)
			}
		})
	}
}
