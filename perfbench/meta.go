package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// runMeta records what a result was measured on and with.
func runMeta(workload string, seed uint64, seconds, trace, conns int) map[string]any {
	return map[string]any{
		"workload":          workload,
		"seed":              seed,
		"run_seconds":       seconds,
		"trace":             trace,
		"nproc":             nproc(),
		"client_gomaxprocs": runtime.GOMAXPROCS(0),
		"client_conns":      conns,
		"node_gomaxprocs":   nodeGOMAXPROCS(),
		"cpu_model":         cpuModel(),
		"go_version":        runtime.Version(),
		"commit":            commit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the commit checked out in the working directory, read
// from .git without running git (which would look outside the checkout),
// or "unknown" when there is none.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
