package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nwdec/internal/dataset"
)

// fleetConfig says how to start the nwserve nodes of one workload.
type fleetConfig struct {
	// IDs are the node identities; more than one peers them into a fleet.
	IDs []string
	// Metrics starts the nodes with -metrics json -metrics-out, the
	// server-side snapshot of the traced pass.
	Metrics bool
}

// node is one running nwserve process.
type node struct {
	id      string
	url     string
	flags   []string
	cmd     *exec.Cmd
	log     *os.File
	metrics string
	waited  bool
}

// fleet is a set of nodes started together.
type fleet struct {
	nodes []*node
	dir   string
}

// nodeGOMAXPROCS is the GOMAXPROCS every node is started with: one per
// CPU, stated explicitly so the run metadata records what the nodes ran
// with.
func nodeGOMAXPROCS() int { return nproc() }

// startFleet launches the nodes on free loopback ports and returns once
// every node answers /healthz.
func startFleet(ctx context.Context, bin, dir string, cfg fleetConfig) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fdir, err := os.MkdirTemp(dir, "fleet-")
	if err != nil {
		return nil, err
	}
	urls := make(map[string]string, len(cfg.IDs))
	for _, id := range cfg.IDs {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		urls[id] = "http://127.0.0.1:" + strconv.Itoa(port)
	}
	f := &fleet{dir: fdir}
	for _, id := range cfg.IDs {
		n := &node{id: id, url: urls[id]}
		n.flags = []string{"-addr", strings.TrimPrefix(n.url, "http://")}
		if len(cfg.IDs) > 1 {
			var peers []string
			for _, other := range cfg.IDs {
				if other != id {
					peers = append(peers, other+"="+urls[other])
				}
			}
			n.flags = append(n.flags, "-node-id", id, "-peers", strings.Join(peers, ","))
		}
		if cfg.Metrics {
			n.metrics = filepath.Join(fdir, id+"-metrics.json")
			n.flags = append(n.flags, "-metrics", "json", "-metrics-out", n.metrics)
		}
		f.nodes = append(f.nodes, n)
	}
	for _, n := range f.nodes {
		if err := n.start(bin, fdir); err != nil {
			f.stop()
			return nil, err
		}
	}
	for _, n := range f.nodes {
		if err := n.awaitHealthy(ctx, 30*time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (n *node) start(bin, dir string) error {
	log, err := os.Create(filepath.Join(dir, n.id+".log"))
	if err != nil {
		return err
	}
	n.log = log
	n.cmd = exec.Command(bin, n.flags...)
	n.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nodeGOMAXPROCS()))
	n.cmd.Stdout = log
	n.cmd.Stderr = log
	// A node must not outlive a benchmark that is killed outright.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := n.cmd.Start(); err != nil {
		return errors.Join(fmt.Errorf("starting nwserve %s: %w", n.id, err), log.Close())
	}
	return nil
}

// exited reports whether the node's process has ended: it is a zombie
// waiting to be reaped, or already gone. Polling /proc keeps the benchmark
// free of a waiting goroutine per node.
func (n *node) exited() bool {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return true
	}
	_, rest, ok := strings.Cut(string(data), ") ")
	return !ok || strings.HasPrefix(rest, "Z")
}

// wait reaps the node's process, once, and closes its log.
func (n *node) wait() error {
	if n.waited {
		return nil
	}
	n.waited = true
	return errors.Join(n.cmd.Wait(), n.log.Close())
}

// awaitHealthy polls /healthz until it answers 200.
func (n *node) awaitHealthy(ctx context.Context, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		if n.exited() {
			err := n.wait()
			if err == nil {
				err = errors.New("exit status 0")
			}
			return fmt.Errorf("nwserve %s exited before it was healthy (log %s): %w", n.id, n.log.Name(), err)
		}
		resp, err := client.Get(n.url + "/healthz")
		if err == nil {
			// The body is drained only so the connection can be reused.
			_, err = io.Copy(io.Discard, resp.Body)
			if err = errors.Join(err, resp.Body.Close()); err == nil && resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nwserve %s not healthy after %v: %w", n.id, timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// clockTicks is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on Linux).
const clockTicks = 100

// cpuSeconds returns the user plus system CPU time the nodes have used.
// The kernel does not charge a process for time the hypervisor stole,
// so unlike wall time it does not grow with host contention.
func (f *fleet) cpuSeconds() (float64, error) {
	var ticks float64
	for _, n := range f.nodes {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// The command name, field 2, is parenthesized and may hold
		// spaces; utime and stime are fields 14 and 15.
		_, rest, ok := strings.Cut(string(data), ") ")
		fields := strings.Fields(rest)
		if !ok || len(fields) < 13 {
			return 0, fmt.Errorf("unexpected /proc stat line for nwserve %s", n.id)
		}
		for _, x := range fields[11:13] {
			v, err := strconv.ParseFloat(x, 64)
			if err != nil {
				return 0, err
			}
			ticks += v
		}
	}
	return ticks / clockTicks, nil
}

// peakRSSMB returns the summed VmHWM of the running nodes in MiB.
func (f *fleet) peakRSSMB() (float64, error) {
	var kb float64
	for _, n := range f.nodes {
		v, err := vmHWM(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return kb / 1024, nil
}

func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// stop ends every node with SIGTERM, so nodes with -metrics-out write
// their snapshot, and SIGKILLs any that is still running after ten
// seconds. It returns once every process has exited and been reaped;
// calling it again is a no-op. Failures are reported on standard error:
// there is nothing left to stop.
func (f *fleet) stop() {
	signal := func(n *node, sig os.Signal) {
		if err := n.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
			fmt.Fprintf(os.Stderr, "perfbench: signalling nwserve %s: %v\n", n.id, err)
		}
	}
	for _, n := range f.nodes {
		if n.cmd != nil && !n.waited {
			signal(n, syscall.SIGTERM)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range f.nodes {
		if n.cmd == nil || n.waited {
			continue
		}
		for !n.exited() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if !n.exited() {
			signal(n, syscall.SIGKILL)
		}
		if err := n.wait(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: nwserve %s: %v\n", n.id, err)
		}
	}
}

// remove deletes the fleet's directory: logs, job stores and snapshots.
func (f *fleet) remove() error { return os.RemoveAll(f.dir) }

// snapshotSums adds up one metric kind of the nodes' -metrics snapshots
// ("counter" rows, or a histogram row kind such as "p50_ns"). It must
// be called after stop.
func (f *fleet) snapshotSums(kind string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, n := range f.nodes {
		if n.metrics == "" {
			continue
		}
		data, err := os.ReadFile(n.metrics)
		if err != nil {
			return nil, err
		}
		ds, err := dataset.ParseJSON(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", n.metrics, err)
		}
		for _, row := range ds.Rows {
			name, _ := row[0].(string)
			k, _ := row[1].(string)
			v, _ := row[2].(float64)
			if k == kind {
				out[name] += v
			}
		}
	}
	return out, nil
}

// freePort asks the kernel for an unused loopback port. The port is
// released before nwserve binds it, which every peer must know up front.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}
