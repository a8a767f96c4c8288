// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed host time and prints every metric by name and unit,
// then one JSON result line:
//
//	perfbench --workload perm-ndp --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// makes the traced run instead: spans around each layer boundary, a CPU
// profile bucketed by layer, the per-layer metrics, and a check that
// tracing did not perturb the simulation. See README.md for the metric
// catalog and the reasoning behind each workload.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ndp/scenario"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed   uint64
	dur    time.Duration
	tracer *tracer // non-nil for the traced run
}

// workloadDef is a named workload and the reason it is in the benchmark.
type workloadDef struct {
	name string
	why  string
	run  func(runConfig, *report) error
	sim  *simWorkload // nil for the daemon workload
}

func simDef(name, why string, spec func(uint64) (scenario.Spec, error)) workloadDef {
	w := &simWorkload{name: name, spec: spec}
	return workloadDef{name: name, why: why, run: w.run, sim: w}
}

var workloads = []workloadDef{
	simDef("perm-ndp", "NDP full-load permutation, 128 hosts: scheduler, port hops and NDP per-packet cost; no flow churn, no shards", permNDP),
	simDef("rpc-ndp", "NDP closed-loop RPC on a 4:1 oversubscribed 216-host FatTree: flow starts, pools, timers, trimming, FCT merge", rpcNDP),
	simDef("perm-mptcp-shards2", "MPTCP permutation with 2 shards: the sharded runner, cross-shard mailboxes and the TCP family", permMPTCPShards2),
	{name: "jobs-daemon", why: "many short jobs through the simd HTTP daemon: set-up, decode/validate/queue/cache path, 25% cache hits", run: runJobs},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed every input of the workload derives from")
	seconds := fs.Float64("seconds", 10, "host time to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and per-layer metrics")
	printDigests := fs.String("print-digests", "", "print digests.json for the comma-separated seeds and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printDigests != "" {
		if err := writeDigests(stdout, *printDigests); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	cfg := runConfig{seed: *seed, dur: time.Duration(*seconds * float64(time.Second))}
	defs := endToEnd
	if *trace == 1 {
		cfg.tracer = newTracer()
		defs = perLayer
	}
	fmt.Fprintf(stdout, "workload %s (%s), seed %d, %gs, trace %d\n", w.name, w.why, *seed, *seconds, *trace)
	rep := newReport()
	if err := w.run(cfg, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.tracer != nil {
		path := filepath.Join(traceDir(), fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := cfg.tracer.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	if err := rep.print(stdout, defs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// traceDir is where spans are written: next to the benchmark binary, which
// run.sh builds inside the checkout.
func traceDir() string {
	exe, err := os.Executable()
	if err != nil {
		return "traces"
	}
	return filepath.Join(filepath.Dir(exe), "traces")
}

// digests.json holds the Metrics digest of each simulation workload per
// seed, computed at the commit that last changed simulation results. For a
// sharded workload it is the unsharded twin's digest.
//
//go:embed digests.json
var digestsJSON []byte

var digests = func() map[string]map[string]string {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	return d
}()

// committedDigest returns the committed digest for a workload and seed, or
// "" when none is committed.
func committedDigest(workload string, seed uint64) string {
	return digests[workload][strconv.FormatUint(seed, 10)]
}

// writeDigests computes digests.json afresh for the given seeds.
func writeDigests(w io.Writer, seedList string) error {
	out := map[string]map[string]string{}
	for _, s := range strings.Split(seedList, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", s, err)
		}
		for _, wd := range workloads {
			if wd.sim == nil {
				continue
			}
			spec, err := wd.sim.spec(seed)
			if err != nil {
				return err
			}
			m, st, err := scenario.RunWithStats(referenceSpec(spec))
			if err != nil {
				return err
			}
			if st.PacketsLeaked != 0 {
				return errors.New(wd.name + ": packets leaked")
			}
			d, err := digest(m)
			if err != nil {
				return err
			}
			if out[wd.name] == nil {
				out[wd.name] = map[string]string{}
			}
			out[wd.name][strconv.FormatUint(seed, 10)] = d
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
