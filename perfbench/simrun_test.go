package main

import (
	"testing"
	"time"

	"ndp/scenario"
)

// TestSimRunReproducesRunWithStats runs small versions of the simulation
// workloads through the traced runner and through scenario.RunWithStats:
// every observable the non-perturbation check compares must agree.
func TestSimRunReproducesRunWithStats(t *testing.T) {
	specs := map[string]func() (scenario.Spec, error){
		"permutation": func() (scenario.Spec, error) {
			return scenario.Build("permutation", scenario.Params{Hosts: 16}, append(serial(5),
				scenario.WithWarmup(200*time.Microsecond), scenario.WithWindow(300*time.Microsecond))...)
		},
		"rpc": func() (scenario.Spec, error) {
			return scenario.Build("rpc", scenario.Params{Hosts: 16, Degree: 2}, append(serial(5),
				scenario.WithDeadline(time.Millisecond))...)
		},
		"mptcp-shards2": func() (scenario.Spec, error) {
			return scenario.Build("permutation", scenario.Params{Hosts: 16}, append(serial(5),
				scenario.WithTransport(scenario.MPTCP), scenario.WithShards(2),
				scenario.WithWarmup(200*time.Microsecond), scenario.WithWindow(300*time.Microsecond))...)
		},
	}
	for name, build := range specs {
		t.Run(name, func(t *testing.T) {
			spec, err := build()
			if err != nil {
				t.Fatal(err)
			}
			m, st, err := scenario.RunWithStats(spec)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			root := tr.begin("simulation", 0, -1)
			sr, err := setUp(build, tr, 0, root)
			if err != nil {
				t.Fatal(err)
			}
			out, perShard := sr.run()
			tr.end(root)
			if d := out.diff(fromMetrics(m, st)); d != "" {
				t.Fatalf("traced runner differs from RunWithStats: %s", d)
			}
			if len(perShard) != max(spec.Shards, 1) {
				t.Errorf("%d per-shard counts for %d shards", len(perShard), spec.Shards)
			}
			if out.leaked != 0 || out.launched == 0 || len(sr.depth) == 0 {
				t.Errorf("leaked %d launched %d samples %d", out.leaked, out.launched, len(sr.depth))
			}
			if got := foldSpans(tr.snapshot())[0].count["harness.start_flow"]; got < out.launched && name != "rpc" {
				t.Errorf("%d start_flow spans for %d flows", got, out.launched)
			}
		})
	}
}
