package main

import (
	"slices"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		// Two overlapping children (concurrent shards) covering [10, 50).
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50},
		// A child nested inside a, which must not be subtracted from root
		// a second time.
		{Name: "a1", Parent: 1, Start: 15, End: 25},
		// A child sticking out past the parent's end: only [90, 100) counts.
		{Name: "c", Parent: 0, Start: 90, End: 120},
		// A child wholly inside another child's interval.
		{Name: "d", Parent: 0, Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 10, 20, 10, 30, 10}
	if !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestFoldSpans(t *testing.T) {
	spans := []span{
		{Name: "simulation", Op: 0, Parent: -1, Start: 0, End: 1e9},
		{Name: "sim.run", Op: 0, Parent: 0, Start: 0, End: 5e8},
		{Name: "harness.start_flow", Op: 0, Parent: 1, Start: 1e8, End: 2e8},
		{Name: "sim.run", Op: 0, Parent: 0, Start: 5e8, End: 1e9},
		{Name: "simulation", Op: 1, Parent: -1, Start: 0, End: 1e9},
	}
	ops := foldSpans(spans)
	if len(ops) != 2 {
		t.Fatalf("got %d ops", len(ops))
	}
	if got := ops[0].self["sim.run"]; got != 0.9 {
		t.Errorf("sim.run self = %v s, want 0.9", got)
	}
	if ops[0].count["sim.run"] != 2 || ops[0].count["harness.start_flow"] != 1 {
		t.Errorf("counts %v", ops[0].count)
	}
	if got := ops[0].self["simulation"]; got != 0 {
		t.Errorf("simulation self = %v, want 0", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, -1)
	tr.end(id)
	if id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
}
