package main

import (
	"encoding/json"
	"testing"
	"time"

	"ndp/scenario"
)

// TestDigestStableAcrossJSONRoundTrip pins that a Metrics digest survives
// the daemon's wire encoding: decoding the JSON and encoding it again
// yields the same bytes, hence the same digest.
func TestDigestStableAcrossJSONRoundTrip(t *testing.T) {
	for _, name := range []string{"incast", "rpc", "permutation"} {
		spec, err := scenario.Build(name, scenario.Params{Hosts: 16, Degree: 2}, append(serial(3),
			scenario.WithWindow(200*time.Microsecond), scenario.WithDeadline(time.Millisecond))...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := scenario.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := digest(m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back scenario.Metrics
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if got, _ := digest(&back); got != want {
			t.Errorf("%s: digest %s after a JSON round trip, %s before", name, got, want)
		}
	}
}

// TestCommittedDigests checks that every simulation workload has a
// committed digest for the default seed.
func TestCommittedDigests(t *testing.T) {
	for _, w := range workloads {
		if w.sim == nil {
			continue
		}
		if committedDigest(w.name, 1) == "" {
			t.Errorf("%s: no digest committed for seed 1", w.name)
		}
	}
}
