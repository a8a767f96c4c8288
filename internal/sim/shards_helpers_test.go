package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// This file tests the helper goroutines behind parallel windows: how
// shards map onto runners, how Close and a later RunUntil stop and restart
// the helpers, and how two runners share the process-wide CPU budget. Each
// sharded run is checked against the single-list engine with the actor
// workload of shards_ref_test.go.

// needSlots skips the test unless the CPU budget has at least n slots.
func needSlots(t *testing.T, n int) {
	t.Helper()
	if cpuSlots() < n {
		t.Skipf("needs %d CPU slots, the process has %d", n, cpuSlots())
	}
}

// leaveSlots takes all but n of the budget's free slots until the test
// ends.
func leaveSlots(t *testing.T, n int) {
	held := borrowCPUs(cpuSlots() - n)
	t.Cleanup(func() { returnCPUs(held) })
}

// eventually polls cond until it holds, failing the test after a few
// seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestMultiRunnerCloseStopsHelpers closes a runner right after RunUntil,
// while its helpers still spin, and again once every helper has parked.
// Either way Close returns only after the helpers have exited, and the
// goroutine count returns to where it started.
func TestMultiRunnerCloseStopsHelpers(t *testing.T) {
	needSlots(t, 2)
	for _, park := range []bool{false, true} {
		base := runtime.NumGoroutine()
		_, mr := newRefSharded(1, 3)
		mr.RunUntil(200 * Microsecond)
		if len(mr.helpers) == 0 {
			t.Fatal("RunUntil started no helper")
		}
		if park {
			for _, h := range mr.helpers {
				eventually(t, "a helper to park", func() bool { return h.w.parked.Load() == 1 })
			}
		}
		mr.Close()
		if len(mr.helpers) != 0 {
			t.Fatalf("Close left %d helpers", len(mr.helpers))
		}
		eventually(t, "the goroutine count to return to its baseline", func() bool {
			return runtime.NumGoroutine() <= base
		})
	}
}

// TestRunUntilAfterCloseRestartsHelpers closes a runner part-way through
// the workload: the next RunUntil starts new helpers, runs parallel
// windows with them, and the whole run stays bit-identical to the
// single-list engine.
func TestRunUntilAfterCloseRestartsHelpers(t *testing.T) {
	needSlots(t, 2)
	const until = 200 * Microsecond
	ref := runRefSingle(7, 3, until)
	w, mr := newRefSharded(7, 3)
	mr.RunUntil(4 * Microsecond)
	mr.Close()
	_, before := mr.Windows()
	mr.RunUntil(until)
	_, after := mr.Windows()
	if len(mr.helpers) == 0 || after == before {
		t.Errorf("RunUntil after Close ran no parallel window (%d helpers)", len(mr.helpers))
	}
	mr.Close()
	compareRefWorlds(t, "restart", ref, w)
}

// TestMultiRunnerFourShardsTwoRunners leaves the budget a single slot, so
// four shards share two runners (shards 0 and 2 on the coordinator, 1 and
// 3 on the one helper). Results and the window count must equal both the
// single-list engine's and an inline sharded run's.
func TestMultiRunnerFourShardsTwoRunners(t *testing.T) {
	needSlots(t, 2)
	leaveSlots(t, 1)
	const until = 200 * Microsecond
	var parallel uint64
	for seed := uint64(1); seed <= 10; seed++ {
		ref := runRefSingle(seed, 4, until)
		_, inline := newRefSharded(seed, 4)
		held := borrowCPUs(cpuSlots())
		inline.RunUntil(until)
		returnCPUs(held)
		w, mr := newRefSharded(seed, 4)
		mr.RunUntil(until)
		mr.Close()
		if mr.runners != 2 {
			t.Fatalf("seed %d: %d runners, want 2", seed, mr.runners)
		}
		compareRefWorlds(t, "four-on-two", ref, w)
		got, par := mr.Windows()
		want, _ := inline.Windows()
		if got != want {
			t.Fatalf("seed %d: %d windows in parallel, %d inline", seed, got, want)
		}
		parallel += par
	}
	if parallel == 0 {
		t.Error("no window ran in parallel")
	}
}

// TestMultiRunnersConcurrent drives two runners from two goroutines at
// once, so they compete for the budget's slots; each must still match the
// single-list engine.
func TestMultiRunnersConcurrent(t *testing.T) {
	const until = 200 * Microsecond
	seeds := []uint64{3, 4}
	got := make([][]*refWorld, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				w, mr := newRefSharded(seed, 3)
				mr.RunUntil(until)
				mr.Close()
				got[i] = append(got[i], w)
			}
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		ref := runRefSingle(seed, 3, until)
		for _, w := range got[i] {
			compareRefWorlds(t, "concurrent", ref, w)
		}
	}
}
