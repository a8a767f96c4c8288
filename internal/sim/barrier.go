package sim

import (
	"runtime"
	"sync/atomic"
)

// This file holds the two primitives behind MultiRunner's window barrier:
// the process-wide CPU budget that helper goroutines are borrowed from,
// and the spin-then-park wait both sides of the barrier use.

// cpuUsed counts the CPU slots in use: one per running simulation job
// (ClaimCPU) plus every helper slot a MultiRunner has borrowed.
var cpuUsed atomic.Int64

// cpuSlots is the budget: one slot per CPU the process can run on at once.
func cpuSlots() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// ClaimCPU takes one slot of the process-wide CPU budget for a simulation
// job about to run; ReleaseCPU returns it. A job always gets its slot, even
// past the budget: the budget only decides whether sharded runners may
// add helper goroutines, so claiming keeps concurrent jobs from also
// spinning helpers on CPUs the jobs already occupy.
func ClaimCPU() { cpuUsed.Add(1) }

// ReleaseCPU returns the slot a ClaimCPU took.
func ReleaseCPU() { cpuUsed.Add(-1) }

// borrowCPUs takes up to want free slots and returns how many it took.
func borrowCPUs(want int) int {
	slots := int64(cpuSlots())
	for {
		used := cpuUsed.Load()
		n := min(int64(want), slots-used)
		if n <= 0 {
			return 0
		}
		if cpuUsed.CompareAndSwap(used, used+n) {
			return int(n)
		}
	}
}

// returnCPUs gives back n borrowed slots.
func returnCPUs(n int) { cpuUsed.Add(-int64(n)) }

const (
	// spinChecks bounds how often a waiter re-checks its word before it
	// parks: long enough to cover the exchange and horizon computation
	// between two windows, short enough that an idle helper soon stops
	// burning its CPU. It is a count, not a duration: the engine reads no
	// clock.
	spinChecks = 1 << 16
	// yieldEvery spaces the runtime.Gosched calls in a spin, so a spinning
	// goroutine never starves one that shares its processor.
	yieldEvery = 256
)

// waiter is one goroutine's spin-then-park wait slot. The goroutine that
// changes the awaited word calls notify afterwards, which wakes the
// waiter if it parked.
type waiter struct {
	parked atomic.Uint32
	wake   chan struct{}
}

func newWaiter() waiter { return waiter{wake: make(chan struct{}, 1)} }

// await returns once v holds want. It spins first, yielding every
// yieldEvery checks, and parks on the wake channel after spinChecks.
//
// Parking raises the flag before re-checking v, and notify changes v
// before lowering the flag, so at least one side sees the other: either
// the re-check finds the new value, or notify finds the flag and sends a
// wake-up. When both happen the waiter's own compare-and-swap fails and
// it consumes the wake-up notify sent, so none is left for a later park.
func (w *waiter) await(v *atomic.Uint64, want uint64) {
	for spins := 1; v.Load() != want; spins++ {
		if spins < spinChecks {
			if spins%yieldEvery == 0 {
				runtime.Gosched()
			}
			continue
		}
		w.parked.Store(1)
		if v.Load() == want && w.parked.CompareAndSwap(1, 0) {
			return
		}
		<-w.wake
		spins = 0
	}
}

// notify wakes the waiter if it parked; call it after changing the word
// the waiter awaits.
func (w *waiter) notify() {
	if w.parked.Swap(0) == 1 {
		w.wake <- struct{}{}
	}
}
