package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"ndp/internal/sim"
)

// now reads the host clock. Host time is what the benchmark measures; the
// simulations' virtual time never comes from here.
func now() time.Time {
	return time.Now() //simlint:allow wallclock — the benchmark measures host time, which is never fed into a simulation
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample is the host cost of one measured interval.
type sample struct {
	wall, cpu  time.Duration
	peakHeap   uint64 // largest live-object heap seen, bytes
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	// scale converts this interval's host times to reference seconds (see
	// calibrate); raw times are multiplied by it.
	scale float64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

// heapSampler polls the heap size from its own goroutine until stopped.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: heapObjects}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak it saw.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.peak
}

// measure runs the calibration kernel on `threads` goroutines, then
// measures fn with measureAt.
func measure(threads int, fn func()) sample {
	return measureAt(calibrationScale(threads), fn)
}

// measureAt runs fn after a full GC, so each measured interval starts from
// the same heap state, and returns fn's wall time, CPU time, peak heap and
// allocations, with the given calibration scale.
func measureAt(scale float64, fn func()) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hs := startHeapSampler()
	t0, c0 := now(), cpuTime()
	fn()
	s := sample{wall: now().Sub(t0), cpu: cpuTime() - c0}
	s.peakHeap = hs.finish()
	runtime.ReadMemStats(&m1)
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.allocs = m1.Mallocs - m0.Mallocs
	s.gcCycles = m1.NumGC - m0.NumGC
	s.scale = scale
	return s
}

// add accumulates another interval's cost into s, keeping the larger peak.
func (s *sample) add(o sample) {
	s.wall += o.wall
	s.cpu += o.cpu
	s.peakHeap = max(s.peakHeap, o.peakHeap)
	s.allocBytes += o.allocBytes
	s.allocs += o.allocs
	s.gcCycles += o.gcCycles
}

// gcCPU returns the runtime's cumulative GC CPU time and the CPU time the
// process spent on anything but idling, both in seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// Benchmark hosts are often shared: neighbours' load changes how fast
// memory-bound code runs by up to a factor of two within minutes, far more
// than the changes the benchmark must resolve. So every timed operation is
// bracketed by a fixed calibration kernel shaped like the simulator's hot
// loop (a binary min-heap of event keys, replaced and sifted down,
// interleaved with dependent loads from a 16 MiB table), and host times are
// reported in reference seconds: raw seconds × calibRef ÷ the kernel's time
// around the operation. A drift that slows the kernel and the simulator
// alike cancels; a change to the simulator does not touch the kernel.
const calibRef = 0.045 // seconds: the kernel's typical time on a 2.1 GHz Xeon vCPU

const (
	calibTableWords = 4 << 20 // uint32s: 16 MiB, outside the Go heap
	calibHeapKeys   = 2048
	calibSteps      = 200_000
)

var calibTable = func() []uint32 {
	// Mapped rather than allocated, so it never shows in heap metrics.
	b, err := syscall.Mmap(-1, 0, calibTableWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("calibration table: %v", err))
	}
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), calibTableWords)
	// Sattolo's shuffle: one cycle through every word, so the chase below
	// misses the cache on nearly every step.
	for i := range t {
		t[i] = uint32(i)
	}
	r := sim.NewRand(1)
	for i := len(t) - 1; i > 0; i-- {
		j := r.Intn(i)
		t[i], t[j] = t[j], t[i]
	}
	return t
}()

// calibKernel is one thread's share of the calibration work.
type calibKernel struct {
	h []uint64 // a binary min-heap of keys
	p uint32   // position of the chase through calibTable
}

func newCalibKernel() *calibKernel {
	k := &calibKernel{h: make([]uint64, calibHeapKeys)}
	r := sim.NewRand(2)
	for i := range k.h {
		k.h[i] = uint64(r.Intn(calibTableWords))
	}
	slices.Sort(k.h) // a sorted slice is a valid min-heap
	return k
}

// run replaces the heap's minimum with a later key and sifts it down,
// steps times, each key depending on the next load of the chase.
func (k *calibKernel) run(steps int) {
	h, p := k.h, k.p
	for range steps {
		p = calibTable[p]
		key := h[0] + uint64(p)
		i := 0
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if key <= h[c] {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = key
	}
	k.p = p
}

// kernelTime runs the kernel on `threads` goroutines at once, as many as
// the measured operation keeps busy, and returns their mean time.
func kernelTime(threads int) time.Duration {
	times := make([]time.Duration, max(threads, 1))
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := newCalibKernel()
			t0 := now()
			k.run(calibSteps)
			times[i] = now().Sub(t0)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	return sum / time.Duration(len(times))
}

// calibrationScale returns calibRef over the kernel's time on `threads`
// goroutines.
func calibrationScale(threads int) float64 {
	return calibRef / kernelTime(threads).Seconds()
}

// bracketScale is the scale for an interval with the kernel timed just
// before and just after it: calibRef over the mean of the two, which
// follows a drift during a long interval better than either alone.
func bracketScale(before, after time.Duration) float64 {
	return calibRef / ((before + after) / 2).Seconds()
}
