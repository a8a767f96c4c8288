package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"ndp/internal/sim"
)

// This file is the declarative sweep-job layer of the harness. The paper's
// evaluation is sweep-shaped: every figure runs the same simulation at many
// independent points (four transports x buffer sizes x incast degrees x
// topology scales). Each point becomes a Job — a self-contained simulation
// with its own topology, EventList and seed-derived RNGs — and RunJobs fans
// the jobs out across a pool of workers, so `ndpsim -exp all` scales with
// the number of cores instead of being bound by one.

// Row is one formatted table row, in the column order of the table the
// experiment is assembling.
type Row = []string

// Job is one self-contained point of an experiment sweep: a label for
// attribution, the seed every RNG in the simulation must derive from, and
// a Run function that builds its own topology and EventList, drives the
// workload, and returns the point's contribution to the final Result
// (formatted rows, raw per-flow goodputs, a completion time — whatever the
// experiment assembles from).
//
// Run must not touch state shared with other jobs: the scheduler, the
// topology, stats accumulators and RNGs all have to be created inside Run
// from the given seed. That property is what lets RunJobs execute jobs on
// any number of workers while keeping results bit-identical to a serial
// run.
type Job[T any] struct {
	Label string
	Seed  uint64
	Run   func(seed uint64) T
}

// NewJob couples a label and seed with a run function.
func NewJob[T any](label string, seed uint64, run func(seed uint64) T) Job[T] {
	return Job[T]{Label: label, Seed: seed, Run: run}
}

// SweepSeeds derives n independent seeds from base via sim.Rand splitting.
// The i-th seed depends only on (base, i) — never on worker count or job
// completion order — so a sweep can hand each point a private seed and
// stay exactly reproducible. Points that must observe the very same
// workload (e.g. the four transports racing on one permutation matrix)
// share one derived seed instead.
func SweepSeeds(base uint64, n int) []uint64 {
	root := sim.NewRand(base)
	out := make([]uint64, n)
	for i := range out {
		out[i] = root.SplitSeed()
	}
	return out
}

// RunJobs executes jobs on a pool of o.Workers goroutines — 0 means
// runtime.GOMAXPROCS(0), 1 preserves strictly serial execution — and
// returns the results in job order regardless of which worker finished
// which job when. Panicking jobs are re-raised on the caller's goroutine
// after the remaining jobs drain, as a single panic that aggregates every
// failure (label and seed each) in job order — a parallel sweep must not
// hide the second failure behind the first.
func RunJobs[T any](o Options, jobs []Job[T]) []T {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]T, len(jobs))
	failures := make([]error, len(jobs))
	// progress serializes the o.Progress callback across workers so its
	// done argument is strictly increasing even when jobs finish
	// concurrently.
	var progressMu sync.Mutex
	var progressDone int
	progress := func() {
		if o.Progress == nil {
			return
		}
		progressMu.Lock()
		progressDone++
		o.Progress(progressDone, len(jobs))
		progressMu.Unlock()
	}
	if workers <= 1 {
		for i, j := range jobs {
			capture(j, &out[i], &failures[i])
			progress()
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					capture(jobs[i], &out[i], &failures[i])
					progress()
				}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	var failed []string
	for _, err := range failures {
		if err != nil {
			failed = append(failed, err.Error())
		}
	}
	switch len(failed) {
	case 0:
		return out
	case 1:
		panic(failed[0])
	default:
		panic(fmt.Sprintf("harness: %d jobs failed:\n  %s",
			len(failed), strings.Join(failed, "\n  ")))
	}
}

// capture runs one job, converting a panic into an error so the pool can
// surface it on the calling goroutine with the job identified. The job
// holds one slot of the process-wide CPU budget while it runs, so sharded
// simulations only add helper goroutines on CPUs no other job is using.
func capture[T any](j Job[T], slot *T, failure *error) {
	sim.ClaimCPU()
	defer sim.ReleaseCPU()
	defer func() {
		if p := recover(); p != nil {
			*failure = fmt.Errorf("harness: job %q (seed %d) panicked: %v", j.Label, j.Seed, p)
		}
	}()
	*slot = j.Run(j.Seed)
}
