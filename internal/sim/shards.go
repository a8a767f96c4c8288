package sim

import (
	"runtime"
	"sync"
)

// This file is the conservative parallel-discrete-event runner behind
// sharded simulations: several EventLists (one per topology shard) advance
// in lockstep time windows bounded by the minimum latency of any
// cross-shard link (the lookahead, in the Chandy–Misra sense). Within a
// window shards share nothing and may run on separate goroutines; at each
// window boundary an exchange callback drains the cross-shard mailboxes
// into the destination lists as keyed events.
//
// Correctness rests on two invariants the wiring layer must uphold:
//
//  1. every cross-shard interaction is emitted as a message whose delivery
//     time is at least Lookahead after the emitting event, so a message
//     produced by an event at time t is always delivered at or after
//     t + Lookahead and the boundary exchange never injects into the past;
//  2. cross-shard messages are scheduled with canonical ord keys
//     (DeliveryOrd/CommandOrd), so their firing order at equal timestamps
//     does not depend on which side of a shard boundary they crossed —
//     which is what makes an N-shard run bit-identical to a 1-shard run.
//
// Windows are adaptive: each shard gets its own per-window horizon derived
// from every shard's next pending event time (see windowLimits), so the
// fixed-lookahead window is only the worst case. When the mailboxes stay
// empty because peer shards have nothing pending soon, horizons widen
// automatically — an idle-peer phase costs one barrier per stretch instead
// of one barrier per lookahead of virtual time.

// Runner is the engine surface a driver needs: both *EventList (the
// single-list engine) and *MultiRunner (the sharded one) implement it.
type Runner interface {
	// Now returns the current simulated time.
	Now() Time
	// RunUntil processes events with timestamps <= deadline and advances
	// the clock (all shard clocks) to exactly the deadline.
	RunUntil(deadline Time)
	// Executed returns the total events fired since creation.
	Executed() uint64
}

// MultiRunner advances a set of shard EventLists in conservative windows
// bounded by the cross-shard lookahead.
type MultiRunner struct {
	// Lists are the per-shard schedulers, index = shard id.
	Lists []*EventList
	// Lookahead bounds each window; it must not exceed the minimum
	// latency of any cross-shard interaction. When a lookahead matrix is
	// installed (SetLookaheadMatrix) the matrix governs the windows and
	// this scalar is only a lower-bound summary for callers.
	Lookahead Time
	// Exchange drains all cross-shard mailboxes into the destination
	// lists. It runs single-threaded between windows.
	Exchange func()
	// Parallel runs each window's shards on separate goroutines. Serial
	// execution is bit-identical (behavior is fixed by event keys, not by
	// the execution schedule); parallel is the point of sharding.
	Parallel bool

	// matrix is the optional per-pair lookahead: matrix[j][i] is the
	// minimum latency of any interaction emitted by shard j that reaches
	// shard i (Infinity when nothing j does can ever reach i). nil means
	// the scalar Lookahead governs every pair.
	matrix [][]Time
	// react[i] is the minimum round-trip lookahead out of and back into
	// shard i: min over j != i of matrix[i][j] + matrix[j][i]. It bounds
	// how soon a *reaction* to shard i's own emissions can return, the
	// per-pair generalization of the scalar engine's 2L widening.
	react []Time

	// limits is the per-shard window horizon scratch, recomputed each
	// window by windowLimits.
	limits []Time
	// work feeds each persistent shard worker its next window horizon.
	// Workers are started lazily on the first parallel window and live
	// until Close, so the steady state spawns no goroutines — PR 4 paid a
	// goroutine spawn per busy shard per window, which showed up as
	// allocation and scheduler churn on short windows.
	work []chan Time
	wg   sync.WaitGroup
}

// NewMultiRunner builds a runner over the given shard lists. Parallel
// defaults to off on a single-CPU process, where per-window goroutine
// handoff is pure overhead; behavior is identical either way.
func NewMultiRunner(lists []*EventList, lookahead Time, exchange func()) *MultiRunner {
	if lookahead <= 0 {
		panic("sim: MultiRunner needs positive lookahead")
	}
	return &MultiRunner{Lists: lists, Lookahead: lookahead, Exchange: exchange,
		Parallel: runtime.GOMAXPROCS(0) > 1}
}

// SetLookaheadMatrix installs the per-pair lookahead from L, where L[j][i]
// is the minimum latency of any single interaction shard j can emit toward
// shard i — the minimum delay over the actual cut edges from j to i,
// Infinity when none crosses. Off-diagonal entries must be positive and at
// least the scalar Lookahead; diagonal entries are ignored. The runner
// installs the metric closure of L (all-pairs shortest paths under
// Floyd-Warshall, so multi-hop relays j -> k -> i get L[j][k] + L[k][i]
// when that is shorter): windowLimits relies on the triangle inequality to
// bound multi-hop reaction chains by round trips. L itself is not
// modified.
func (mr *MultiRunner) SetLookaheadMatrix(L [][]Time) {
	n := len(mr.Lists)
	if len(L) != n {
		panic("sim: lookahead matrix must be shards x shards")
	}
	closed := make([][]Time, n)
	for i := range L {
		if len(L[i]) != n {
			panic("sim: lookahead matrix must be shards x shards")
		}
		for j, l := range L[i] {
			if i != j && l < mr.Lookahead {
				panic("sim: lookahead matrix entry below the scalar lookahead")
			}
		}
		closed[i] = append([]Time(nil), L[i]...)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == k || j == i || j == k {
					continue
				}
				if via := satAdd(closed[i][k], closed[k][j]); via < closed[i][j] {
					closed[i][j] = via
				}
			}
		}
	}
	react := make([]Time, n)
	for i := range closed {
		react[i] = Infinity
		for j, l := range closed[i] {
			if i == j {
				continue
			}
			if rt := satAdd(l, closed[j][i]); rt < react[i] {
				react[i] = rt
			}
		}
	}
	mr.matrix, mr.react = closed, react
}

// Close stops the persistent shard workers (if any were started). The
// runner remains usable afterwards — the next parallel window simply
// restarts them — so Close is a resource release, not a terminal state.
// It is safe to call on a runner that never went parallel.
func (mr *MultiRunner) Close() {
	for _, ch := range mr.work {
		close(ch)
	}
	mr.work = nil
}

// Now returns the farthest-behind shard clock (all clocks are equal after
// RunUntil returns).
func (mr *MultiRunner) Now() Time {
	now := mr.Lists[0].Now()
	for _, el := range mr.Lists[1:] {
		if t := el.Now(); t < now {
			now = t
		}
	}
	return now
}

// Executed sums events fired across all shards.
func (mr *MultiRunner) Executed() uint64 {
	var n uint64
	for _, el := range mr.Lists {
		n += el.Executed()
	}
	return n
}

// nextAt returns the earliest pending event time across shards.
func (mr *MultiRunner) nextAt() Time {
	at := Infinity
	for _, el := range mr.Lists {
		if t := el.NextAt(); t < at {
			at = t
		}
	}
	return at
}

// satAdd adds a latency to a timestamp without overflowing Infinity.
func satAdd(t, d Time) Time {
	if t >= Infinity-d {
		return Infinity
	}
	return t + d
}

// windowLimits computes each shard's horizon for the next window from the
// snapshot of next-event times. Shard i may safely run every event with a
// timestamp strictly below
//
//	limit_i = min( min_{j != i}(N_j + L[j][i]),  N_i + R_i )
//
// where N_j is shard j's earliest pending event, L[j][i] the pair
// lookahead from j to i (the scalar Lookahead for every pair when no
// matrix is installed, making R_i = 2L):
//   - any message another shard j emits this window comes from an event at
//     time >= N_j and needs at least L[j][i] to reach i, so it arrives at
//     >= N_j + L[j][i] >= limit_i;
//   - any *future* message toward i is a reaction to something i itself
//     emitted this window — a chain i -> j -> ... -> i costs at least the
//     round trip R_i = min_j(L[i][j] + L[j][i]), because the matrix is a
//     metric closure and longer chains only add hops — so it arrives at
//     >= N_i + R_i >= limit_i.
//
// Nothing injected at this or any later barrier can therefore land in
// shard i's past. When peer shards are idle (N_j far ahead or Infinity),
// limit_i widens well beyond the fixed lookahead — this is the adaptive
// widening that makes empty-mailbox phases cheap — and when every shard is
// equally busy with a uniform matrix it degrades exactly to the classic
// min(N)+L window. With a real matrix, distant shard pairs (multi-hop
// cuts, or no connecting path at all: L = Infinity) stop constraining
// each other, so non-adjacent shards run far ahead of the global minimum.
func (mr *MultiRunner) windowLimits(deadline Time) {
	if mr.limits == nil {
		mr.limits = make([]Time, len(mr.Lists))
	}
	// The +1 makes the exclusive window bound inclusive of events at
	// exactly the deadline, still within the conservative limit. Saturate:
	// a deadline at or near Infinity must clamp, not wrap every horizon
	// to 0 and livelock RunUntil.
	bound := satAdd(deadline, 1)
	if mr.matrix != nil {
		mr.matrixLimits(bound)
		return
	}
	// Scalar fast path: min and second-min of N_j + L give min_{j != i}
	// in O(shards).
	min1, min2 := Infinity, Infinity
	argmin := -1
	for i, el := range mr.Lists {
		h := satAdd(el.NextAt(), mr.Lookahead)
		if h < min1 {
			min1, min2, argmin = h, min1, i
		} else if h < min2 {
			min2 = h
		}
	}
	for i, el := range mr.Lists {
		peers := min1
		if i == argmin {
			peers = min2
		}
		limit := satAdd(satAdd(el.NextAt(), mr.Lookahead), mr.Lookahead)
		if peers < limit {
			limit = peers
		}
		if bound < limit {
			limit = bound
		}
		mr.limits[i] = limit
	}
}

// matrixLimits is the per-pair O(shards^2) horizon computation used when a
// lookahead matrix is installed; see windowLimits for the bound it
// implements. Progress is guaranteed: the globally-earliest shard's
// horizon exceeds its own next event (every N_j + L[j][i] term is at
// least N_i plus a positive lookahead), so every window fires at least
// one event.
func (mr *MultiRunner) matrixLimits(bound Time) {
	for i := range mr.Lists {
		limit := satAdd(mr.Lists[i].NextAt(), mr.react[i])
		for j, el := range mr.Lists {
			if j == i {
				continue
			}
			if h := satAdd(el.NextAt(), mr.matrix[j][i]); h < limit {
				limit = h
			}
		}
		if bound < limit {
			limit = bound
		}
		mr.limits[i] = limit
	}
}

// RunUntil drives windows until every event with a timestamp <= deadline
// has fired, then sets all shard clocks to the deadline. Empty stretches of
// virtual time are skipped: per-shard horizons derive from the earliest
// pending events, so idle phases (closed-loop gaps) cost no barriers.
func (mr *MultiRunner) RunUntil(deadline Time) {
	// Drain the mailboxes before choosing the first window: setup code
	// (flow priming on the coordinator goroutine, between runs) may have
	// emitted cross-shard entries that no event list knows about yet, and
	// the window-start jump below must not skip past their times.
	if mr.Exchange != nil {
		mr.Exchange()
	}
	for {
		// An empty schedule reports Infinity; treat it as done even when
		// the deadline itself is Infinity, or the loop never exits.
		if at := mr.nextAt(); at > deadline || at == Infinity {
			break
		}
		mr.windowLimits(deadline)
		mr.runWindow()
		if mr.Exchange != nil {
			mr.Exchange()
		}
	}
	for _, el := range mr.Lists {
		el.AdvanceTo(deadline)
	}
}

// runWindow executes one window: every shard runs its pending events up to
// its own precomputed horizon.
func (mr *MultiRunner) runWindow() {
	// Run single-shard windows inline: worker handoff costs more than it
	// buys when only one shard is busy.
	nBusy := 0
	for i, el := range mr.Lists {
		if el.NextAt() < mr.limits[i] {
			nBusy++
		}
	}
	if nBusy == 0 {
		return
	}
	if nBusy == 1 || !mr.Parallel {
		for i, el := range mr.Lists {
			el.RunBefore(mr.limits[i])
		}
		return
	}
	if mr.work == nil {
		mr.startWorkers()
	}
	for i, el := range mr.Lists {
		if el.NextAt() >= mr.limits[i] {
			continue
		}
		mr.wg.Add(1)
		mr.work[i] <- mr.limits[i]
	}
	mr.wg.Wait()
}

// startWorkers spawns one persistent goroutine per shard, parked on a
// channel between windows. The WaitGroup barrier at the end of each window
// publishes every shard's writes to the coordinator (and, through the next
// window's sends, to every other worker), which is the happens-before edge
// the single-writer mailboxes rely on.
func (mr *MultiRunner) startWorkers() {
	mr.work = make([]chan Time, len(mr.Lists))
	for i := range mr.Lists {
		ch := make(chan Time, 1)
		mr.work[i] = ch
		el := mr.Lists[i]
		go func() {
			for limit := range ch {
				el.RunBefore(limit)
				mr.wg.Done()
			}
		}()
	}
}
