package sim

import (
	"sync"
	"sync/atomic"
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
//
// Windows are short (a few hundred nanoseconds of virtual time, tens of
// events per shard), so the barrier between them has to cost far less
// than a goroutine handoff through the Go scheduler. The shards are split
// over r runners, shard i on runner i mod r: the coordinator goroutine
// (the one calling RunUntil) is runner 0 and runs its shards inline, and
// each of the r-1 persistent helper goroutines waits for its next window
// on an atomic generation word. Both sides wait by spinning for a bounded
// number of checks, yielding the processor now and then, and only then
// park on a channel, so back-to-back windows never touch the OS scheduler
// while a stretch with no parallel work costs a helper nothing. Spinning
// is only worth it with a CPU to spin on, so helpers are borrowed from a
// process-wide budget of CPU slots (see ClaimCPU) for the length of one
// RunUntil; with no slot free the runner executes its windows inline. So
// does a window with work for fewer than two runners, and any window while
// recent windows averaged too few events to repay the handoff.

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
	// Lookahead is the scalar cross-shard lookahead: a lower bound on the
	// latency of any cross-shard interaction. NewMultiRunner installs it
	// as a uniform pair matrix; SetLookaheadMatrix replaces that with
	// per-pair bounds, which then govern the windows.
	Lookahead Time
	// Exchange drains all cross-shard mailboxes into the destination
	// lists. It runs single-threaded between windows.
	Exchange func()

	// matrix is the per-pair lookahead: matrix[j][i] is the minimum
	// latency of any interaction emitted by shard j that reaches shard i
	// (Infinity when nothing j does can ever reach i).
	matrix [][]Time
	// react[i] is the minimum round-trip lookahead out of and back into
	// shard i: min over j != i of matrix[i][j] + matrix[j][i]. It bounds
	// how soon a *reaction* to shard i's own emissions can return.
	react []Time

	// limits is the per-shard window horizon scratch, recomputed each
	// window by windowLimits.
	limits []Time
	// runners is how many goroutines share the shards during the current
	// RunUntil: the coordinator plus the helpers borrowed for it. Shard i
	// belongs to runner i mod runners.
	runners int
	// busy marks, per runner, whether it owns a shard with events in the
	// current window.
	busy []bool
	// helpers[k-1] is runner k. Helpers start on the first RunUntil that
	// borrows them and live until Close.
	helpers []*helper
	exited  sync.WaitGroup
	// pending counts the helpers still running the current window; the
	// last one to finish wakes the coordinator if it parked.
	pending atomic.Uint64
	coord   waiter

	// windows counts windows run; parallel those of them that ran shards
	// on helper goroutines.
	windows, parallel uint64
	// load averages the events per window (see runWindow).
	load uint64
}

// helper is one persistent runner goroutine's mailbox.
type helper struct {
	// gen counts the windows handed to this helper; the coordinator bumps
	// it after publishing the window's horizons.
	gen atomic.Uint64
	// stop, set before a final bump of gen, tells the helper to exit.
	stop bool
	w    waiter
	// The padding keeps two helpers' words off one cache line.
	_ [64]byte
}

// NewMultiRunner builds a runner over the given shard lists, with every
// shard pair bounded by the scalar lookahead until SetLookaheadMatrix
// installs per-pair bounds. Behavior is fixed by event keys, not by the
// schedule, so it is identical whether windows run in parallel or inline.
func NewMultiRunner(lists []*EventList, lookahead Time, exchange func()) *MultiRunner {
	if lookahead <= 0 {
		panic("sim: MultiRunner needs positive lookahead")
	}
	mr := &MultiRunner{Lists: lists, Lookahead: lookahead, Exchange: exchange, coord: newWaiter()}
	uniform := make([][]Time, len(lists))
	for i := range uniform {
		uniform[i] = make([]Time, len(lists))
		for j := range uniform[i] {
			if i != j {
				uniform[i][j] = lookahead
			}
		}
	}
	mr.SetLookaheadMatrix(uniform)
	return mr
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

// Close stops the helper goroutines, parked or spinning, and returns once
// they have exited. The runner remains usable afterwards — the next
// RunUntil that borrows CPU slots simply starts new helpers — so Close is
// a resource release, not a terminal state. It is safe to call on a
// runner that never went parallel, and more than once.
func (mr *MultiRunner) Close() {
	for _, h := range mr.helpers {
		h.stop = true
		h.gen.Add(1)
		h.w.notify()
	}
	mr.exited.Wait()
	mr.helpers = nil
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

// Windows returns how many windows the runner has run, and how many of
// them ran shards on helper goroutines. The total depends only on event
// times and RunUntil deadlines, never on the schedule; the parallel count
// depends on the CPU budget.
func (mr *MultiRunner) Windows() (total, parallel uint64) {
	return mr.windows, mr.parallel
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
// where N_j is shard j's earliest pending event and L[j][i] the pair
// lookahead from j to i (the scalar Lookahead for every pair unless a
// matrix was installed, making R_i = 2L):
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
//
// Progress is guaranteed: the globally-earliest shard's horizon exceeds
// its own next event (every N_j + L[j][i] term is at least N_i plus a
// positive lookahead), so every window fires at least one event.
func (mr *MultiRunner) windowLimits(deadline Time) {
	if mr.limits == nil {
		mr.limits = make([]Time, len(mr.Lists))
	}
	// The +1 makes the exclusive window bound inclusive of events at
	// exactly the deadline, still within the conservative limit. Saturate:
	// a deadline at or near Infinity must clamp, not wrap every horizon
	// to 0 and livelock RunUntil.
	bound := satAdd(deadline, 1)
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
	defer returnCPUs(mr.borrowHelpers())
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

// borrowHelpers sizes this RunUntil's runners: one per shard, capped by
// the CPU slots the budget can lend on top of the coordinator's own. It
// starts any helper goroutines that are missing and returns how many
// slots it borrowed.
func (mr *MultiRunner) borrowHelpers() int {
	got := borrowCPUs(min(len(mr.Lists), cpuSlots()) - 1)
	mr.runners = 1 + got
	if len(mr.busy) < mr.runners {
		mr.busy = make([]bool, mr.runners)
	}
	for len(mr.helpers) < got {
		h := &helper{w: newWaiter()}
		mr.helpers = append(mr.helpers, h)
		mr.exited.Add(1)
		go mr.help(len(mr.helpers), h)
	}
	return got
}

// help is runner k's goroutine: it runs its shards once per window handed
// to it until Close stops it.
func (mr *MultiRunner) help(k int, h *helper) {
	defer mr.exited.Done()
	for gen := uint64(1); ; gen++ {
		h.w.await(&h.gen, gen)
		if h.stop {
			return
		}
		mr.runShards(k)
		if mr.pending.Add(^uint64(0)) == 0 {
			mr.coord.notify()
		}
	}
}

// runShards runs runner k's shards up to their horizons.
func (mr *MultiRunner) runShards(k int) {
	for i := k; i < len(mr.Lists); i += mr.runners {
		mr.Lists[i].RunBefore(mr.limits[i])
	}
}

// parallelEvents is the fewest events per window, on a recent average,
// that makes handing windows to helpers pay: below it (an incast's lone
// busy pod, a closed-loop lull) the handoff costs more than splitting the
// window's events saves, and windows run inline.
const parallelEvents = 32

// runWindow executes one window: every shard runs its pending events up to
// its own precomputed horizon, in parallel when runParallel decides it
// pays and inline on the coordinator otherwise.
func (mr *MultiRunner) runWindow() {
	mr.windows++
	fired := mr.Executed()
	if !mr.runParallel() {
		for i, el := range mr.Lists {
			el.RunBefore(mr.limits[i])
		}
	}
	// load is eight times a moving average of events per window, with
	// each window weighing one eighth.
	mr.load = mr.load - mr.load/8 + mr.Executed() - fired
}

// runParallel runs the window on the runners and reports true, or reports
// false without running anything when the window is not worth the
// handoff: recent windows were small, or fewer than two runners own
// shards with work in this one.
//
// The atomic handoff is the happens-before edge the single-writer
// mailboxes rely on: the coordinator's writes (horizons, exchanged
// events) precede its bump of a helper's gen, which precedes everything
// the helper then does, and the helper's shard writes precede its
// decrement of pending, which precedes the coordinator's next exchange.
func (mr *MultiRunner) runParallel() bool {
	if mr.runners < 2 || mr.load < 8*parallelEvents {
		return false
	}
	clear(mr.busy[:mr.runners])
	nBusy := 0
	for i, el := range mr.Lists {
		if el.NextAt() < mr.limits[i] && !mr.busy[i%mr.runners] {
			mr.busy[i%mr.runners] = true
			nBusy++
		}
	}
	if nBusy < 2 {
		return false
	}
	mr.parallel++
	helpers := uint64(nBusy)
	if mr.busy[0] {
		helpers--
	}
	mr.pending.Store(helpers)
	for k, h := range mr.helpers[:mr.runners-1] {
		if mr.busy[k+1] {
			h.gen.Add(1)
			h.w.notify()
		}
	}
	mr.runShards(0)
	mr.coord.await(&mr.pending, 0)
	return true
}
