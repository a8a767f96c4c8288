package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"ndp/internal/core"
	"ndp/internal/harness"
	"ndp/internal/sim"
	"ndp/internal/stats"
	"ndp/internal/topo"
	"ndp/internal/workload"
	"ndp/scenario"
)

// This file drives one simulation through the program's layer surfaces
// (scenario Build/Validate/Hash, harness Transport.Build and StartFlow,
// workload.ClosedLoop, sim.Runner.RunUntil, topo counters, Net.Close) the
// same way scenario.RunWithStats does internally, so the benchmark can
// time set-up on its own and put spans around each layer. The traced run
// must reproduce RunWithStats exactly; the non-perturbation check compares
// the two on every traced simulation.

// sampleEvery is the simulated interval at which the traced run slices
// RunUntil to sample heap depth and packets in flight.
const sampleEvery = 50 * sim.Microsecond

// simOut is what one simulation produced, in the form the non-perturbation
// and digest checks compare.
type simOut struct {
	events, hops, leaked int64
	counters             topo.SwitchStats
	launched, completed  int
	fcts, goodput        []float64
}

// fromMetrics views an untraced RunWithStats result as a simOut.
func fromMetrics(m *scenario.Metrics, st scenario.RunStats) simOut {
	return simOut{
		events: st.Events, hops: st.PacketHops, leaked: st.PacketsLeaked,
		counters: topo.SwitchStats{Drops: m.Switch.Drops, Trims: m.Switch.Trims, Marks: m.Switch.Marks, Bounces: m.Switch.Bounces},
		launched: m.FlowsLaunched, completed: m.FlowsCompleted,
		fcts: m.FCTsUs, goodput: m.GoodputGbps,
	}
}

// diff names the first observable in which two simulations differ, or
// returns "" when they agree on all of them.
func (a simOut) diff(b simOut) string {
	switch {
	case a.events != b.events:
		return fmt.Sprintf("events %d vs %d", a.events, b.events)
	case a.hops != b.hops:
		return fmt.Sprintf("packet hops %d vs %d", a.hops, b.hops)
	case a.leaked != b.leaked:
		return fmt.Sprintf("leaked packets %d vs %d", a.leaked, b.leaked)
	case a.counters != b.counters:
		return fmt.Sprintf("switch counters %+v vs %+v", a.counters, b.counters)
	case a.launched != b.launched || a.completed != b.completed:
		return fmt.Sprintf("flows launched/completed %d/%d vs %d/%d", a.launched, a.completed, b.launched, b.completed)
	case !slices.Equal(a.fcts, b.fcts):
		return "per-flow completion times differ"
	case !slices.Equal(a.goodput, b.goodput):
		return "per-flow goodput differs"
	}
	return ""
}

// simRun is one simulation between set-up and teardown.
type simRun struct {
	spec scenario.Spec
	seed uint64 // the repetition seed RunWithStats derives from Spec.Seed
	net  harness.Net
	tr   *tracer
	op   int
	root int // the operation's span
	cur  int // the span new child spans attach to

	setup time.Duration // Spec to first event

	flows    []harness.Flow
	launched int
	cl       *workload.ClosedLoop
	recs     [][]rpcDone
	slots    []rpcSlot

	// Traced-run samples, taken between RunUntil slices.
	depth, inflight []float64
	runWall         time.Duration
	runCPU          time.Duration
}

// rpcDone and rpcSlot mirror scenario's closed-loop RPC bookkeeping.
type rpcDone struct {
	at       sim.Time
	us       float64
	src, dst int
}

type rpcSlot struct {
	start    sim.Time
	shard    int
	src, dst int
	inner    func(at sim.Time)
	onDone   func(at sim.Time)
}

// setUp takes a workload from its Spec to the instant before the first
// event runs: Build, Validate and Hash, topology and transport
// construction, and the initial flow starts. Spans go to tr (nil: none).
func setUp(build func() (scenario.Spec, error), tr *tracer, op, root int) (*simRun, error) {
	t0 := now()
	sp := tr.begin("scenario.build", op, root)
	spec, err := build()
	if err == nil {
		err = scenario.Validate(spec)
	}
	if err == nil {
		_ = spec.Hash() // part of every submission's set-up; the value is not needed here
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tp, err := transportOf(spec)
	if err != nil {
		return nil, err
	}
	bf, err := topologyOf(spec.Topology)
	if err != nil {
		return nil, err
	}
	if len(spec.Failures) > 0 || spec.Repeats > 1 {
		return nil, fmt.Errorf("perfbench: link failures and repeats are not driven")
	}
	r := &simRun{spec: spec, seed: harness.SweepSeeds(spec.Seed, 1)[0], tr: tr, op: op, root: root, cur: root}
	sp = tr.begin("topo.build", op, root)
	r.net = tp.Build(bf, topo.Config{Seed: r.seed, Shards: spec.Shards})
	tr.end(sp)
	switch w := spec.Workload; {
	case w.Kind == "incast":
		r.startIncast()
	case w.Kind == "permutation" && w.FlowSize < 0:
		r.startPermutation()
	case w.Kind == "rpc":
		r.startRPC()
	default:
		r.net.Close()
		return nil, fmt.Errorf("perfbench: workload %s is not driven", w.Kind)
	}
	r.setup = now().Sub(t0)
	return r, nil
}

// transportOf mirrors scenario's transport recipe for the transports the
// benchmark drives.
func transportOf(s scenario.Spec) (harness.Transport, error) {
	mtu := s.MTU
	if mtu == 0 {
		mtu = 9000
	}
	switch s.Transport {
	case scenario.NDP, "":
		h := core.DefaultConfig()
		h.MTU = mtu
		h.DisablePathPenalty = s.DisablePathPenalty
		return harness.NDPTransport{Switch: core.DefaultSwitchConfig(mtu), Host: h}, nil
	case scenario.MPTCP:
		return harness.DefaultMPTCPTransport(mtu), nil
	}
	return nil, fmt.Errorf("perfbench: transport %s is not driven", s.Transport)
}

// topologyOf mirrors scenario's topology recipe for FatTrees.
func topologyOf(t scenario.Topology) (harness.BuildFunc, error) {
	if t.Kind != "fattree" {
		return nil, fmt.Errorf("perfbench: topology %s is not driven", t.Kind)
	}
	if t.Oversub > 1 {
		return harness.OversubFatTreeBuilder(t.K, t.Oversub), nil
	}
	return harness.FatTreeBuilder(t.K), nil
}

// startFlow is Net.StartFlow inside a harness.start_flow span.
func (r *simRun) startFlow(src, dst int, size int64, o harness.StartOpts) harness.Flow {
	sp := r.tr.begin("harness.start_flow", r.op, r.cur)
	f := r.net.StartFlow(src, dst, size, o)
	r.tr.end(sp)
	return f
}

func (r *simRun) startIncast() {
	w := r.spec.Workload
	senders := workload.IncastSenders(w.Receiver, w.Degree, r.net.Cluster().NumHosts())
	for i, s := range senders {
		r.startFlow(s, w.Receiver, w.FlowSize, harness.StartOpts{
			Priority: w.PrioritizeLast && i == len(senders)-1,
			OnDone:   func(sim.Time) {},
		})
	}
	r.launched = len(senders)
}

func (r *simRun) startPermutation() {
	dst := workload.Permutation(r.net.Cluster().NumHosts(), sim.NewRand(r.seed))
	r.flows = make([]harness.Flow, len(dst))
	for src, d := range dst {
		r.flows[src] = r.startFlow(src, d, -1, harness.StartOpts{})
	}
	r.launched = len(dst)
}

func (r *simRun) startRPC() {
	w := r.spec.Workload
	sizes := workload.FacebookWeb()
	if w.FlowSize > 0 {
		sizes = workload.NewSizeDist(map[int64]float64{w.FlowSize: 1})
	}
	gap := w.Gap
	if gap == 0 {
		gap = time.Millisecond
	}
	c := r.net.Cluster()
	r.recs = make([][]rpcDone, c.Shards())
	r.slots = make([]rpcSlot, c.NumHosts()*w.Degree)
	r.cl = &workload.ClosedLoop{
		Hosts:         c.NumHosts(),
		Conns:         w.Degree,
		Gap:           simDur(gap),
		Sizes:         sizes,
		Seed:          r.seed + 7,
		NotifyLatency: c.MinPathDelay,
		Defer:         c.Defer,
		DoneHost:      r.net.DoneHost,
		Start:         r.startRPCFlow,
	}
	sp := r.tr.begin("workload.closed_loop", r.op, r.cur)
	r.cl.Run()
	r.tr.end(sp)
}

// startRPCFlow is the closed loop's Start callback: record the flow's start
// and completion per slot, as scenario's RPC runner does.
func (r *simRun) startRPCFlow(slot, src, dst int, size int64, done func(at sim.Time)) {
	sl := &r.slots[slot]
	if sl.onDone == nil {
		sl.onDone = func(at sim.Time) {
			r.recs[sl.shard] = append(r.recs[sl.shard], rpcDone{at: at, us: (at - sl.start).Micros(), src: sl.src, dst: sl.dst})
			sl.inner(at)
		}
	}
	c := r.net.Cluster()
	sl.start = c.HostList()[src].EventList().Now()
	sl.shard = c.ShardOfHost(r.net.DoneHost(src, dst))
	sl.src, sl.dst = src, dst
	sl.inner = done
	r.startFlow(src, dst, size, harness.StartOpts{OnDone: sl.onDone})
}

// shardLists exposes the per-shard event lists every topo.Network has.
type shardLists interface {
	ShardEventList(shard int) *sim.EventList
}

// run drives the simulation to its end, sampling between RunUntil slices,
// then collects counters and tears the network down.
func (r *simRun) run() (simOut, []uint64) {
	var out simOut
	c := r.net.Cluster()
	out.launched = r.launched
	switch w := r.spec.Workload; w.Kind {
	case "rpc":
		deadline := r.spec.Deadline
		if deadline == 0 {
			deadline = 20 * time.Millisecond
		}
		r.advance(simDur(deadline))
		out.launched = int(r.cl.Launched())
		sp := r.tr.begin("scenario.merge", r.op, r.root)
		var all []rpcDone
		for _, rec := range r.recs {
			all = append(all, rec...)
		}
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].at != all[j].at {
				return all[i].at < all[j].at
			}
			if all[i].dst != all[j].dst {
				return all[i].dst < all[j].dst
			}
			return all[i].src < all[j].src
		})
		for _, d := range all {
			out.fcts = append(out.fcts, d.us)
		}
		out.completed = len(all)
		r.tr.end(sp)
	default: // unbounded permutation
		warm, window := simDur(r.spec.Warmup), simDur(r.spec.Window)
		r.advance(warm)
		base := make([]int64, len(r.flows))
		for i, f := range r.flows {
			base[i] = f.AckedBytes()
		}
		r.advance(warm + window)
		sp := r.tr.begin("scenario.merge", r.op, r.root)
		out.goodput = make([]float64, len(r.flows))
		for i, f := range r.flows {
			out.goodput[i] = stats.Gbps(f.AckedBytes()-base[i], window)
		}
		r.tr.end(sp)
	}
	sp := r.tr.begin("topo.collect", r.op, r.root)
	out.counters = c.CollectStats()
	out.events = int64(r.net.Runner().Executed())
	out.hops = c.PacketHops()
	perShard := make([]uint64, c.Shards())
	if sl, ok := c.(shardLists); ok {
		for i := range perShard {
			perShard[i] = sl.ShardEventList(i).Executed()
		}
	}
	r.tr.end(sp)
	sp = r.tr.begin("harness.close", r.op, r.root)
	r.net.Close()
	r.tr.end(sp)
	out.leaked = c.PacketsInUse()
	return out, perShard
}

// advance runs the simulation to `to` in sampleEvery slices, each inside a
// sim.run span, sampling the event heap depth (summed over shard lists)
// and packets in flight after each. Slicing never changes results: event
// order depends only on timestamps and ord keys.
func (r *simRun) advance(to sim.Time) {
	runner := r.net.Runner()
	c := r.net.Cluster()
	sl, _ := c.(shardLists)
	t0, cpu0 := now(), cpuTime()
	for t := runner.Now(); t < to; {
		t = min(t+sampleEvery, to)
		sp := r.tr.begin("sim.run", r.op, r.root)
		r.cur = sp
		runner.RunUntil(t)
		r.cur = r.root
		r.tr.end(sp)
		depth := 0
		for i := 0; sl != nil && i < c.Shards(); i++ {
			depth += sl.ShardEventList(i).Len()
		}
		r.depth = append(r.depth, float64(depth))
		r.inflight = append(r.inflight, float64(c.PacketsInUse()))
	}
	r.runWall += now().Sub(t0)
	r.runCPU += cpuTime() - cpu0
}

// simDur converts a wall-clock duration to simulated time.
func simDur(d time.Duration) sim.Time {
	return sim.Time(d.Nanoseconds()) * sim.Nanosecond
}
