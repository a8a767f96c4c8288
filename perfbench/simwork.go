package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"ndp/scenario"
)

const (
	// setupsPerOp is how many times a run sets its simulation up (and
	// tears it down again without running) before each operation, to time
	// set-up.
	setupsPerOp = 3
	// minOps is the fewest operations a run measures, however short.
	minOps = 3
)

// simWorkload is one simulation, repeated for the run's duration: every
// repetition uses the run's seed, so all of them must agree bit for bit.
type simWorkload struct {
	name string
	spec func(seed uint64) (scenario.Spec, error)
}

// serial are the options every simulation workload shares: one repetition,
// run serially, seeded by the benchmark's seed argument.
func serial(seed uint64) []scenario.Option {
	return []scenario.Option{scenario.WithSeed(seed), scenario.WithWorkers(1), scenario.WithRepeats(1)}
}

func permNDP(seed uint64) (scenario.Spec, error) {
	return scenario.Build("permutation", scenario.Params{Hosts: 128}, append(serial(seed),
		scenario.WithWarmup(time.Millisecond), scenario.WithWindow(2*time.Millisecond))...)
}

func rpcNDP(seed uint64) (scenario.Spec, error) {
	return scenario.Build("rpc", scenario.Params{Hosts: 128}, append(serial(seed),
		scenario.WithDeadline(10*time.Millisecond))...)
}

func permMPTCPShards2(seed uint64) (scenario.Spec, error) {
	return scenario.Build("permutation", scenario.Params{Hosts: 128}, append(serial(seed),
		scenario.WithTransport(scenario.MPTCP), scenario.WithShards(2),
		scenario.WithWarmup(time.Millisecond), scenario.WithWindow(2*time.Millisecond))...)
}

// digest is the hex SHA-256 of the Metrics' JSON encoding.
func digest(m *scenario.Metrics) (string, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// referenceSpec returns the Spec whose digest is committed for a workload:
// the unsharded twin when the workload shards, so every sharded run
// re-checks shard determinism against it.
func referenceSpec(spec scenario.Spec) scenario.Spec {
	if spec.Shards > 1 {
		return spec.With(scenario.WithShards(1))
	}
	return spec
}

// simCheck holds what every repetition of one simulation must agree on.
type simCheck struct {
	workload  string
	seed      uint64
	committed string // "" when no digest is committed for this seed
	first     string
	ref       *simOut
}

// check returns why one untraced simulation's result is wrong, or "".
func (c *simCheck) check(m *scenario.Metrics, st scenario.RunStats, err error) string {
	if err != nil {
		return err.Error()
	}
	if st.PacketsLeaked != 0 {
		return fmt.Sprintf("%d packets leaked after Close", st.PacketsLeaked)
	}
	if m.FlowsLaunched == 0 {
		return "no flows launched"
	}
	d, err := digest(m)
	if err != nil {
		return err.Error()
	}
	if c.first == "" {
		c.first = d
		out := fromMetrics(m, st)
		c.ref = &out
	}
	if d != c.first {
		return fmt.Sprintf("Metrics digest %s differs from the run's first %s", d, c.first)
	}
	if c.committed != "" && d != c.committed {
		return fmt.Sprintf("Metrics digest %s differs from the committed %s for %s seed %d", d, c.committed, c.workload, c.seed)
	}
	return ""
}

func (w simWorkload) run(cfg runConfig, r *report) error {
	spec, err := w.spec(cfg.seed)
	if err != nil {
		return err
	}
	chk := &simCheck{workload: w.name, seed: cfg.seed, committed: committedDigest(w.name, cfg.seed)}
	if cfg.tracer != nil {
		return w.runTraced(cfg, spec, chk, r)
	}
	threads := max(spec.Shards, 1)
	build := func() (scenario.Spec, error) { return w.spec(cfg.seed) }
	// The first set-up grows the heap the later ones reuse; it is not timed.
	if _, err := timeSetUp(build, 1); err != nil {
		return err
	}
	start := now()
	var setups []float64
	var walls, rawWalls, cpus, heaps, allocMB, allocs, hops []float64
	before := kernelTime(threads)
	for n := 0; n < minOps || now().Sub(start) < cfg.dur; n++ {
		var m *scenario.Metrics
		var st scenario.RunStats
		s := measureAt(1, func() { m, st, err = scenario.RunWithStats(spec) })
		after := kernelTime(threads)
		scale := bracketScale(before, after)
		// Set-up samples are spread over the run, between the operations.
		setupKernel := after
		if threads > 1 {
			setupKernel = kernelTime(1)
		}
		for range setupsPerOp {
			t, err := timeSetUp(build, calibRef/setupKernel.Seconds())
			if err != nil {
				return err
			}
			setups = append(setups, t)
		}
		before = after
		problem := chk.check(m, st, err)
		r.op(problem)
		if problem != "" {
			continue
		}
		wall := s.wall.Seconds() * scale
		walls = append(walls, wall)
		rawWalls = append(rawWalls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds()*scale)
		heaps = append(heaps, float64(s.peakHeap)/1e6)
		allocMB = append(allocMB, float64(s.allocBytes)/1e6)
		allocs = append(allocs, float64(s.allocs))
		hops = append(hops, float64(st.PacketHops))
	}
	if ref := referenceSpec(spec); ref.Shards != spec.Shards {
		m, st, err := scenario.RunWithStats(ref)
		problem := chk.check(m, st, err)
		if problem != "" {
			problem = "unsharded twin: " + problem
		}
		r.op(problem)
	}

	setup := median(setups)
	hopsPerS := make([]float64, len(walls))
	for i, w := range walls {
		hopsPerS[i] = hops[i] / (w - setup)
	}
	n := fmt.Sprintf("n=%d", len(walls))
	r.set("setup_s", setup, fmt.Sprintf("median of n=%d set-ups, reference seconds", len(setups)))
	r.set("wall_s", median(walls), fmt.Sprintf("median, %s, reference seconds (raw median %.4g s)", n, median(rawWalls)))
	r.set("cpu_s", median(cpus), "median, "+n+", reference seconds")
	r.set("hops_per_s", median(hopsPerS), "median over the run phase (wall_s - setup_s), "+n)
	r.set("peak_heap_mb", median(heaps), "median, "+n)
	r.set("alloc_mb", median(allocMB), "median, "+n)
	r.set("allocs", median(allocs), "median, "+n)
	setJobLatencies(r, walls, "one job = one simulation")
	r.set("jobs_per_s", float64(len(walls))/sum(walls), fmt.Sprintf("n=%d simulations back to back", len(walls)))
	return nil
}

// timeSetUp sets a simulation up and tears it down unrun, returning the
// set-up time in reference seconds.
func timeSetUp(build func() (scenario.Spec, error), scale float64) (float64, error) {
	runtime.GC()
	sr, err := setUp(build, nil, 0, -1)
	if err != nil {
		return 0, err
	}
	sr.net.Close()
	return sr.setup.Seconds() * scale, nil
}

// setJobLatencies reports a per-operation latency distribution, given in
// seconds, as job_p50_ms and job_p90_ms.
func setJobLatencies(r *report, secs []float64, what string) {
	p90 := tailPercentile(secs, 0.9)
	r.set("job_p50_ms", median(secs)*1000, fmt.Sprintf("median, n=%d, %s", len(secs), what))
	r.set("job_p90_ms", p90.Value*1000, fmt.Sprintf("p%.4g of n=%d (highest percentile up to p90 with %d samples beyond)", p90.Q*100, p90.N, minBeyond))
}

// runTraced first repeats the simulation untraced for half the run, then
// traced under a CPU profile for the other half. Every traced simulation
// must reproduce the untraced one exactly.
func (w simWorkload) runTraced(cfg runConfig, spec scenario.Spec, chk *simCheck, r *report) error {
	threads := max(spec.Shards, 1)
	start := now()
	var plain []float64
	var err error
	for n := 0; n < 2 || now().Sub(start) < cfg.dur/2; n++ {
		var m *scenario.Metrics
		var st scenario.RunStats
		s := measure(threads, func() { m, st, err = scenario.RunWithStats(spec) })
		problem := chk.check(m, st, err)
		r.op(problem)
		if problem == "" {
			plain = append(plain, s.wall.Seconds()*s.scale)
		}
	}
	if chk.ref == nil {
		return fmt.Errorf("%s: no untraced simulation succeeded", w.name)
	}

	tr := cfg.tracer
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	gc0, busy0 := gcCPU()
	var traced []float64
	scales := map[int]float64{}
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	mid := now()
	for op := 0; op < 2 || now().Sub(mid) < cfg.dur/2; op++ {
		var sr *simRun
		var out simOut
		var perShard []uint64
		s := measure(threads, func() {
			root := tr.begin("simulation", op, -1)
			defer tr.end(root)
			sr, err = setUp(func() (scenario.Spec, error) { return w.spec(cfg.seed) }, tr, op, root)
			if err == nil {
				out, perShard = sr.run()
			}
		})
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		problem := ""
		if d := out.diff(*chk.ref); d != "" {
			problem = "traced run perturbed the simulation: " + d
		}
		r.op(problem)
		traced = append(traced, s.wall.Seconds()*s.scale)
		scales[op] = s.scale
		add("sim.events", float64(out.events))
		add("sim.events_per_hop", float64(out.events)/float64(out.hops))
		add("sim.heap_depth_mean", mean(sr.depth))
		add("sim.heap_depth_max", maxOf(sr.depth))
		add("sim.shard_event_skew", skew(perShard))
		add("sim.shard_parallelism", sr.runCPU.Seconds()/sr.runWall.Seconds())
		add("fabric.hops", float64(out.hops))
		add("fabric.inflight_mean", mean(sr.inflight))
		add("fabric.inflight_max", maxOf(sr.inflight))
		add("fabric.leaked", float64(out.leaked))
		add("fabric.drops", float64(out.counters.Drops))
		add("fabric.marks", float64(out.counters.Marks))
		add("core.trims", float64(out.counters.Trims))
		add("core.bounces", float64(out.counters.Bounces))
		add("core.trims_per_hop", float64(out.counters.Trims)/float64(out.hops))
		add("workload.flows_launched", float64(out.launched))
		add("workload.flows_completed", float64(out.completed))
		add("workload.completion_ratio", float64(out.completed)/float64(out.launched))
		add("runtime.gc_cycles", float64(s.gcCycles))
	}
	pprof.StopCPUProfile()
	gc1, busy1 := gcCPU()

	n := fmt.Sprintf("median, n=%d simulations", len(traced))
	for name, vs := range per {
		r.set(name, median(vs), n)
	}
	spanMetrics(r, tr.snapshot(), scales, n)
	r.set("runtime.gc_cpu_frac", (gc1-gc0)/(busy1-busy0), "GC CPU / busy CPU over the traced half")
	if err := profileMetrics(r, prof.Bytes()); err != nil {
		return err
	}
	r.set("trace.overhead_s", median(traced)-median(plain),
		fmt.Sprintf("median traced wall_s (n=%d) - median untraced wall_s (n=%d)", len(traced), len(plain)))
	r.notApplicable("the simulation runs in-process, without the daemon",
		"simd.submit_ms", "simd.queue_wait_ms", "simd.run_ms", "simd.deliver_ms",
		"simd.cache_hit_ratio", "simd.cache_hit_ms", "simd.refused", "simd.heap_per_job_kb")
	return nil
}

// spanMetrics reports per-operation span self times in reference seconds,
// medians across ops.
func spanMetrics(r *report, spans []span, scales map[int]float64, note string) {
	per := map[string][]float64{}
	for op, t := range foldSpans(spans) {
		for name := range t.self {
			t.self[name] *= scales[op]
		}
		per["sim.run_s"] = append(per["sim.run_s"], t.self["sim.run"])
		per["topo.build_s"] = append(per["topo.build_s"], t.self["topo.build"])
		per["harness.close_s"] = append(per["harness.close_s"], t.self["harness.close"])
		per["scenario.build_s"] = append(per["scenario.build_s"], t.self["scenario.build"])
		per["scenario.merge_s"] = append(per["scenario.merge_s"], t.self["scenario.merge"])
		if c := t.count["harness.start_flow"]; c > 0 {
			per["harness.start_flow_us"] = append(per["harness.start_flow_us"], t.self["harness.start_flow"]/float64(c)*1e6)
		}
		per["harness.start_flows"] = append(per["harness.start_flows"], float64(t.count["harness.start_flow"]))
	}
	for name, vs := range per {
		r.set(name, median(vs), note+" (span self time, reference seconds)")
	}
}

// calibrateFunc is the calibration kernel's symbol, whose samples the
// layer attribution leaves out: it runs between operations, not in them.
var calibrateFunc = runtime.FuncForPC(reflect.ValueOf((*calibKernel).run).Pointer()).Name()

// profileMetrics buckets the traced run's CPU profile by layer.
func profileMetrics(r *report, prof []byte) error {
	samples, err := parseCPUProfile(prof)
	if err != nil {
		return err
	}
	samples = slices.DeleteFunc(samples, func(s leafSample) bool { return s.fn == calibrateFunc })
	shares, unattributed, n := cpuShares(samples)
	for _, l := range profileLayers {
		r.set(l+".cpu_frac", shares[l], fmt.Sprintf("share of %d CPU samples by leaf-frame package", n))
	}
	r.set("trace.unattributed_frac", unattributed, "leaf frames in no layer: benchmark code, standard library outside the runtime")
	r.set("trace.cpu_samples", float64(n), "CPU profile samples in the traced half")
	return nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// skew is the busiest shard's event count over the mean shard's.
func skew(perShard []uint64) float64 {
	var sum, top uint64
	for _, e := range perShard {
		sum += e
		top = max(top, e)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(perShard)) / float64(sum)
}
