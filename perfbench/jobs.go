package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"ndp/internal/sim"
	"ndp/internal/simd"
	"ndp/scenario"
)

// The jobs-daemon workload: an in-process simd.Server on loopback HTTP,
// driven by closed-loop clients that each submit a job, wait for its SSE
// result event, and submit the next.
const (
	daemonWorkers = 2
	jobClients    = 2
	// Every repeatEvery-th submission repeats one of the client's recent
	// jobs (same Spec and seed), which the result cache should answer.
	repeatEvery  = 4
	repeatWindow = 16
	// Every verifyEvery-th executed job, up to maxVerify per session, is
	// re-run directly through scenario.RunWithStats after the session: its
	// Metrics must match the daemon's byte for byte, and its packet hops
	// over the daemon's run time give hops_per_s.
	verifyEvery = 8
	maxVerify   = 96
	// The session runs in phases of jobPhase; between phases, with every
	// client idle, the calibration kernel times the host (see
	// kernelTime) and one job of each kind is set up to time set-up.
	jobPhase = 2 * time.Second
)

// jobKinds are the registry scenarios the clients submit, 16-host each.
const jobKinds = 3

// randomJobSpec draws one job of the given kind: sizes vary continuously
// so a job takes roughly 5-70ms of host time.
func randomJobSpec(rng *sim.Rand, kind int) (scenario.Spec, error) {
	opts := serial(rng.Uint64())
	switch kind {
	case 0:
		return scenario.Build("incast", scenario.Params{Hosts: 16, Degree: 4 + rng.Intn(12), FlowSize: 200_000 + rng.Int63n(2_800_000)}, opts...)
	case 1:
		window := time.Duration(500+rng.Intn(2500)) * time.Microsecond
		return scenario.Build("permutation", scenario.Params{Hosts: 16}, append(opts,
			scenario.WithWarmup(500*time.Microsecond), scenario.WithWindow(window))...)
	default:
		deadline := time.Duration(1000+rng.Intn(3000)) * time.Microsecond
		return scenario.Build("rpc", scenario.Params{Hosts: 16, Degree: 1 + rng.Intn(2)}, append(opts,
			scenario.WithDeadline(deadline))...)
	}
}

// jobGen is one client's deterministic submission sequence.
type jobGen struct {
	rng       *sim.Rand
	client, n int
	recent    []int // indices of recent original submissions
	bodies    map[int][]byte
}

func newJobGen(seed uint64, client int) *jobGen {
	return &jobGen{rng: sim.NewRand(seed), client: client, bodies: map[int][]byte{}}
}

// next returns the next request body and, for a repeat, the index of the
// submission it repeats (-1 otherwise).
func (g *jobGen) next() ([]byte, int, error) {
	j := g.n
	g.n++
	if j%repeatEvery == repeatEvery-1 && len(g.recent) > 0 {
		orig := g.recent[len(g.recent)-1-g.rng.Intn(len(g.recent))]
		return g.bodies[orig], orig, nil
	}
	spec, err := randomJobSpec(g.rng, (j+g.client)%jobKinds)
	if err != nil {
		return nil, -1, err
	}
	body, err := json.Marshal(simd.JobRequest{Spec: &spec})
	if err != nil {
		return nil, -1, err
	}
	g.recent = append(g.recent, j)
	g.bodies[j] = body
	if len(g.recent) > repeatWindow {
		delete(g.bodies, g.recent[0])
		g.recent = g.recent[1:]
	}
	return body, -1, nil
}

// jobResult is what a client saw of one submission.
type jobResult struct {
	repeatOf int
	body     []byte // kept only for jobs picked for direct verification
	problem  string
	refused  bool
	cached   bool
	submit   time.Duration // POST round trip
	latency  time.Duration // POST to SSE result event
	digest   string        // of the result's Metrics JSON
	events   int64
	queued   time.Duration // started_at - submitted_at
	ran      time.Duration // finished_at - started_at
	served   time.Duration // finished_at - submitted_at
	scale    float64       // calibration scale of the job's phase
}

// jobStatus is the part of the daemon's job Status the client reads.
type jobStatus struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Cached      bool            `json:"cached"`
	Events      int64           `json:"events"`
	Error       string          `json:"error"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at"`
	FinishedAt  *time.Time      `json:"finished_at"`
	Metrics     json.RawMessage `json:"metrics"`
}

// submitAndWait posts one job and reads its event stream to the result.
func submitAndWait(hc *http.Client, base string, body []byte, tr *tracer, op int) jobResult {
	res := jobResult{repeatOf: -1}
	root := tr.begin("job", op, -1)
	defer tr.end(root)
	t0 := now()
	sp := tr.begin("simd.submit", op, root)
	resp, err := hc.Post(base+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		res.problem = err.Error()
		return res
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.submit = now().Sub(t0)
	tr.end(sp)
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) {
		res.refused = true
		res.problem = fmt.Sprintf("POST /api/jobs: %d %s %v", resp.StatusCode, strings.TrimSpace(string(b)), err)
		return res
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		res.problem = "POST /api/jobs: " + err.Error()
		return res
	}
	sp = tr.begin("simd.wait", op, root)
	final, err := awaitResult(hc, base+"/api/jobs/"+st.ID+"/events")
	res.latency = now().Sub(t0)
	tr.end(sp)
	switch {
	case err != nil:
		res.problem = err.Error()
	case final.State != "done":
		res.problem = fmt.Sprintf("job %s ended %s: %s", st.ID, final.State, final.Error)
	case final.StartedAt == nil || final.FinishedAt == nil || len(final.Metrics) == 0:
		res.problem = fmt.Sprintf("job %s result lacks timestamps or Metrics", st.ID)
	default:
		sum := sha256.Sum256(final.Metrics)
		res.digest = hex.EncodeToString(sum[:])
		res.cached = final.Cached
		res.events = final.Events
		res.queued = final.StartedAt.Sub(final.SubmittedAt)
		res.ran = final.FinishedAt.Sub(*final.StartedAt)
		res.served = final.FinishedAt.Sub(final.SubmittedAt)
	}
	return res
}

// awaitResult reads a job's Server-Sent Events up to the result event.
func awaitResult(hc *http.Client, url string) (jobStatus, error) {
	var st jobStatus
	resp, err := hc.Get(url)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "result":
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st)
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, errors.New("event stream ended without a result")
}

// sessionOut is one daemon session: every client's results and the
// process cost of the whole session.
type sessionOut struct {
	results    [][]jobResult
	setups     []float64 // job set-up times, reference seconds
	cost       sample    // summed over the phases; peakHeap is their maximum
	scales     []float64 // per phase
	peaks      []float64 // largest live heap per phase, bytes
	heapPerJob float64   // bytes the server still holds per job afterwards
}

// runSession starts a daemon, runs the clients against it for dur, and
// drains it.
func runSession(seed uint64, dur time.Duration, tr *tracer) (*sessionOut, error) {
	srv := simd.New(simd.Config{Workers: daemonWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // stops the idle workers; the listen error is what matters
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * jobClients}}

	out := &sessionOut{results: make([][]jobResult, jobClients)}
	seeds := sim.NewRand(seed)
	clientSeeds := make([]uint64, jobClients)
	for i := range clientSeeds {
		clientSeeds[i] = seeds.SplitSeed()
	}
	var base0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base0)
	var genErr error
	var errOnce sync.Once
	gens := make([]*jobGen, jobClients)
	for c := range gens {
		gens[c] = newJobGen(clientSeeds[c], c)
	}
	setupRng := sim.NewRand(seeds.SplitSeed())
	end := now().Add(dur)
	before := kernelTime(daemonWorkers)
	for now().Before(end) && genErr == nil {
		// Between phases every client is idle: set up one job of each kind
		// to time set-up. The kernel times the host before and after each
		// phase; the results of the phase's jobs are scaled once it ends.
		if genErr = timeJobSetUps(setupRng, out); genErr != nil {
			break
		}
		first := [jobClients]int{}
		for c := range first {
			first[c] = len(out.results[c])
		}
		phaseEnd := now().Add(jobPhase)
		if phaseEnd.After(end) {
			phaseEnd = end
		}
		ph := measureAt(1, func() {
			var wg sync.WaitGroup
			for c := range jobClients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for now().Before(phaseEnd) {
						j := len(out.results[c])
						body, repeatOf, err := gens[c].next()
						if err != nil {
							errOnce.Do(func() { genErr = err })
							return
						}
						res := submitAndWait(hc, base, body, tr, c<<24|j)
						res.repeatOf = repeatOf
						if repeatOf < 0 && !res.cached && j%verifyEvery == 0 {
							res.body = body
						}
						out.results[c] = append(out.results[c], res)
					}
				}()
			}
			wg.Wait()
		})
		out.cost.add(ph)
		out.peaks = append(out.peaks, float64(ph.peakHeap))
		after := kernelTime(daemonWorkers)
		scale := bracketScale(before, after)
		out.scales = append(out.scales, scale)
		for c := range first {
			for i := first[c]; i < len(out.results[c]); i++ {
				out.results[c][i].scale = scale
			}
		}
		before = after
	}
	// The server still holds every job it ran; the heap growth over the
	// session, per job, is what each one costs it to keep.
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	jobs := 0
	for _, rs := range out.results {
		jobs += len(rs)
	}
	if jobs > 0 {
		out.heapPerJob = (float64(after.HeapAlloc) - float64(base0.HeapAlloc)) / float64(jobs)
	}

	hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drainErr := srv.Drain(ctx)
	shutErr := hs.Shutdown(ctx)
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	if err := errors.Join(genErr, drainErr, shutErr); err != nil {
		return nil, err
	}
	return out, nil
}

// timeJobSetUps sets up one job of each kind and records the set-up times.
func timeJobSetUps(rng *sim.Rand, out *sessionOut) error {
	scale := calibrationScale(1)
	for kind := range jobKinds {
		spec, err := randomJobSpec(rng, kind)
		if err != nil {
			return err
		}
		t, err := timeSetUp(func() (scenario.Spec, error) { return spec, nil }, scale)
		if err != nil {
			return err
		}
		out.setups = append(out.setups, t)
	}
	return nil
}

// verify re-runs the jobs picked for verification directly, marks any
// whose Metrics differ from the daemon's, and returns their summed packet
// hops and the daemon's summed run time for them in reference seconds.
func verify(results [][]jobResult) (hops int64, ran float64, n int) {
	for _, rs := range results {
		for i := range rs {
			res := &rs[i]
			if res.body == nil || res.problem != "" || n == maxVerify {
				continue
			}
			var req simd.JobRequest
			if err := json.Unmarshal(res.body, &req); err != nil || req.Spec == nil {
				res.problem = fmt.Sprintf("re-decoding the request: %v", err)
				continue
			}
			m, st, err := scenario.RunWithStats(*req.Spec)
			if err != nil {
				res.problem = "direct re-run: " + err.Error()
				continue
			}
			d, err := digest(m)
			if err != nil || d != res.digest {
				res.problem = "daemon Metrics differ from a direct scenario.RunWithStats of the same Spec"
				continue
			}
			if st.PacketsLeaked != 0 {
				res.problem = fmt.Sprintf("%d packets leaked", st.PacketsLeaked)
				continue
			}
			hops += st.PacketHops
			ran += res.ran.Seconds() * res.scale
			n++
		}
	}
	return hops, ran, n
}

// tally counts every submission as an operation, failing the refused,
// failed and wrong ones, and a repeat whose Metrics are not byte-identical
// to those of the job it repeats.
func tally(r *report, results [][]jobResult) {
	for _, rs := range results {
		for _, res := range rs {
			problem := res.problem
			if problem == "" && res.repeatOf >= 0 {
				if orig := rs[res.repeatOf]; orig.problem == "" && orig.digest != res.digest {
					problem = "repeated job's Metrics differ from the original's"
				}
			}
			r.op(problem)
		}
	}
}

// latencies returns the successful jobs' client-observed latencies in
// reference seconds, optionally only the cached (or only the executed) ones.
func latencies(results [][]jobResult, keep func(jobResult) bool) []float64 {
	var out []float64
	for _, rs := range results {
		for _, res := range rs {
			if res.problem == "" && keep(res) {
				out = append(out, res.latency.Seconds()*res.scale)
			}
		}
	}
	return out
}

func all(jobResult) bool { return true }

func runJobs(cfg runConfig, r *report) error {
	if cfg.tracer != nil {
		return runJobsTraced(cfg, r)
	}
	s, err := runSession(cfg.seed, cfg.dur, nil)
	if err != nil {
		return err
	}
	hops, ran, verified := verify(s.results)
	tally(r, s.results)
	lat := latencies(s.results, all)
	jobs := float64(r.attempted)
	// Session-wide host times convert at the phases' median scale.
	scale := median(s.scales)
	busy := s.cost.wall.Seconds() * scale
	n := fmt.Sprintf("n=%d jobs", len(lat))
	r.set("setup_s", median(s.setups), fmt.Sprintf("median of n=%d job set-ups, reference seconds", len(s.setups)))
	r.set("wall_s", median(lat), "median client-observed job latency, reference seconds, "+n)
	r.set("cpu_s", s.cost.cpu.Seconds()*scale/jobs, "process CPU per job over the session, reference seconds, "+n)
	if ran > 0 {
		r.set("hops_per_s", float64(hops)/ran, fmt.Sprintf("packet hops / daemon run time over n=%d re-verified jobs", verified))
	}
	r.set("peak_heap_mb", median(s.peaks)/1e6, fmt.Sprintf("median over n=%d phases of each phase's peak (session peak %.4g MB)", len(s.peaks), float64(s.cost.peakHeap)/1e6))
	r.set("alloc_mb", float64(s.cost.allocBytes)/1e6/jobs, "per job over the session, "+n)
	r.set("allocs", float64(s.cost.allocs)/jobs, "per job over the session, "+n)
	setJobLatencies(r, lat, "submit to SSE result, reference seconds")
	r.set("jobs_per_s", float64(len(lat))/busy, fmt.Sprintf("%d clients, %d daemon workers, %d phases", jobClients, daemonWorkers, len(s.scales)))
	return nil
}

// runJobsTraced runs an untraced session for half the run, then a traced
// one under a CPU profile; every job both sessions ran must have produced
// byte-identical Metrics.
func runJobsTraced(cfg runConfig, r *report) error {
	plain, err := runSession(cfg.seed, cfg.dur/2, nil)
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	gc0, busy0 := gcCPU()
	s, err := runSession(cfg.seed, cfg.dur/2, cfg.tracer)
	pprof.StopCPUProfile()
	gc1, busy1 := gcCPU()
	if err != nil {
		return err
	}
	verify(plain.results)
	verify(s.results)
	for c := range s.results {
		for j := range s.results[c] {
			if j >= len(plain.results[c]) {
				break
			}
			a, b := &s.results[c][j], plain.results[c][j]
			if a.problem == "" && b.problem == "" && a.digest != b.digest {
				a.problem = "traced session's Metrics differ from the untraced session's"
			}
		}
	}
	tally(r, plain.results)
	tally(r, s.results)

	var submits, queued, ran, deliver, events []float64
	jobs, cached, refused := 0, 0, 0
	for _, rs := range s.results {
		for _, res := range rs {
			jobs++
			if res.refused {
				refused++
			}
			if res.problem != "" {
				continue
			}
			ms := 1000 * res.scale // reference milliseconds per host second
			submits = append(submits, res.submit.Seconds()*ms)
			if res.cached {
				cached++
				continue
			}
			queued = append(queued, res.queued.Seconds()*ms)
			ran = append(ran, res.ran.Seconds()*ms)
			deliver = append(deliver, (res.latency-res.served).Seconds()*ms)
			events = append(events, float64(res.events))
		}
	}
	n := fmt.Sprintf("median, n=%d executed jobs", len(ran))
	r.set("simd.submit_ms", median(submits), fmt.Sprintf("median POST round trip, n=%d", len(submits)))
	r.set("simd.queue_wait_ms", median(queued), n)
	r.set("simd.run_ms", median(ran), n)
	r.set("simd.deliver_ms", median(deliver), n+": client latency minus server-side time")
	r.set("simd.cache_hit_ratio", float64(cached)/float64(jobs), fmt.Sprintf("%d of %d jobs", cached, jobs))
	hits := latencies(s.results, func(res jobResult) bool { return res.cached })
	r.set("simd.cache_hit_ms", median(hits)*1000, fmt.Sprintf("median latency of n=%d cache hits", len(hits)))
	r.set("simd.refused", float64(refused), "non-2xx submissions")
	r.set("simd.heap_per_job_kb", s.heapPerJob/1024, "heap the server retains per job")
	r.set("sim.events", median(events), n)
	r.set("runtime.gc_cycles", float64(s.cost.gcCycles)/float64(jobs), "per job over the traced session")
	r.set("runtime.gc_cpu_frac", (gc1-gc0)/(busy1-busy0), "GC CPU / busy CPU over the traced session")
	if err := profileMetrics(r, prof.Bytes()); err != nil {
		return err
	}
	traced, untraced := latencies(s.results, all), latencies(plain.results, all)
	r.set("trace.overhead_s", median(traced)-median(untraced),
		fmt.Sprintf("median traced job latency (n=%d) - untraced (n=%d)", len(traced), len(untraced)))
	r.notApplicable("per-simulation internals are not observable through the daemon's API",
		"sim.events_per_hop", "sim.heap_depth_mean", "sim.heap_depth_max", "sim.run_s",
		"sim.shard_event_skew", "sim.shard_parallelism",
		"fabric.hops", "fabric.inflight_mean", "fabric.inflight_max", "fabric.leaked", "fabric.drops", "fabric.marks",
		"core.trims", "core.bounces", "core.trims_per_hop",
		"topo.build_s", "harness.start_flow_us", "harness.start_flows", "harness.close_s",
		"workload.flows_launched", "workload.flows_completed", "workload.completion_ratio",
		"scenario.build_s", "scenario.merge_s")
	return nil
}
