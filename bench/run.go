package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parsel"
	"parsel/internal/machine"
	"parsel/internal/model"
	"parsel/internal/obs"
	"parsel/internal/selection"
)

// phaseQueries is where the timed phases start in the seeded query
// sequence, past every check pass.
const phaseQueries = 1 << 20

// repetitions is how many times a run repeats each workload.
const repetitions = 5

// config is one benchmark run.
type config struct {
	seed uint64
	// seconds is the measured time per workload, split evenly over the
	// repetitions' 1-client and 2-client phases.
	seconds float64
	reps    int
	trace   bool
	// tmp holds on-disk state (ingest_mixed's snapshot directory).
	tmp string
}

// setupsPerRep is how many times each repetition builds its program
// instance: a build takes milliseconds, so setup_s needs several.
const setupsPerRep = 3

// liveHeap is the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // the second cycle also frees what sync.Pool victims held
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// ratio is a/b, or 0 when b is 0 (a count over an empty phase).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// recorder is one closed-loop client's log for one phase. Its buffers
// are allocated before the memory baseline and reused, so latency logs
// do not count as program memory.
type recorder struct {
	// query and upload are wall latencies.
	query, upload []time.Duration
	// queryCPU is each query's scaled CPU time, in a 1-client phase.
	queryCPU []time.Duration
	failed   int
	errs     []string
}

func newRecorders(n int) []*recorder {
	recs := make([]*recorder, n)
	for i := range recs {
		recs[i] = &recorder{
			query:    make([]time.Duration, 0, 1<<15),
			upload:   make([]time.Duration, 0, 1<<12),
			queryCPU: make([]time.Duration, 0, 1<<15),
		}
	}
	return recs
}

// role is one closed-loop client: each call runs one operation.
type role func(ctx context.Context) (upload bool, err error)

// phaseResult is one closed-loop phase.
type phaseResult struct {
	// wall is how long the clients ran, the probes between windows
	// excluded.
	wall time.Duration
	// queries, cpu and queryCPU cover the cheaper half of the phase's
	// windows by scaled CPU time per query, the ones the host disturbed
	// least: their queries, their scaled CPU time, and (with one client)
	// each of their queries' scaled CPU time.
	queries  int
	cpu      time.Duration
	queryCPU []time.Duration
	// probes are the host probe times, in ms, taken around the windows.
	probes []float64
}

// window is one probeWindow of a phase.
type window struct {
	queries int
	cpu     time.Duration // scaled
	// from and to delimit the window's queries in the client's queryCPU
	// log, with one client.
	from, to int
}

func (w window) cpuPerQuery() float64 { return float64(w.cpu) / float64(w.queries) }

// runPhase runs one closed-loop client per role for d, in windows of
// probeWindow with a host probe before and after each, and scales the
// CPU times of each window by its two probes. The clients stop for a
// probe, and settle waits out the background work they left (snapshot
// persists), so the probe runs alone and the window's CPU time includes
// that work. With one client, each query's own CPU time is recorded too:
// the process runs on one P, so nothing but the query's own background
// work overlaps it.
//
// The scaling takes out most of what a busy host adds, not all: in its
// busiest spells serve_point slowed about 13% more than the probe. So the
// phase's CPU figures come from the cheaper half of its windows, which
// such spells touch least.
func runPhase(d time.Duration, roles []role, recs []*recorder, settle func()) phaseResult {
	for _, rec := range recs {
		rec.query, rec.upload, rec.queryCPU, rec.failed, rec.errs = rec.query[:0], rec.upload[:0], rec.queryCPU[:0], 0, nil
	}
	res := phaseResult{probes: []float64{hostProbe()}}
	log := &recs[0].queryCPU
	var wins []window
	for res.wall < d {
		w := window{queries: -queryCount(recs), from: len(*log)}
		cpu0 := cpuTime()
		res.wall += runClients(min(probeWindow, d-res.wall), roles, recs)
		settle()
		cpu := cpuTime() - cpu0
		p0 := res.probes[len(res.probes)-1]
		p1 := hostProbe()
		res.probes = append(res.probes, p1)
		w.queries += queryCount(recs)
		w.cpu, w.to = scaled(cpu, p0, p1), len(*log)
		for i := w.from; i < w.to; i++ {
			(*log)[i] = scaled((*log)[i], p0, p1)
		}
		if w.queries > 0 {
			wins = append(wins, w)
		}
	}
	slices.SortFunc(wins, func(a, b window) int { return cmp.Compare(a.cpuPerQuery(), b.cpuPerQuery()) })
	for _, w := range wins[:(len(wins)+1)/2] {
		res.queries += w.queries
		res.cpu += w.cpu
		res.queryCPU = append(res.queryCPU, (*log)[w.from:w.to]...)
	}
	return res
}

func queryCount(recs []*recorder) int {
	n := 0
	for _, rec := range recs {
		n += len(rec.query)
	}
	return n
}

// runClients runs one closed-loop client per role until d has passed and
// returns the wall time from the start until the last client's last
// operation ended.
func runClients(d time.Duration, roles []role, recs []*recorder) time.Duration {
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(d)
	timeCPU := len(roles) == 1
	var wg sync.WaitGroup
	for c, r := range roles {
		rec := recs[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				var c0 time.Duration
				if timeCPU {
					c0 = cpuTime()
				}
				t := time.Now()
				up, err := r(ctx)
				lat := time.Since(t)
				switch {
				case err != nil:
					rec.failed++
					if len(rec.errs) < 3 {
						rec.errs = append(rec.errs, err.Error())
					}
				case up:
					rec.upload = append(rec.upload, lat)
				default:
					rec.query = append(rec.query, lat)
					if timeCPU {
						rec.queryCPU = append(rec.queryCPU, cpuTime()-c0)
					}
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// roles builds the 1-client and 2-client phases of an instance. A
// workload with a write path mixes it in: every client follows each
// ingestEvery-1 queries with one upload. A fixed mix keeps the work
// behind each query the same in both phases, so qps_per_core measures
// capacity rather than how an uploader and a querier happen to share the
// host.
func roles(query func(context.Context, int) (parsel.Report, error), upload func(context.Context, int) error, next, nextUpload *atomic.Int64) (lat, cap []role) {
	q := func(ctx context.Context) (bool, error) {
		_, err := query(ctx, int(next.Add(1)-1))
		return false, err
	}
	if upload == nil {
		return []role{q}, []role{q, q}
	}
	mixed := func() role {
		k := 0
		return func(ctx context.Context) (bool, error) {
			k++
			if k%ingestEvery == 0 {
				return true, upload(ctx, int(nextUpload.Add(1)-1))
			}
			return q(ctx)
		}
	}
	return []role{mixed()}, []role{mixed(), mixed()}
}

// repResult is one repetition of one workload.
type repResult struct {
	vals map[string]float64
	// latQuery and latUpload are the 1-client phase's wall latencies (in
	// a traced run, its traced half), and latCPU its queries' scaled CPU
	// times; latPlain is a traced run's untraced half.
	latQuery, latUpload, latCPU, latPlain []time.Duration
	attempted, failed                     int
	errs                                  []string
}

// tally adds a phase's outcome counts to r and returns its successful
// queries and uploads, and their summed query latency.
func (r *repResult) tally(recs []*recorder) (queries, uploads int, queryTime time.Duration) {
	for _, rec := range recs {
		queries += len(rec.query)
		uploads += len(rec.upload)
		for _, d := range rec.query {
			queryTime += d
		}
		r.attempted += len(rec.query) + len(rec.upload) + rec.failed
		r.failed += rec.failed
		r.errs = append(r.errs, rec.errs...)
	}
	return queries, uploads, queryTime
}

func gather(recs []*recorder, upload bool) []time.Duration {
	var out []time.Duration
	for _, rec := range recs {
		if upload {
			out = append(out, rec.upload...)
		} else {
			out = append(out, rec.query...)
		}
	}
	return out
}

// wlState is one workload's state across a run's repetitions.
type wlState struct {
	w      *workload
	in     *inputs
	tracer *tracer // nil when untraced
	plain  []*recorder
	lat    []*recorder
	cap    []*recorder
	reps   []*repResult
}

// runRep runs one repetition: fresh instances (timed as setup_s), the
// untimed check pass, the 1-client phase and the 2-client phase. An
// error it returns ends the run; failed operations and wrong answers
// are counted instead.
func runRep(st *wlState, phase time.Duration, rep int) (_ *repResult, err error) {
	r := &repResult{vals: map[string]float64{}}
	var wrap func(http.RoundTripper) http.RoundTripper
	if st.tracer != nil {
		wrap = st.tracer.wrap
	}
	// setup_s is the median scaled CPU time of setupsPerRep builds; all
	// but the last instance are torn down at once. Each build starts with
	// the free heap returned to the OS, so it faults in fresh pages as in a
	// new process; reusing the pages a torn-down instance left mapped made a
	// build take 1.5 ms or 7 ms, depending on when the runtime's scavenger
	// last ran.
	before := liveHeap()
	var inst *instance
	setups := make([]float64, setupsPerRep)
	probes := []float64{hostProbe()}
	for k := range setups {
		debug.FreeOSMemory()
		c := cpuTime()
		if inst, err = st.in.start(rep, wrap); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		cpu := cpuTime() - c
		probes = append(probes, hostProbe())
		setups[k] = scaled(cpu, probes[k], probes[k+1]).Seconds()
		if k < len(setups)-1 {
			if err := inst.stop(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
	}
	r.vals["setup_s"] = median(setups)
	stopped := false
	defer func() {
		if !stopped {
			inst.stop()
		}
	}()

	// The check pass warms the instance, checks every answer and prices
	// the queries in simulated seconds; it is not timed. Each repetition
	// checks its own slice of the seeded sequence, so a run prices
	// reps*checkQueries distinct queries.
	ctx := context.Background()
	reports := make([]parsel.Report, 0, checkQueries)
	for i := rep * checkQueries; i < (rep+1)*checkQueries; i++ {
		report, err := inst.query(ctx, i)
		r.attempted++
		if err != nil {
			r.failed++
			r.errs = append(r.errs, err.Error())
			continue
		}
		reports = append(reports, report)
	}
	engineMetrics(st.w, reports, r.vals)

	var next, nextUpload atomic.Int64
	next.Store(phaseQueries)
	if st.tracer == nil {
		lat, cap := roles(inst.query, inst.upload, &next, &nextUpload)
		latRes := runPhase(phase, lat, st.lat, inst.settle)
		capRes := runPhase(phase, cap, st.cap, inst.settle)
		r.tally(st.lat)
		queries, uploads, _ := r.tally(st.cap)
		r.vals["qps_per_core"] = ratio(float64(capRes.queries), capRes.cpu.Seconds())
		r.vals["qps"] = float64(queries) / capRes.wall.Seconds()
		if inst.upload != nil {
			r.vals["upload_mb_s"] = float64(uploads) * float64(inst.uploadBytes) / 1e6 / capRes.wall.Seconds()
		}
		r.latCPU = latRes.queryCPU
		probes = slices.Concat(probes, latRes.probes, capRes.probes)
	} else {
		// The untraced half of the 1-client phase runs first in even
		// repetitions and last in odd ones, so warm-up favours neither
		// side of trace.overhead_frac.
		plain, _ := roles(inst.query, inst.upload, &next, &nextUpload)
		if rep%2 == 0 {
			runPhase(phase/2, plain, st.plain, inst.settle)
		}
		if err := traceRep(st, inst, phase, r, &next, &nextUpload); err != nil {
			return nil, err
		}
		if rep%2 == 1 {
			runPhase(phase/2, plain, st.plain, inst.settle)
		}
		r.tally(st.plain)
	}
	inst.settle()
	r.vals["mem_mb"] = float64(liveHeap()-before) / 1e6

	r.vals["probe_ms"] = median(probes)
	r.latQuery, r.latUpload = gather(st.lat, false), gather(st.lat, true)
	r.vals["p50_ms"] = percentileMS(r.latQuery, 50)
	r.vals["p99_ms"] = percentileMS(r.latQuery, 99)
	r.vals["cpu_ms"] = meanMS(r.latCPU)
	r.vals["p50_cpu_ms"] = percentileMS(r.latCPU, 50)
	r.vals["p90_cpu_ms"] = percentileMS(r.latCPU, 90)
	r.vals["p99_cpu_ms"] = percentileMS(r.latCPU, 99)
	if len(r.latUpload) > 0 {
		r.vals["upload_p50_ms"] = percentileMS(r.latUpload, 50)
	}
	if st.tracer != nil {
		r.latPlain = gather(st.plain, false)
		r.vals["trace.overhead_frac"] = percentileMS(r.latQuery, 50)/percentileMS(r.latPlain, 50) - 1
		enc, dec, restore, err := inst.snapshotTimings()
		if err != nil {
			return nil, fmt.Errorf("snapshot timings: %w", err)
		}
		r.vals["snapshot.encode_ms"] = float64(enc) / 1e6
		r.vals["snapshot.decode_ms"] = float64(dec) / 1e6
		r.vals["pool.restore_ms"] = float64(restore) / 1e6
	}
	stopped = true
	if err := inst.stop(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	return r, nil
}

// engineMetrics summarizes the check pass's reports: the simulated cost
// per query and the engine counters behind it.
func engineMetrics(w *workload, reports []parsel.Report, vals map[string]float64) {
	if len(reports) == 0 {
		return
	}
	var sim, bal, it, uns, msg, byt float64
	for _, r := range reports {
		sim += r.SimSeconds
		bal += r.BalanceSeconds
		it += float64(r.Iterations)
		uns += float64(r.Unsuccessful)
		msg += float64(r.Messages)
		byt += float64(r.Bytes)
	}
	n := float64(len(reports))
	vals["sim_s"] = sim / n
	vals["engine.iterations"] = it / n
	vals["engine.unsuccessful"] = uns / n
	vals["engine.messages"] = msg / n
	vals["engine.bytes"] = byt / n
	vals["engine.balance_sim_frac"] = ratio(bal, sim)
	// Table 1's balanced form of one fast randomized selection; on
	// rank_sets the ratio is the cost of one rank set in such selections.
	pred := model.Predict(selection.FastRandomized, w.n, machine.DefaultParams(procs), false)
	vals["engine.model_ratio"] = ratio(sim/n, pred)
}

// traceRep runs a traced repetition's traced phases: the second half of
// the 1-client phase, which the layer decomposition covers, and the
// 2-client phase for contention. The CPU profile and process counters
// cover both.
func traceRep(st *wlState, inst *instance, phase time.Duration, r *repResult, next, nextUpload *atomic.Int64) error {
	t := st.tracer
	query, upload := t.traced(inst)
	lat, cap := roles(query, upload, next, nextUpload)
	var sc0, sc1, sc2 *obs.Scrape
	var err error
	inst.settle()
	if inst.lb != nil {
		if sc0, err = scrape(inst.lb); err != nil {
			return err
		}
	}
	var retries0 int64
	if inst.client != nil {
		retries0 = inst.client.RetryStats().Retries
	}
	pool0, proc0 := inst.poolStats(), readProc()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	t.setPhase("lat")
	m0 := t.mark()
	window := runPhase(phase/2, lat, st.lat, inst.settle).wall
	m1 := t.mark()
	if inst.lb != nil {
		if sc1, err = scrape(inst.lb); err != nil {
			pprof.StopCPUProfile()
			return err
		}
	}
	t.setPhase("cap")
	runPhase(phase, cap, st.cap, inst.settle)
	m2 := t.mark()
	pprof.StopCPUProfile()
	pool1, proc1 := inst.poolStats(), readProc()
	inst.settle()
	if inst.lb != nil {
		if sc2, err = scrape(inst.lb); err != nil {
			return err
		}
	}
	latQueries, latUploads, _ := r.tally(st.lat)
	capQueries, capUploads, capQueryTime := r.tally(st.cap)
	v := r.vals

	// The layer decomposition of the traced 1-client window: each
	// layer's self time, which with the residual sums to the window.
	ws := t.stats(m0, m1)
	self := map[string]time.Duration{}
	for name, d := range ws.self {
		self[layerOf[name]] += d
	}
	if inst.lb != nil {
		// The daemon writes its stage header before encoding the body, so
		// encode time arrives only as a /metrics total.
		enc := time.Duration(1e9 * (scrapeValue(sc1, "parsel_query_stage_seconds_sum", map[string]string{"stage": "encode"}) -
			scrapeValue(sc0, "parsel_query_stage_seconds_sum", map[string]string{"stage": "encode"})))
		self["serve.encode"] += enc
		self["wire.residual"] -= enc
	}
	var attributed time.Duration
	for _, d := range self {
		attributed += d
	}
	ops := float64(ws.roots)
	us := func(d time.Duration) float64 { return ratio(float64(d)/1e3, ops) }
	share := func(d time.Duration) float64 { return ratio(float64(d), float64(window)) }
	v["decomp.op_us"] = us(window)
	v["decomp.residual_frac"] = share(window - attributed)
	for _, l := range []string{"parselclient.self", "wire.residual", "serve.queue", "serve.checkout", "serve.encode", "dataset.glue", "engine.wall", "upload.transport"} {
		v[l+"_share"] = share(self[l])
	}
	v["dataset.glue_us"] = us(self["dataset.glue"])
	v["engine.wall_us"] = us(self["engine.wall"])
	if inst.lb != nil {
		for _, l := range []string{"parselclient.self", "wire.residual", "serve.queue", "serve.checkout", "serve.encode"} {
			v[l+"_us"] = us(self[l])
		}
	}
	if latUploads > 0 {
		v["upload.transport_ms"] = float64(ws.total[spanUploadRTT]) / 1e6 / float64(latUploads)
	}

	// Contention in the 2-client phase: how often and how long a query
	// waited for a pool machine (seen in process, or by the daemon).
	cs := t.stats(m1, m2)
	wait := cs.total[spanPoolWait] + cs.total[spanCheckout]
	v["pool.checkout_us"] = ratio(float64(wait)/1e3, float64(capQueries))
	v["pool.wait_share"] = ratio(float64(wait), float64(capQueryTime))
	checkouts := (pool1.Hits + pool1.Creates + pool1.Reshapes) - (pool0.Hits + pool0.Creates + pool0.Reshapes)
	v["pool.wait_frac"] = ratio(float64(pool1.Waits-pool0.Waits), float64(checkouts))

	// Failures the client rode out, and load the daemon shed.
	v["parselclient.retries"] = 0
	if inst.client != nil {
		v["parselclient.retries"] = float64(inst.client.RetryStats().Retries - retries0)
	}
	v["serve.rejected"] = scrapeValue(sc2, "parsel_server_rejected_total", nil) - scrapeValue(sc0, "parsel_server_rejected_total", nil)
	v["snapshot.persists_per_upload"] = ratio(
		scrapeValue(sc2, "parsel_snapshot_persists_total", nil)-scrapeValue(sc0, "parsel_snapshot_persists_total", nil),
		float64(latUploads+capUploads))

	// Process-wide costs over both traced phases.
	queries := float64(latQueries + capQueries)
	v["process.allocs_per_query"] = ratio(proc1.allocs-proc0.allocs, queries)
	v["process.alloc_bytes_per_query"] = ratio(proc1.allocBytes-proc0.allocBytes, queries)
	v["process.gc_cpu_frac"] = ratio(proc1.gcCPU-proc0.gcCPU, (proc1.cpu-proc0.cpu)-(proc1.idleCPU-proc0.idleCPU))

	counts := map[string]int64{}
	if err := chargeProfile(prof.Bytes(), counts); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var samples int64
	for _, c := range counts {
		samples += c
	}
	for _, l := range cpuLayers {
		v["cpu."+l] = ratio(float64(counts[l]), float64(samples))
	}
	return nil
}

// run measures cfg over the named workloads, interleaving their
// repetitions round-robin so host drift spreads over all of them.
// progress, when non-nil, hears about each finished repetition.
func run(cfg config, wls []*workload, progress func(string)) (*setResult, map[string]*tracer, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see clock.go
	phase := time.Duration(cfg.seconds / float64(2*cfg.reps) * float64(time.Second))
	epoch := time.Now()
	var states []*wlState
	defer func() {
		for _, st := range states {
			if st.in.cleanup != nil {
				st.in.cleanup()
			}
		}
	}()
	for _, w := range wls {
		in, err := w.prepare(cfg.seed, cfg.reps, cfg.tmp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
		st := &wlState{w: w, in: in, plain: newRecorders(1), lat: newRecorders(1), cap: newRecorders(2)}
		if cfg.trace {
			st.tracer = newTracer(epoch)
		}
		states = append(states, st)
	}
	for rep := range cfg.reps {
		for _, st := range states {
			r, err := runRep(st, phase, rep)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: repetition %d: %w", st.w.name, rep+1, err)
			}
			st.reps = append(st.reps, r)
			if progress != nil {
				progress(fmt.Sprintf("%s: repetition %d/%d done (%d ops, %d failed)", st.w.name, rep+1, cfg.reps, r.attempted, r.failed))
			}
		}
	}
	set := &setResult{
		Seed: cfg.seed, Seconds: cfg.seconds, Reps: cfg.reps, Trace: cfg.trace,
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Started: epoch.UTC().Format(time.RFC3339),
		Workloads: map[string]*wlResult{},
	}
	tracers := map[string]*tracer{}
	for _, st := range states {
		set.Order = append(set.Order, st.w.name)
		set.Workloads[st.w.name] = summarize(st, cfg.trace)
		tracers[st.w.name] = st.tracer
	}
	return set, tracers, nil
}

// summarize reduces a workload's repetitions: each metric is the median
// over repetitions, except that latency percentiles pool every
// repetition's samples and check-pass metrics average the repetitions'
// slices of the query sequence.
func summarize(st *wlState, trace bool) *wlResult {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	known := map[string]bool{"probe_ms": true}
	for _, d := range defs {
		known[d.name] = true
	}
	res := &wlResult{Metrics: map[string]float64{}}
	var lat, up, cpu, plain []time.Duration
	for _, r := range st.reps {
		m := map[string]float64{}
		for k, x := range r.vals {
			if known[k] && !math.IsNaN(x) && !math.IsInf(x, 0) {
				m[k] = x
			}
		}
		res.Reps = append(res.Reps, m)
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, e := range r.errs {
			if len(res.Errors) < 5 {
				res.Errors = append(res.Errors, e)
			}
		}
		lat, up, plain = append(lat, r.latQuery...), append(up, r.latUpload...), append(plain, r.latPlain...)
		cpu = append(cpu, r.latCPU...)
	}
	for _, d := range defs {
		var xs []float64
		for _, m := range res.Reps {
			if x, ok := m[d.name]; ok {
				xs = append(xs, x)
			}
		}
		switch {
		case len(xs) == 0:
		case d.checkPass:
			res.Metrics[d.name] = mean(xs)
		default:
			res.Metrics[d.name] = median(xs)
		}
	}
	if trace {
		if len(lat) > 0 && len(plain) > 0 {
			res.Metrics["trace.overhead_frac"] = percentileMS(lat, 50)/percentileMS(plain, 50) - 1
		}
		return res
	}
	if len(lat) > 0 {
		res.Metrics["p50_ms"] = percentileMS(lat, 50)
		res.Metrics["p99_ms"] = percentileMS(lat, 99)
		res.Metrics["cpu_ms"] = meanMS(cpu)
		res.Metrics["p50_cpu_ms"] = percentileMS(cpu, 50)
		res.Metrics["p90_cpu_ms"] = percentileMS(cpu, 90)
		res.Metrics["p99_cpu_ms"] = percentileMS(cpu, 99)
	}
	if len(up) > 0 {
		res.Metrics["upload_p50_ms"] = percentileMS(up, 50)
	}
	return res
}
