// Command selectbench regenerates the tables and figures of the paper's
// evaluation (§5). Each experiment prints the series the paper plots,
// measured in simulated seconds on the CM-5-like machine model.
//
// Usage:
//
//	selectbench -list
//	selectbench -exp fig1            # one experiment, full grid
//	selectbench -exp all -quick      # everything, shrunk grid
//	selectbench -exp fig2 -csv -seeds 3
//	selectbench -perf BENCH_PR1.json # host-performance snapshot (JSON)
//	selectbench -clients 32          # pooled concurrent throughput
//	selectbench -clients 32 -perf BENCH_PR2.json  # ...appended to the snapshot
//	selectbench -http -clients 32    # daemon round-trip throughput (loopback HTTP)
//	selectbench -http -clients 32 -perf BENCH_PR3.json  # ...both rows in the snapshot
//	selectbench -http -dataset -clients 32              # resident-dataset round trips
//	selectbench -http -dataset -clients 32 -perf BENCH_PR4.json
//	selectbench -restore                                # cold upload vs snapshot warm restart
//	selectbench -http -dataset -restore -clients 32 -perf BENCH_PR5.json
//	selectbench -http -dataset -clients 32 -faults 0,0.05,0.20  # throughput under fault injection
//	selectbench -http -dataset -clients 32 -faults 0,0.05,0.20 -perf BENCH_PR6.json
//	selectbench -http -binary                           # upload MB/s, JSON vs binary frame
//	selectbench -http -dataset -binary -clients 32 -perf BENCH_PR7.json
//	selectbench -http -dataset -binary -clients 32 -kind float64  # float64 rows at parity with int64
//	selectbench -http -dataset -binary -clients 32 -kind float64 -perf BENCH_PR8.json
//	selectbench -cluster -nodes 3 -clients 32                     # routed 3-node fleet, healthy and one-down
//	selectbench -cluster -nodes 3 -clients 32 -perf BENCH_PR9.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsel"
	"parsel/internal/faults"
	"parsel/internal/harness"
	"parsel/internal/obs"
	"parsel/internal/serve"
	"parsel/parselclient"
	"parsel/parselclient/cluster"
)

// perfResult is one benchmark row of the -perf snapshot.
type perfResult struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	SimSeconds  float64 `json:"sim_seconds"`
	// QPS is the aggregate query throughput of a concurrent (pooled)
	// measurement; zero for single-client rows.
	QPS float64 `json:"qps,omitempty"`
	// Clients is the number of concurrent client goroutines of a pooled
	// measurement; zero for single-client rows.
	Clients int `json:"clients,omitempty"`
	// MBPerSec is the dataset-ingest rate of an upload measurement (raw
	// key megabytes per second — 8 bytes/key, independent of the wire
	// encoding's own inflation); zero for query rows.
	MBPerSec float64 `json:"mb_per_s,omitempty"`
	// stages is the daemon's own per-stage latency breakdown for the
	// timed window, scraped from /metrics around an HTTP measurement;
	// printed under the row, never persisted.
	stages string
}

// perfSnapshot is the schema of the -perf JSON file. Future PRs track the
// perf trajectory by regenerating the file and quoting the old and new
// Results side by side; Baselines pins the fixed pre-engine reference.
type perfSnapshot struct {
	Generated string                `json:"generated"`
	Workload  map[string]any        `json:"workload"`
	Results   map[string]perfResult `json:"results"`
	// Baselines carries fixed reference points (the pre-engine seed
	// measurements) so the file is self-describing.
	Baselines map[string]perfResult `json:"baselines"`
}

// perfShards builds the standard 256k x 8 benchmark sharding (identical
// to bench_test.go's makeShards).
func perfShards() [][]int64 {
	const n, p = 256 << 10, 8
	shards := make([][]int64, p)
	x := uint64(88172645463325252)
	for i := range shards {
		shards[i] = make([]int64, n/p)
		for j := range shards[i] {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			shards[i][j] = int64(x >> 24)
		}
	}
	return shards
}

// float64Shards mirrors the standard workload into float64 keys. The
// generated values are < 2^40, so the conversion is exact and the
// float64 rows rank the same population the int64 rows do.
func float64Shards(shards [][]int64) [][]float64 {
	out := make([][]float64, len(shards))
	for i, s := range shards {
		out[i] = make([]float64, len(s))
		for j, v := range s {
			out[i][j] = float64(v)
		}
	}
	return out
}

// runClients measures pooled concurrent throughput: clients goroutines
// issue median selections against one Pool over the standard workload,
// modelling a resident quantile service under concurrent load.
func runClients(clients int) (perfResult, error) {
	shards := perfShards()
	opts := parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.ModifiedOMLB}
	machines := clients
	if machines > 8 {
		machines = 8
	}
	pool, err := parsel.NewPool[int64](opts, parsel.PoolOptions{MaxMachines: machines})
	if err != nil {
		return perfResult{}, err
	}
	defer pool.Close()

	// Grow the pool to capacity and build every machine before timing
	// (on a single-core host, concurrent queries alone may never
	// overlap enough to grow it), then run one untimed batch so each
	// machine's arenas are warm too.
	if err := pool.Warm(len(shards), machines); err != nil {
		return perfResult{}, err
	}
	var n int64
	for _, s := range shards {
		n += int64(len(s))
	}
	warm := make([]parsel.ShardQuery[int64], machines)
	for i := range warm {
		warm[i] = parsel.ShardQuery[int64]{Shards: shards, Rank: (n + 1) / 2}
	}
	for _, r := range pool.SelectMany(warm) {
		if r.Err != nil {
			return perfResult{}, r.Err
		}
	}

	queries := clients * 8
	if queries < 64 {
		queries = 64
	}
	var next, failed atomic.Int64
	var sim atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if next.Add(1) > int64(queries) {
					return
				}
				res, err := pool.Median(shards)
				if err != nil {
					failed.Add(1)
					return
				}
				sim.Store(res.SimSeconds)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if n := failed.Load(); n > 0 {
		return perfResult{}, fmt.Errorf("%d pooled queries failed", n)
	}
	simSec, _ := sim.Load().(float64)
	return perfResult{
		NsPerOp:    elapsed.Nanoseconds() / int64(queries),
		SimSeconds: simSec,
		QPS:        float64(queries) / elapsed.Seconds(),
		Clients:    clients,
	}, nil
}

// runLoopbackBench spins an in-process parseld (serve handler on a
// loopback listener) over the standard workload, warms the pool and
// connection paths, then measures aggregate throughput of clients
// concurrent goroutines issuing the query prep returns. prep runs once
// before timing (e.g. to upload a dataset) and returns the goroutine-
// safe per-query call.
//
// A positive faultRate splices a seeded fault injector into the
// client's transport (the total injection probability, spread evenly
// across the fault classes) and arms the client's retry policy, so the
// row measures the goodput cost of riding through that fault stream:
// extra round trips, re-serialization and injected latency. Backoff
// sleeps are suppressed — the row prices retry amplification, not the
// wall-clock politeness a production client would add on top.
func runLoopbackBench(clients int, faultRate float64, prep func(ctx context.Context, client *parselclient.Client, shards [][]int64) (func() (float64, error), error)) (perfResult, error) {
	shards := perfShards()
	opts := parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.ModifiedOMLB}
	machines := clients
	if machines > 8 {
		machines = 8
	}
	pool, err := parsel.NewPool[int64](opts, parsel.PoolOptions{MaxMachines: machines})
	if err != nil {
		return perfResult{}, err
	}
	defer pool.Close()
	srv, err := serve.New(serve.Options{Pool: pool, QueueDepth: 4 * clients})
	if err != nil {
		return perfResult{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return perfResult{}, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	hc := http.DefaultClient
	if faultRate > 0 {
		in := faults.New(faults.Options{
			Seed:       1,
			Probs:      faults.Uniform(faultRate),
			MinLatency: 100 * time.Microsecond,
			MaxLatency: time.Millisecond,
		})
		hc = &http.Client{Transport: in.Transport(http.DefaultTransport)}
	}
	client := parselclient.New("http://"+ln.Addr().String(), parselclient.WithHTTPClient(hc))
	if faultRate > 0 {
		client.Retry = parselclient.RetryPolicy{
			MaxAttempts: 16,
			BudgetRatio: -1,
			Seed:        1,
			Sleep:       func(context.Context, time.Duration) error { return nil },
		}
	}
	ctx := context.Background()

	query, err := prep(ctx, client, shards)
	if err != nil {
		return perfResult{}, err
	}
	// Warm the pool and each connection path before timing.
	if err := pool.Warm(len(shards), machines); err != nil {
		return perfResult{}, err
	}
	for i := 0; i < machines; i++ {
		if _, err := query(); err != nil {
			return perfResult{}, err
		}
	}

	queries := clients * 8
	if queries < 64 {
		queries = 64
	}
	before, _ := scrapeStages("http://" + ln.Addr().String())
	var next, failed atomic.Int64
	var sim atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if next.Add(1) > int64(queries) {
					return
				}
				simSec, err := query()
				if err != nil {
					failed.Add(1)
					return
				}
				sim.Store(simSec)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if n := failed.Load(); n > 0 {
		return perfResult{}, fmt.Errorf("%d daemon queries failed", n)
	}
	var stages string
	if after, err := scrapeStages("http://" + ln.Addr().String()); err == nil && before != nil {
		stages = formatStageDiff(before, after)
	}
	simSec, _ := sim.Load().(float64)
	return perfResult{
		NsPerOp:    elapsed.Nanoseconds() / int64(queries),
		SimSeconds: simSec,
		QPS:        float64(queries) / elapsed.Seconds(),
		Clients:    clients,
		stages:     stages,
	}, nil
}

// stageSample is one stage's cumulative observation state from a
// /metrics scrape.
type stageSample struct {
	sum   float64
	count float64
}

// benchStages are the per-request stage series the daemon exports,
// in pipeline order.
var benchStages = [...]string{"queue", "checkout", "execute", "encode"}

// scrapeStages pulls one /metrics exposition and extracts the
// parsel_query_stage_seconds sums and counts per stage.
func scrapeStages(base string) (map[string]stageSample, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	sc, err := obs.ParseText(body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]stageSample, len(benchStages))
	for _, stage := range benchStages {
		labels := map[string]string{"stage": stage}
		sum, _ := sc.Value("parsel_query_stage_seconds_sum", labels)
		count, _ := sc.Value("parsel_query_stage_seconds_count", labels)
		out[stage] = stageSample{sum: sum, count: count}
	}
	return out, nil
}

// formatStageDiff reports the server's own view of where the timed
// window's request latency went: the mean per-stage time from the
// /metrics scrape delta. It prices the daemon-side pipeline (admission
// queue, pool checkout, simulated execution, response encode) without
// any client-side instrumentation.
func formatStageDiff(before, after map[string]stageSample) string {
	n := after["queue"].count - before["queue"].count
	if n <= 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  server stages (/metrics, %d requests):", int64(n))
	for _, stage := range benchStages {
		d := after[stage].sum - before[stage].sum
		dn := after[stage].count - before[stage].count
		if dn <= 0 {
			continue
		}
		fmt.Fprintf(&b, " %s %.3fms", stage, d/dn*1e3)
	}
	b.WriteByte('\n')
	return b.String()
}

// runHTTPClients measures daemon round-trip throughput with the shards
// shipped in every request body — the full serialize/decode/admit/
// select/respond path.
func runHTTPClients(clients int) (perfResult, error) {
	return runLoopbackBench(clients, 0, func(ctx context.Context, client *parselclient.Client, shards [][]int64) (func() (float64, error), error) {
		return func() (float64, error) {
			res, err := client.Median(ctx, shards)
			if err != nil {
				return 0, err
			}
			return res.SimSeconds, nil
		}, nil
	})
}

// runHTTPDatasetClients measures resident-dataset round-trip
// throughput: the standard workload is uploaded ONCE into a daemon
// dataset, then every query body carries parameters only — the
// upload-once/query-many serving model, against the same loopback
// daemon as runHTTPClients.
func runHTTPDatasetClients(clients int) (perfResult, error) {
	return runHTTPDatasetClientsFaults(clients, 0)
}

// runHTTPDatasetClientsFaults is runHTTPDatasetClients through a
// faultRate fault-injecting transport with the retrying client riding
// over it — the resilience tax on the resident serving path.
func runHTTPDatasetClientsFaults(clients int, faultRate float64) (perfResult, error) {
	return runLoopbackBench(clients, faultRate, func(ctx context.Context, client *parselclient.Client, shards [][]int64) (func() (float64, error), error) {
		rd := client.Dataset("bench")
		if _, err := rd.Upload(ctx, shards); err != nil {
			return nil, err
		}
		return func() (float64, error) {
			res, err := rd.Median(ctx)
			if err != nil {
				return 0, err
			}
			return res.SimSeconds, nil
		}, nil
	})
}

// runHTTPDatasetClientsBinary is runHTTPDatasetClients over the binary
// wire format: the upload streams length-prefixed frames instead of a
// JSON body, and every query negotiates a frame response via Accept.
func runHTTPDatasetClientsBinary(clients int) (perfResult, error) {
	return runLoopbackBench(clients, 0, func(ctx context.Context, client *parselclient.Client, shards [][]int64) (func() (float64, error), error) {
		client.Binary = true
		rd := client.Dataset("bench")
		if _, err := rd.Upload(ctx, shards); err != nil {
			return nil, err
		}
		return func() (float64, error) {
			res, err := rd.Median(ctx)
			if err != nil {
				return 0, err
			}
			return res.SimSeconds, nil
		}, nil
	})
}

// runHTTPDatasetClientsFloat64 is runHTTPDatasetClients with the
// workload mirrored into float64 keys: the same daemon, the same query
// mix, answered by the float64 pool the kind registry dispatches to —
// the row prices the kind dispatch itself against the int64 baseline.
func runHTTPDatasetClientsFloat64(clients int) (perfResult, error) {
	return runLoopbackBench(clients, 0, func(ctx context.Context, client *parselclient.Client, shards [][]int64) (func() (float64, error), error) {
		rd := parselclient.Keyed[float64](client).Dataset("benchf64")
		if _, err := rd.Upload(ctx, float64Shards(shards)); err != nil {
			return nil, err
		}
		return func() (float64, error) {
			res, err := rd.Median(ctx)
			if err != nil {
				return 0, err
			}
			return res.SimSeconds, nil
		}, nil
	})
}

// runClusterBench measures the routed serving path on an in-process
// fleet: nodes daemons on loopback listeners, the cluster router
// placing the standard dataset at 2 replicas (the replica filled by
// node-to-node snapshot shipping, not a second client upload), and
// clients goroutines querying through the router. Two rows come back:
// the healthy fleet, and the same fleet with the dataset's primary
// killed mid-life — the degraded row includes the one-time failover
// blip (the first query that discovers the dead node and switches
// replicas), so it prices both the steady-state detour and the
// discovery.
func runClusterBench(clients, nodes int) (healthy, degraded perfResult, err error) {
	shards := perfShards()
	opts := parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.ModifiedOMLB}
	machines := clients
	if machines > 8 {
		machines = 8
	}
	type benchNode struct {
		pool *parsel.Pool[int64]
		hs   *http.Server
		url  string
	}
	var fleet []*benchNode
	defer func() {
		for _, n := range fleet {
			n.hs.Close()
			n.pool.Close()
		}
	}()
	var urls []string
	for i := 0; i < nodes; i++ {
		pool, perr := parsel.NewPool[int64](opts, parsel.PoolOptions{MaxMachines: machines})
		if perr != nil {
			return healthy, degraded, perr
		}
		srv, serr := serve.New(serve.Options{Pool: pool, QueueDepth: 4 * clients})
		if serr != nil {
			pool.Close()
			return healthy, degraded, serr
		}
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			pool.Close()
			return healthy, degraded, lerr
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		n := &benchNode{pool: pool, hs: hs, url: "http://" + ln.Addr().String()}
		fleet = append(fleet, n)
		urls = append(urls, n.url)
	}
	router, err := cluster.New(cluster.Config{
		Nodes: urls, Replicas: 2, RecoveryInterval: time.Hour,
	})
	if err != nil {
		return healthy, degraded, err
	}
	ctx := context.Background()
	ds := cluster.DatasetOf[int64](router, "bench")
	if _, err = ds.Upload(ctx, shards); err != nil {
		return healthy, degraded, err
	}
	if st := router.Stats(); st.Shipped != 1 || st.Reuploads != 0 {
		return healthy, degraded, fmt.Errorf("replication took %d ships and %d reuploads, want 1 and 0", st.Shipped, st.Reuploads)
	}

	run := func(warm int) (perfResult, error) {
		for i := 0; i < warm; i++ {
			if _, err := ds.Median(ctx); err != nil {
				return perfResult{}, err
			}
		}
		queries := clients * 8
		if queries < 64 {
			queries = 64
		}
		var next, failed atomic.Int64
		var sim atomic.Value
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if next.Add(1) > int64(queries) {
						return
					}
					res, err := ds.Median(ctx)
					if err != nil {
						failed.Add(1)
						return
					}
					sim.Store(res.SimSeconds)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		if n := failed.Load(); n > 0 {
			return perfResult{}, fmt.Errorf("%d routed queries failed", n)
		}
		simSec, _ := sim.Load().(float64)
		return perfResult{
			NsPerOp:    elapsed.Nanoseconds() / int64(queries),
			SimSeconds: simSec,
			QPS:        float64(queries) / elapsed.Seconds(),
			Clients:    clients,
		}, nil
	}

	// Warm every replica's pool and connection path before timing.
	if healthy, err = run(machines); err != nil {
		return healthy, degraded, err
	}

	// Kill the primary — listener torn down mid-life, no drain — and
	// measure again without warming, so the failover discovery is paid
	// inside the timed window.
	primary := router.Place("bench")[0]
	for _, n := range fleet {
		if n.url == primary {
			n.hs.Close()
		}
	}
	degraded, err = run(0)
	return healthy, degraded, err
}

// runUploadBench measures dataset-upload throughput over loopback: how
// fast the standard 256k workload lands resident, in raw dataset
// megabytes per second (8 bytes/key — the same numerator for both
// encodings, so the ratio prices the encoding itself). The binary
// frame streams straight into resident storage; the JSON body is
// materialized and decoded first.
func runUploadBench(binary bool) (perfResult, error) {
	return runUploadBenchAs(binary, perfShards())
}

// runUploadBenchFloat64 is runUploadBench over float64 keys — same
// population, same 8 bytes/key numerator, the kind-dispatched path.
func runUploadBenchFloat64(binary bool) (perfResult, error) {
	return runUploadBenchAs(binary, float64Shards(perfShards()))
}

// runUploadBenchAs is the kind-typed upload measurement shared by the
// int64 and float64 rows.
func runUploadBenchAs[K parselclient.Key](binary bool, shards [][]K) (perfResult, error) {
	opts := parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.ModifiedOMLB}
	pool, err := parsel.NewPool[int64](opts, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		return perfResult{}, err
	}
	defer pool.Close()
	srv, err := serve.New(serve.Options{Pool: pool})
	if err != nil {
		return perfResult{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return perfResult{}, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	client := parselclient.New("http://" + ln.Addr().String())
	client.Binary = binary
	rd := parselclient.Keyed[K](client).Dataset("bench")
	ctx := context.Background()

	var datasetBytes int64
	for _, s := range shards {
		datasetBytes += int64(len(s)) * 8
	}
	// Warm the connection and both encode paths; each re-upload
	// replaces the previous resident copy, so the budget never grows.
	for i := 0; i < 2; i++ {
		if _, err := rd.Upload(ctx, shards); err != nil {
			return perfResult{}, err
		}
	}
	const trials = 8
	start := time.Now()
	for i := 0; i < trials; i++ {
		if _, err := rd.Upload(ctx, shards); err != nil {
			return perfResult{}, err
		}
	}
	elapsed := time.Since(start)
	return perfResult{
		NsPerOp:  elapsed.Nanoseconds() / trials,
		MBPerSec: float64(datasetBytes*trials) / (1 << 20) / elapsed.Seconds(),
	}, nil
}

// parseFaultRates parses the -faults flag: comma-separated fractional
// injection rates in [0, 1), e.g. "0,0.05,0.20".
func parseFaultRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r < 0 || r >= 1 {
			return nil, fmt.Errorf("bad fault rate %q (want a fraction in [0, 1))", f)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// runRestore measures the two ways a daemon can come to hold the
// standard 256k workload resident: a cold upload (the keys cross the
// wire into PUT /v1/datasets/{id}) versus a warm restart (a new
// daemon recovers the dataset from its snapshot directory — zero
// bytes on the wire). Each is averaged over trials runs.
func runRestore() (cold, warm perfResult, err error) {
	const trials = 3
	shards := perfShards()
	opts := parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.ModifiedOMLB}

	root, err := os.MkdirTemp("", "selectbench-snap-*")
	if err != nil {
		return cold, warm, err
	}
	defer os.RemoveAll(root)

	var coldNS, warmNS int64
	for trial := 0; trial < trials; trial++ {
		// Each trial gets its own empty snapshot directory, so the cold
		// daemon really starts cold — reusing one directory would hand
		// trial 2's "cold" daemon the previous trial's snapshot to
		// restore, turning its timed upload into a warm replacement.
		dir := filepath.Join(root, fmt.Sprintf("trial%d", trial))
		// Cold path: a fresh daemon, the shards shipped over loopback.
		pool, err := parsel.NewPool[int64](opts, parsel.PoolOptions{MaxMachines: 1})
		if err != nil {
			return cold, warm, err
		}
		srv, err := serve.New(serve.Options{Pool: pool, SnapshotDir: dir})
		if err != nil {
			pool.Close()
			return cold, warm, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			pool.Close()
			return cold, warm, err
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		rd := parselclient.New("http://" + ln.Addr().String()).Dataset("bench")
		start := time.Now()
		if _, err := rd.Upload(context.Background(), shards); err != nil {
			hs.Close()
			pool.Close()
			return cold, warm, err
		}
		coldNS += time.Since(start).Nanoseconds()
		// Drain persists the dataset's snapshot; the next daemon
		// restores from it.
		srv.Drain()
		hs.Close()
		pool.Close()

		// Warm path: a restarted daemon recovering from the snapshot
		// directory. The measured span is exactly what a cold upload
		// pays above: from nothing to the dataset resident and
		// queryable.
		pool2, err := parsel.NewPool[int64](opts, parsel.PoolOptions{MaxMachines: 1})
		if err != nil {
			return cold, warm, err
		}
		start = time.Now()
		srv2, err := serve.New(serve.Options{Pool: pool2, SnapshotDir: dir})
		if err != nil {
			pool2.Close()
			return cold, warm, err
		}
		warmNS += time.Since(start).Nanoseconds()
		if got := srv2.Stats().Snapshots.Restored; got != 1 {
			pool2.Close()
			return cold, warm, fmt.Errorf("warm restart restored %d datasets, want 1", got)
		}
		srv2.Drain()
		pool2.Close()
	}
	cold = perfResult{NsPerOp: coldNS / trials}
	warm = perfResult{NsPerOp: warmNS / trials}
	return cold, warm, nil
}

// runPerf measures the one-shot and amortized selection paths on the
// standard workload — plus, when clients > 0, the pooled concurrent
// serving path (and with httpMode, the daemon round-trip path; with
// datasetMode additionally the resident-dataset round-trip path; with
// restoreMode the cold-upload vs snapshot-restore comparison; with
// faultRates one resident-dataset row per injection rate; with
// binaryMode the upload_json/upload_binary MB/s rows and a
// binary-framed resident-dataset row; with f64Mode the float64_* rows
// pricing the kind-dispatched float64 path at parity with int64) —
// and writes the JSON snapshot to path.
func runPerf(path string, clients int, httpMode, datasetMode, restoreMode, binaryMode, f64Mode bool, faultRates []float64, clusterNodes int) error {
	shards := perfShards()
	opts := parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.ModifiedOMLB}
	var n int64
	for _, s := range shards {
		n += int64(len(s))
	}

	measure := func(body func(b *testing.B)) perfResult {
		r := testing.Benchmark(body)
		return perfResult{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}

	results := map[string]perfResult{}
	sim := 0.0
	results["one_shot"] = measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := parsel.Median(shards, opts)
			if err != nil {
				b.Fatal(err)
			}
			sim = res.SimSeconds
		}
	})
	r := results["one_shot"]
	r.SimSeconds = sim
	results["one_shot"] = r

	selOpts := opts
	selOpts.Machine.Procs = len(shards)
	sel, err := parsel.NewSelector[int64](selOpts)
	if err != nil {
		return err
	}
	defer sel.Close()
	results["selector_reuse"] = measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sel.Median(shards)
			if err != nil {
				b.Fatal(err)
			}
			sim = res.SimSeconds
		}
	})
	r = results["selector_reuse"]
	r.SimSeconds = sim
	results["selector_reuse"] = r

	if clients > 0 {
		pr, err := runClients(clients)
		if err != nil {
			return err
		}
		results[fmt.Sprintf("pool_%dclients", clients)] = pr
		if httpMode {
			hr, err := runHTTPClients(clients)
			if err != nil {
				return err
			}
			results[fmt.Sprintf("http_%dclients", clients)] = hr
			if datasetMode {
				dr, err := runHTTPDatasetClients(clients)
				if err != nil {
					return err
				}
				results[fmt.Sprintf("http_dataset_%dclients", clients)] = dr
				if f64Mode {
					fr, err := runHTTPDatasetClientsFloat64(clients)
					if err != nil {
						return fmt.Errorf("float64 dataset: %w", err)
					}
					results[fmt.Sprintf("float64_http_dataset_%dclients", clients)] = fr
				}
				if binaryMode {
					br, err := runHTTPDatasetClientsBinary(clients)
					if err != nil {
						return err
					}
					results[fmt.Sprintf("http_dataset_binary_%dclients", clients)] = br
				}
				for _, rate := range faultRates {
					fr, err := runHTTPDatasetClientsFaults(clients, rate)
					if err != nil {
						return fmt.Errorf("faults %.0f%%: %w", rate*100, err)
					}
					results[fmt.Sprintf("http_dataset_%dclients_faults%.0fpct", clients, rate*100)] = fr
				}
			}
		}
	}

	if clusterNodes > 0 && clients > 0 {
		chealthy, cdown, err := runClusterBench(clients, clusterNodes)
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		results[fmt.Sprintf("cluster_%dnodes_%dclients", clusterNodes, clients)] = chealthy
		results[fmt.Sprintf("cluster_%dnodes_%dclients_1down", clusterNodes, clients)] = cdown
	}

	if restoreMode {
		cold, warmres, err := runRestore()
		if err != nil {
			return err
		}
		results["restore_cold_upload"] = cold
		results["restore_warm_restart"] = warmres
	}

	if binaryMode {
		ju, err := runUploadBench(false)
		if err != nil {
			return fmt.Errorf("upload json: %w", err)
		}
		bu, err := runUploadBench(true)
		if err != nil {
			return fmt.Errorf("upload binary: %w", err)
		}
		results["upload_json"] = ju
		results["upload_binary"] = bu
		if f64Mode {
			fju, err := runUploadBenchFloat64(false)
			if err != nil {
				return fmt.Errorf("float64 upload json: %w", err)
			}
			fbu, err := runUploadBenchFloat64(true)
			if err != nil {
				return fmt.Errorf("float64 upload binary: %w", err)
			}
			results["float64_upload_json"] = fju
			results["float64_upload_binary"] = fbu
		}
	}

	snap := perfSnapshot{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Workload: map[string]any{
			"n": n, "procs": len(shards),
			"algorithm": opts.Algorithm.String(), "balancer": opts.Balancer.String(),
			"rank": (n + 1) / 2,
		},
		Results: results,
		Baselines: map[string]perfResult{
			// The seed repo's BenchmarkSelectFastRandomized (one machine
			// build + shard deep-copies per call), measured on the PR-1
			// reference host before the amortized engine landed.
			"seed_one_shot": {NsPerOp: 4677042, AllocsPerOp: 2328, BytesPerOp: 2977319},
		},
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list) or \"all\"")
		list     = flag.Bool("list", false, "list experiments and exit")
		quick    = flag.Bool("quick", false, "shrink problem sizes for a fast smoke run")
		seeds    = flag.Int("seeds", 5, "trials averaged per random data point")
		csv      = flag.Bool("csv", false, "emit comma-separated rows instead of aligned text")
		perf     = flag.String("perf", "", "write a host-performance JSON snapshot to this path and exit")
		clients  = flag.Int("clients", 0, "measure pooled concurrent throughput with this many client goroutines (alone: print; with -perf: append to the snapshot)")
		httpB    = flag.Bool("http", false, "with -clients: also measure daemon (HTTP) round-trip throughput through an in-process parseld on loopback")
		dataset  = flag.Bool("dataset", false, "with -http -clients: also measure resident-dataset round trips (upload once, query many — bodies carry no keys)")
		restore  = flag.Bool("restore", false, "measure cold-upload vs snapshot-restore time for the standard dataset (alone: print; with -perf: add the restore_* rows)")
		faultsF  = flag.String("faults", "", "with -http -dataset -clients: comma-separated fault-injection rates (fractions, e.g. 0,0.05,0.20); measures resident-dataset throughput with a retrying client riding each fault stream")
		binary   = flag.Bool("binary", false, "with -http: measure upload throughput for both encodings (upload_json vs upload_binary, MB/s); with -dataset -clients additionally resident-dataset round trips over binary frames")
		kindF    = flag.String("kind", "", `measure an additional key kind at parity with int64 (only "float64" is supported): with -http -dataset -clients a float64 resident-dataset row, with -binary float64 upload rows`)
		clusterB = flag.Bool("cluster", false, "with -clients: measure routed-fleet throughput through the client-side cluster router (see -nodes), healthy and with the primary killed")
		nodesF   = flag.Int("nodes", 3, "with -cluster: fleet size — in-process daemons on loopback listeners")
	)
	flag.Parse()

	if *kindF != "" && *kindF != "float64" {
		fmt.Fprintf(os.Stderr, "selectbench: -kind %q not supported (only float64 has a kind-dispatched daemon path worth pricing)\n", *kindF)
		os.Exit(2)
	}
	if *kindF != "" && !*httpB {
		fmt.Fprintln(os.Stderr, "selectbench: -kind measures the daemon's kind-dispatched path; pass -http with it")
		os.Exit(2)
	}

	if *dataset && !*httpB {
		fmt.Fprintln(os.Stderr, "selectbench: -dataset measures the daemon's resident path; pass -http (and -clients N) with it")
		os.Exit(2)
	}
	if *binary && !*httpB {
		fmt.Fprintln(os.Stderr, "selectbench: -binary measures the daemon's wire encodings; pass -http with it")
		os.Exit(2)
	}
	faultRates, err := parseFaultRates(*faultsF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selectbench: -faults: %v\n", err)
		os.Exit(2)
	}
	if len(faultRates) > 0 && (!*dataset || *clients == 0) {
		fmt.Fprintln(os.Stderr, "selectbench: -faults measures the resident path under injection; pass -http -dataset -clients N with it")
		os.Exit(2)
	}
	if *clusterB && *clients == 0 {
		fmt.Fprintln(os.Stderr, "selectbench: -cluster measures routed throughput; pass -clients N with it")
		os.Exit(2)
	}
	if *clusterB && *nodesF < 2 {
		fmt.Fprintln(os.Stderr, "selectbench: -cluster needs -nodes of at least 2 (one to kill, one to keep answering)")
		os.Exit(2)
	}
	clusterNodes := 0
	if *clusterB {
		clusterNodes = *nodesF
	}

	if *perf != "" {
		if err := runPerf(*perf, *clients, *httpB, *dataset, *restore, *binary, *kindF == "float64", faultRates, clusterNodes); err != nil {
			fmt.Fprintf(os.Stderr, "selectbench: perf: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *perf)
		return
	}

	if *restore {
		cold, warmres, err := runRestore()
		if err != nil {
			fmt.Fprintf(os.Stderr, "selectbench: restore: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("cold upload (keys over the wire): %.2f ms\n", float64(cold.NsPerOp)/1e6)
		fmt.Printf("warm restart (snapshot restore):  %.2f ms (%.1fx)\n",
			float64(warmres.NsPerOp)/1e6, float64(cold.NsPerOp)/float64(warmres.NsPerOp))
		if *clients == 0 && !*binary {
			return
		}
	}

	if *binary {
		ju, err := runUploadBench(false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selectbench: upload json: %v\n", err)
			os.Exit(1)
		}
		bu, err := runUploadBench(true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selectbench: upload binary: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("upload 256k json:   %7.1f MB/s (%.2f ms)\n", ju.MBPerSec, float64(ju.NsPerOp)/1e6)
		fmt.Printf("upload 256k binary: %7.1f MB/s (%.2f ms, %.1fx)\n",
			bu.MBPerSec, float64(bu.NsPerOp)/1e6, bu.MBPerSec/ju.MBPerSec)
		if *kindF == "float64" {
			fju, err := runUploadBenchFloat64(false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "selectbench: float64 upload json: %v\n", err)
				os.Exit(1)
			}
			fbu, err := runUploadBenchFloat64(true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "selectbench: float64 upload binary: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("upload 256k float64 json:   %7.1f MB/s (%.2f ms)\n", fju.MBPerSec, float64(fju.NsPerOp)/1e6)
			fmt.Printf("upload 256k float64 binary: %7.1f MB/s (%.2f ms, %.1fx)\n",
				fbu.MBPerSec, float64(fbu.NsPerOp)/1e6, fbu.MBPerSec/fju.MBPerSec)
		}
		if *clients == 0 {
			return
		}
	}

	if *clients > 0 {
		pr, err := runClients(*clients)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selectbench: clients: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pooled throughput, %d clients: %.1f queries/s (%.3f ms/query, sim %.4f s)\n",
			*clients, pr.QPS, float64(pr.NsPerOp)/1e6, pr.SimSeconds)
		if *httpB {
			hr, err := runHTTPClients(*clients)
			if err != nil {
				fmt.Fprintf(os.Stderr, "selectbench: http: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("daemon round-trip, %d clients: %.1f queries/s (%.3f ms/query, sim %.4f s)\n",
				*clients, hr.QPS, float64(hr.NsPerOp)/1e6, hr.SimSeconds)
			fmt.Print(hr.stages)
			if *dataset {
				dr, err := runHTTPDatasetClients(*clients)
				if err != nil {
					fmt.Fprintf(os.Stderr, "selectbench: dataset: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("resident dataset, %d clients: %.1f queries/s (%.3f ms/query, sim %.4f s)\n",
					*clients, dr.QPS, float64(dr.NsPerOp)/1e6, dr.SimSeconds)
				fmt.Print(dr.stages)
				if *kindF == "float64" {
					fr, err := runHTTPDatasetClientsFloat64(*clients)
					if err != nil {
						fmt.Fprintf(os.Stderr, "selectbench: float64 dataset: %v\n", err)
						os.Exit(1)
					}
					fmt.Printf("resident dataset (float64), %d clients: %.1f queries/s (%.3f ms/query)\n",
						*clients, fr.QPS, float64(fr.NsPerOp)/1e6)
				}
				if *binary {
					br, err := runHTTPDatasetClientsBinary(*clients)
					if err != nil {
						fmt.Fprintf(os.Stderr, "selectbench: binary dataset: %v\n", err)
						os.Exit(1)
					}
					fmt.Printf("resident dataset (binary), %d clients: %.1f queries/s (%.3f ms/query)\n",
						*clients, br.QPS, float64(br.NsPerOp)/1e6)
				}
				for _, rate := range faultRates {
					fr, err := runHTTPDatasetClientsFaults(*clients, rate)
					if err != nil {
						fmt.Fprintf(os.Stderr, "selectbench: faults %.0f%%: %v\n", rate*100, err)
						os.Exit(1)
					}
					fmt.Printf("resident dataset, %d clients, %2.0f%% faults: %.1f queries/s (%.3f ms/query)\n",
						*clients, rate*100, fr.QPS, float64(fr.NsPerOp)/1e6)
				}
			}
		}
		if clusterNodes > 0 {
			chealthy, cdown, err := runClusterBench(*clients, clusterNodes)
			if err != nil {
				fmt.Fprintf(os.Stderr, "selectbench: cluster: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("cluster %d nodes, %d clients:          %.1f queries/s (%.3f ms/query)\n",
				clusterNodes, *clients, chealthy.QPS, float64(chealthy.NsPerOp)/1e6)
			fmt.Printf("cluster %d nodes, %d clients, 1 down:  %.1f queries/s (%.3f ms/query, incl. failover blip)\n",
				clusterNodes, *clients, cdown.QPS, float64(cdown.NsPerOp)/1e6)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range harness.Experiments {
			fmt.Printf("  %-9s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	cfg := harness.Config{Out: os.Stdout, Seeds: *seeds, Quick: *quick, CSV: *csv}
	if *exp == "all" {
		for _, e := range harness.Experiments {
			fmt.Printf("\n== %s: %s ==\n", e.ID, e.Title)
			if err := e.Run(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "selectbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
		return
	}
	e, ok := harness.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "selectbench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
	if err := e.Run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "selectbench: %v\n", err)
		os.Exit(1)
	}
}
