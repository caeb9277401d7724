package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"parsel"
	"parsel/internal/serve"
	"parsel/internal/workload"
	"parsel/parselclient"
)

// simReport strips the host-dependent wall clock out of a Report so the
// simulated metrics can be compared bit-for-bit across the wire.
type simReport struct {
	SimSeconds     float64
	BalanceSeconds float64
	Iterations     int
	Unsuccessful   int
	Messages       int64
	Bytes          int64
}

func simOf(rep parsel.Report) simReport {
	return simReport{
		SimSeconds:     rep.SimSeconds,
		BalanceSeconds: rep.BalanceSeconds,
		Iterations:     rep.Iterations,
		Unsuccessful:   rep.Unsuccessful,
		Messages:       rep.Messages,
		Bytes:          rep.Bytes,
	}
}

// daemon is one running test daemon with its backing pool.
type daemon struct {
	client *parselclient.Client
	server *serve.Server
	pool   *parsel.Pool[int64]
	ts     *httptest.Server
}

// newDaemon spins a daemon on a loopback listener. The caller owns the
// returned handles; close() tears listener and pool down.
func newDaemon(t *testing.T, opts parsel.Options, po parsel.PoolOptions, so serve.Options) *daemon {
	t.Helper()
	pool, err := parsel.NewPool[int64](opts, po)
	if err != nil {
		t.Fatal(err)
	}
	so.Pool = pool
	srv, err := serve.New(so)
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	return &daemon{
		client: parselclient.New(ts.URL, parselclient.WithHTTPClient(ts.Client())),
		server: srv,
		pool:   pool,
		ts:     ts,
	}
}

func (d *daemon) close() {
	d.ts.Close()
	d.pool.Close()
}

// e2eShape is one workload of the HTTP differential replay.
type e2eShape struct {
	name   string
	shards [][]int64
}

// e2eShapes rebuilds the randomized differential catalogue of
// differential_test.go for the daemon: generator-drawn shapes across
// every distribution plus the hand-built adversarial shapes (empty
// shards, n < p, all-equal keys, extreme skew, single processor).
func e2eShapes() []e2eShape {
	rng := rand.New(rand.NewPCG(2026, 730))
	var shapes []e2eShape
	for _, kind := range workload.Kinds {
		for draw := 0; draw < 2; draw++ {
			n := 50 + rng.Int64N(1950)
			p := 2 + rng.IntN(9)
			seed := rng.Uint64()
			shapes = append(shapes, e2eShape{
				name:   fmt.Sprintf("%s/n%d/p%d", kind, n, p),
				shards: workload.Generate(kind, n, p, seed),
			})
		}
	}
	shapes = append(shapes, e2eShape{
		name:   "unbalanced/n1500/p8",
		shards: workload.Unbalanced(1500, 8, rng.Uint64()),
	})
	empties := make([][]int64, 7)
	for i := range empties {
		if i%2 == 1 {
			empties[i] = []int64{}
			continue
		}
		empties[i] = make([]int64, 150+rng.IntN(150))
		for j := range empties[i] {
			empties[i][j] = rng.Int64N(1 << 20)
		}
	}
	lone := make([]int64, 700)
	for i := range lone {
		lone[i] = rng.Int64N(40)
	}
	shapes = append(shapes,
		e2eShape{name: "emptyshards/p7", shards: empties},
		e2eShape{name: "oneloaded/p5", shards: [][]int64{nil, {}, lone, {}, nil}},
		e2eShape{name: "allequal/p6", shards: [][]int64{
			{7, 7, 7}, {7, 7}, {7, 7, 7, 7}, {}, {7}, {7, 7}}},
		e2eShape{name: "fewerkeysthanprocs/p6", shards: [][]int64{{42}, {}, {-3}, {}, {99}, {}}},
		e2eShape{name: "singleton/p4", shards: [][]int64{{}, {}, {11}, {}}},
		e2eShape{name: "singleproc/p1", shards: [][]int64{{5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}}},
	)
	return shapes
}

// e2eConfigs are the daemon configurations the differential replay
// sweeps: the library default and a contrasting algorithm/balancer/
// topology triple, to pin the daemon's Options plumbing.
var e2eConfigs = []struct {
	name string
	opts parsel.Options
}{
	{"default", parsel.Options{}},
	{"rand-nobal-mesh", parsel.Options{
		Algorithm: parsel.Randomized,
		Balancer:  parsel.NoBalance,
		Machine:   parsel.Machine{Topology: parsel.TopologyMesh2D},
	}},
}

// TestDaemonDifferentialE2E replays the randomized differential
// workloads through the HTTP client against a daemon on a loopback
// listener, and checks every endpoint's response — value(s) and every
// simulated metric echoed in the report — bit-identical to in-process
// Pool calls, and values against the sequential sort oracle.
func TestDaemonDifferentialE2E(t *testing.T) {
	shapes := e2eShapes()
	if testing.Short() {
		shapes = shapes[:6]
	}
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(4, 2))
	for _, cfg := range e2eConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			d := newDaemon(t, cfg.opts, parsel.PoolOptions{MaxMachines: 4}, serve.Options{})
			defer d.close()
			// The in-process oracle pool: same Options, separate machines.
			oracle, err := parsel.NewPool[int64](cfg.opts, parsel.PoolOptions{MaxMachines: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()

			for _, shape := range shapes {
				t.Run(shape.name, func(t *testing.T) {
					sorted := workload.Flatten(shape.shards)
					slices.Sort(sorted)
					n := int64(len(sorted))

					for _, rank := range []int64{1, n, (n + 1) / 2, 1 + rng.Int64N(n)} {
						got, err := d.client.Over(shape.shards).Select(ctx, rank)
						if err != nil {
							t.Fatalf("http select rank %d: %v", rank, err)
						}
						want, err := oracle.Over(shape.shards).Select(context.Background(), rank)
						if err != nil {
							t.Fatalf("oracle select rank %d: %v", rank, err)
						}
						if got.Value != want.Value || simOf(got.Report) != simOf(want.Report) {
							t.Errorf("select rank %d diverges from in-process pool:\nhttp: %d %+v\npool: %d %+v",
								rank, got.Value, simOf(got.Report), want.Value, simOf(want.Report))
						}
						if got.Value != sorted[rank-1] {
							t.Errorf("select rank %d = %d, sort oracle says %d", rank, got.Value, sorted[rank-1])
						}
					}

					gmed, err := d.client.Over(shape.shards).Median(ctx)
					if err != nil {
						t.Fatalf("http median: %v", err)
					}
					wmed, err := oracle.Over(shape.shards).Median(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if gmed.Value != wmed.Value || simOf(gmed.Report) != simOf(wmed.Report) {
						t.Errorf("median diverges: http %d %+v, pool %d %+v",
							gmed.Value, simOf(gmed.Report), wmed.Value, simOf(wmed.Report))
					}

					gq, err := d.client.Over(shape.shards).Quantile(ctx, 0.9)
					if err != nil {
						t.Fatalf("http quantile: %v", err)
					}
					wq, err := oracle.Over(shape.shards).Quantile(context.Background(), 0.9)
					if err != nil {
						t.Fatal(err)
					}
					if gq.Value != wq.Value || simOf(gq.Report) != simOf(wq.Report) {
						t.Errorf("quantile(0.9) diverges: http %d, pool %d", gq.Value, wq.Value)
					}

					qs := []float64{0, 0.25, 0.5, 0.75, 0.99, 1}
					gqs, grep, err := d.client.Over(shape.shards).Quantiles(ctx, qs)
					if err != nil {
						t.Fatalf("http quantiles: %v", err)
					}
					wqs, wrep, err := oracle.Over(shape.shards).Quantiles(context.Background(), qs)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(gqs, wqs) || simOf(grep) != simOf(wrep) {
						t.Errorf("quantiles diverge: http %v %+v, pool %v %+v",
							gqs, simOf(grep), wqs, simOf(wrep))
					}

					ranks := []int64{1, n, (n + 1) / 2, 1 + rng.Int64N(n), 1}
					grs, grep2, err := d.client.Over(shape.shards).SelectRanks(ctx, ranks)
					if err != nil {
						t.Fatalf("http ranks: %v", err)
					}
					wrs, wrep2, err := oracle.Over(shape.shards).SelectRanks(context.Background(), ranks)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(grs, wrs) || simOf(grep2) != simOf(wrep2) {
						t.Errorf("ranks diverge: http %v, pool %v", grs, wrs)
					}
					for i, r := range ranks {
						if grs[i] != sorted[r-1] {
							t.Errorf("ranks[%d] (rank %d) = %d, sort oracle says %d", i, r, grs[i], sorted[r-1])
						}
					}

					k := int(min(5, n))
					gtop, _, err := d.client.Over(shape.shards).TopK(ctx, k)
					if err != nil {
						t.Fatalf("http topk: %v", err)
					}
					wtop, _, err := oracle.Over(shape.shards).TopK(context.Background(), k)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(gtop, wtop) {
						t.Errorf("topk diverges: http %v, pool %v", gtop, wtop)
					}
					gbot, _, err := d.client.Over(shape.shards).BottomK(ctx, k)
					if err != nil {
						t.Fatalf("http bottomk: %v", err)
					}
					if !slices.Equal(gbot, sorted[:k]) {
						t.Errorf("bottomk = %v, sort oracle says %v", gbot, sorted[:k])
					}

					gsum, gsrep, err := d.client.Over(shape.shards).Summary(ctx)
					if err != nil {
						t.Fatalf("http summary: %v", err)
					}
					wsum, wsrep, err := oracle.Over(shape.shards).Summary(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if gsum != wsum || simOf(gsrep) != simOf(wsrep) {
						t.Errorf("summary diverges: http %+v, pool %+v", gsum, wsum)
					}

					// The same workload replayed through the resident-dataset
					// path: the shards ship once, every query body carries
					// parameters only, and each response — simulated metrics
					// included — must be bit-identical to the shard-per-query
					// results above.
					rd := d.client.Dataset("e2e-" + strings.ReplaceAll(shape.name, "/", "-"))
					if _, err := rd.Upload(ctx, shape.shards); err != nil {
						t.Fatalf("dataset upload: %v", err)
					}
					medRank := (n + 1) / 2
					dsel, err := rd.Select(ctx, medRank)
					if err != nil {
						t.Fatalf("dataset select: %v", err)
					}
					if dsel.Value != sorted[medRank-1] {
						t.Errorf("dataset select rank %d = %d, sort oracle says %d",
							medRank, dsel.Value, sorted[medRank-1])
					}
					dmed, err := rd.Median(ctx)
					if err != nil {
						t.Fatalf("dataset median: %v", err)
					}
					if dmed.Value != wmed.Value || simOf(dmed.Report) != simOf(wmed.Report) {
						t.Errorf("dataset median diverges: %d %+v, pool %d %+v",
							dmed.Value, simOf(dmed.Report), wmed.Value, simOf(wmed.Report))
					}
					dq, err := rd.Quantile(ctx, 0.9)
					if err != nil {
						t.Fatalf("dataset quantile: %v", err)
					}
					if dq.Value != wq.Value || simOf(dq.Report) != simOf(wq.Report) {
						t.Errorf("dataset quantile(0.9) diverges: %d, pool %d", dq.Value, wq.Value)
					}
					dqs, dqrep, err := rd.Quantiles(ctx, qs)
					if err != nil {
						t.Fatalf("dataset quantiles: %v", err)
					}
					if !slices.Equal(dqs, wqs) || simOf(dqrep) != simOf(wrep) {
						t.Errorf("dataset quantiles diverge: %v %+v, pool %v %+v",
							dqs, simOf(dqrep), wqs, simOf(wrep))
					}
					drs, drrep, err := rd.SelectRanks(ctx, ranks)
					if err != nil {
						t.Fatalf("dataset ranks: %v", err)
					}
					if !slices.Equal(drs, wrs) || simOf(drrep) != simOf(wrep2) {
						t.Errorf("dataset ranks diverge: %v, pool %v", drs, wrs)
					}
					dtop, _, err := rd.TopK(ctx, k)
					if err != nil {
						t.Fatalf("dataset topk: %v", err)
					}
					if !slices.Equal(dtop, wtop) {
						t.Errorf("dataset topk diverges: %v, pool %v", dtop, wtop)
					}
					dbot, _, err := rd.BottomK(ctx, k)
					if err != nil {
						t.Fatalf("dataset bottomk: %v", err)
					}
					if !slices.Equal(dbot, sorted[:k]) {
						t.Errorf("dataset bottomk = %v, sort oracle says %v", dbot, sorted[:k])
					}
					dsum, dsrep, err := rd.Summary(ctx)
					if err != nil {
						t.Fatalf("dataset summary: %v", err)
					}
					if dsum != wsum || simOf(dsrep) != simOf(wsrep) {
						t.Errorf("dataset summary diverges: %+v, pool %+v", dsum, wsum)
					}
					if _, err := rd.Delete(ctx); err != nil {
						t.Fatalf("dataset delete: %v", err)
					}
				})
			}
		})
	}
}

// TestDaemonConcurrentClientsBitIdentical hammers one daemon with 48
// concurrent HTTP clients over a mixed query set and asserts every
// response — including the simulated metrics — bit-identical to
// in-process expectations. Run under -race this is the serving-layer
// stress for the whole HTTP stack.
func TestDaemonConcurrentClientsBitIdentical(t *testing.T) {
	type job struct {
		shards   [][]int64
		rank     int64
		wantVal  int64
		wantRep  simReport
		ranks    []int64
		wantVals []int64
	}
	var jobs []job
	for _, cfg := range []struct {
		kind workload.Kind
		n    int64
		p    int
	}{
		{workload.Random, 30000, 8},
		{workload.Sorted, 20000, 8},
		{workload.FewDistinct, 15000, 4},
		{workload.ZipfLike, 18000, 6},
	} {
		shards := workload.Generate(cfg.kind, cfg.n, cfg.p, 7)
		for _, rank := range []int64{1, cfg.n / 3, (cfg.n + 1) / 2, cfg.n} {
			res, err := parsel.Over(shards, parsel.Options{}).Select(context.Background(), rank)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{shards: shards, rank: rank, wantVal: res.Value, wantRep: simOf(res.Report)})
		}
		ranks := []int64{1, cfg.n / 4, cfg.n / 2, cfg.n}
		vals, rep, err := parsel.Over(shards, parsel.Options{}).SelectRanks(context.Background(), ranks)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{shards: shards, ranks: ranks, wantVals: slices.Clone(vals), wantRep: simOf(rep)})
	}

	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4},
		serve.Options{QueueDepth: 256})
	defer d.close()

	const clients = 48
	rounds := 2
	if testing.Short() {
		rounds = 1
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for off := 0; off < len(jobs); off++ {
					j := jobs[(c+off)%len(jobs)]
					if j.ranks != nil {
						vals, rep, err := d.client.Over(j.shards).SelectRanks(ctx, j.ranks)
						if err != nil {
							t.Errorf("client %d ranks: %v", c, err)
							return
						}
						if !slices.Equal(vals, j.wantVals) || simOf(rep) != j.wantRep {
							t.Errorf("client %d ranks diverge: %v %+v, want %v %+v",
								c, vals, simOf(rep), j.wantVals, j.wantRep)
							return
						}
						continue
					}
					res, err := d.client.Over(j.shards).Select(ctx, j.rank)
					if err != nil {
						t.Errorf("client %d rank %d: %v", c, j.rank, err)
						return
					}
					if res.Value != j.wantVal || simOf(res.Report) != j.wantRep {
						t.Errorf("client %d rank %d diverges: %d %+v, want %d %+v",
							c, j.rank, res.Value, simOf(res.Report), j.wantVal, j.wantRep)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st, err := d.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantOK := int64(clients * rounds * len(jobs))
	if st.Server.OK != wantOK || st.Server.Requests != wantOK {
		t.Errorf("stats: %d/%d ok/requests, want %d", st.Server.OK, st.Server.Requests, wantOK)
	}
	if st.Sim.Queries != wantOK || st.Latency.Count != wantOK {
		t.Errorf("stats: sim queries %d, latency count %d, want %d",
			st.Sim.Queries, st.Latency.Count, wantOK)
	}
	if st.Sim.SimSeconds <= 0 || st.Sim.Messages <= 0 {
		t.Errorf("stats: empty simulated aggregates: %+v", st.Sim)
	}
	if st.Pool.Creates > 4 {
		t.Errorf("pool built %d machines, capacity 4", st.Pool.Creates)
	}
	if st.Pool.Resident > 4 || st.Pool.Resident != st.Pool.Idle {
		t.Errorf("pool gauges after quiesce: %+v, want Resident==Idle<=4", st.Pool)
	}
}

// TestDaemonStatsAndHealth pins the observability surface: /healthz
// flips to 503 on drain, /v1/stats rejects POST, queries during drain
// are refused with the shutting_down code mapped to ErrPoolClosed.
func TestDaemonStatsAndHealth(t *testing.T) {
	ctx := context.Background()
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{})
	defer d.close()

	if err := d.client.Health(ctx); err != nil {
		t.Fatalf("healthy daemon: %v", err)
	}
	shards := [][]int64{{3, 1, 4}, {1, 5}}
	if _, err := d.client.Over(shards).Median(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := d.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.OK != 1 || st.Pool.MaxMachines != 2 || st.Latency.Count != 1 {
		t.Errorf("stats after one query: %+v", st)
	}
	if len(st.Latency.Buckets) == 0 ||
		st.Latency.Buckets[len(st.Latency.Buckets)-1].Count != 1 {
		t.Errorf("latency histogram missing the query: %+v", st.Latency)
	}

	d.server.Drain()
	if err := d.client.Health(ctx); err == nil {
		t.Error("draining daemon still reports healthy")
	}
	_, err = d.client.Over(shards).Median(ctx)
	var apiErr *parselclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Code != parselclient.CodeShuttingDown {
		t.Errorf("query while draining: %v", err)
	}
	if !errors.Is(err, parsel.ErrPoolClosed) {
		t.Errorf("draining error should map to ErrPoolClosed, got %v", err)
	}
}
