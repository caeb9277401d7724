package parsel_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"parsel"
	"parsel/internal/workload"
)

// simReport strips the host-dependent wall clock out of a Report so the
// simulated metrics can be compared bit-for-bit.
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

// poolQuery is one precomputed query of the stress mix: the request plus
// the one-shot oracle answer it must reproduce bit-identically.
type poolQuery struct {
	name     string
	shards   [][]int64
	rank     int64
	ranks    []int64 // multi-rank request (used when non-nil)
	wantVal  int64
	wantVals []int64
	wantRep  simReport
}

// buildPoolQueries assembles a query mix over several machine shapes and
// entry points, with expectations taken from the package-level
// parsel.Over(...) queries.
func buildPoolQueries(t *testing.T) []poolQuery {
	t.Helper()
	var queries []poolQuery
	for _, cfg := range []struct {
		kind workload.Kind
		n    int64
		p    int
	}{
		{workload.Random, 40000, 8},
		{workload.Sorted, 30000, 8},
		{workload.FewDistinct, 20000, 4},
		{workload.ZipfLike, 25000, 6},
	} {
		shards := workload.Generate(cfg.kind, cfg.n, cfg.p, 7)
		for _, rank := range []int64{1, cfg.n / 3, (cfg.n + 1) / 2, cfg.n} {
			res, err := parsel.Over(shards, parsel.Options{}).Select(context.Background(), rank)
			if err != nil {
				t.Fatalf("%v/%d one-shot: %v", cfg.kind, cfg.p, err)
			}
			queries = append(queries, poolQuery{
				name:    cfg.kind.String(),
				shards:  shards,
				rank:    rank,
				wantVal: res.Value,
				wantRep: simOf(res.Report),
			})
		}
		ranks := []int64{1, cfg.n / 4, cfg.n / 2, cfg.n}
		vals, rep, err := parsel.Over(shards, parsel.Options{}).SelectRanks(context.Background(), ranks)
		if err != nil {
			t.Fatalf("%v/%d one-shot ranks: %v", cfg.kind, cfg.p, err)
		}
		queries = append(queries, poolQuery{
			name:     cfg.kind.String() + "/ranks",
			shards:   shards,
			ranks:    ranks,
			wantVals: slices.Clone(vals),
			wantRep:  simOf(rep),
		})
	}
	return queries
}

// TestPoolStressBitIdentical is the serving-layer stress test: 48
// goroutines hammer one Pool (capacity 4) with a mixed workload across
// machine shapes, and every result — value and all simulated metrics —
// must be bit-identical to the one-shot runs. Run under -race this also
// exercises the checkout/checkin paths and the machine single-flight
// assertion.
func TestPoolStressBitIdentical(t *testing.T) {
	queries := buildPoolQueries(t)
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const clients = 48
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	var done atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Stagger starting points so shapes interleave.
				for off := 0; off < len(queries); off++ {
					q := queries[(c+off)%len(queries)]
					if q.ranks != nil {
						vals, rep, err := pool.Over(q.shards).SelectRanks(context.Background(), q.ranks)
						if err != nil {
							t.Errorf("client %d %s: %v", c, q.name, err)
							return
						}
						if !slices.Equal(vals, q.wantVals) {
							t.Errorf("client %d %s: values %v, want %v", c, q.name, vals, q.wantVals)
							return
						}
						if simOf(rep) != q.wantRep {
							t.Errorf("client %d %s: simulated metrics diverge from one-shot:\npool:     %+v\none-shot: %+v",
								c, q.name, simOf(rep), q.wantRep)
							return
						}
						continue
					}
					res, err := pool.Over(q.shards).Select(context.Background(), q.rank)
					if err != nil {
						t.Errorf("client %d %s rank %d: %v", c, q.name, q.rank, err)
						return
					}
					if res.Value != q.wantVal {
						t.Errorf("client %d %s rank %d: value %d, want %d", c, q.name, q.rank, res.Value, q.wantVal)
						return
					}
					if simOf(res.Report) != q.wantRep {
						t.Errorf("client %d %s rank %d: simulated metrics diverge from one-shot:\npool:     %+v\none-shot: %+v",
							c, q.name, q.rank, simOf(res.Report), q.wantRep)
						return
					}
					done.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := pool.Stats()
	if st.Creates > 4 {
		t.Errorf("pool built %d Selectors, capacity 4", st.Creates)
	}
	if st.Hits == 0 {
		t.Error("pool never reused an idle Selector")
	}
	t.Logf("served %d single-rank queries: %+v", done.Load(), st)
}

// TestPoolQuerySurface checks every pooled entry point against its
// direct (one-shot) counterpart on one workload.
func TestPoolQuerySurface(t *testing.T) {
	shards := workload.Generate(workload.Gaussian, 20000, 8, 3)
	n := workload.Total(shards)
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	direct, err := parsel.Over(shards, parsel.Options{}).Median(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	med, err := pool.Over(shards).Median(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if med.Value != direct.Value || simOf(med.Report) != simOf(direct.Report) {
		t.Errorf("pooled Median diverges: %+v vs %+v", med, direct)
	}

	dq, err := parsel.Over(shards, parsel.Options{}).Quantile(context.Background(), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := pool.Over(shards).Quantile(context.Background(), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Value != dq.Value {
		t.Errorf("pooled Quantile = %d, want %d", pq.Value, dq.Value)
	}

	qs := []float64{0.25, 0.5, 0.75}
	dvals, _, err := parsel.Over(shards, parsel.Options{}).Quantiles(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	pvals, _, err := pool.Over(shards).Quantiles(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pvals, dvals) {
		t.Errorf("pooled Quantiles = %v, want %v", pvals, dvals)
	}

	dtop, _, err := parsel.Over(shards, parsel.Options{}).TopK(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	ptop, _, err := pool.Over(shards).TopK(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ptop, dtop) {
		t.Errorf("pooled TopK = %v, want %v", ptop, dtop)
	}

	dbot, _, err := parsel.Over(shards, parsel.Options{}).BottomK(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	pbot, _, err := pool.Over(shards).BottomK(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pbot, dbot) {
		t.Errorf("pooled BottomK = %v, want %v", pbot, dbot)
	}

	dsum, _, err := parsel.Over(shards, parsel.Options{}).Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	psum, _, err := pool.Over(shards).Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if psum != dsum {
		t.Errorf("pooled Summary = %+v, want %+v", psum, dsum)
	}

	// SelectInPlace through the pool: hand over a private copy.
	mine := make([][]int64, len(shards))
	for i, s := range shards {
		mine[i] = slices.Clone(s)
	}
	rip, err := pool.SelectInPlace(context.Background(), mine, (n+1)/2)
	if err != nil {
		t.Fatal(err)
	}
	if rip.Value != direct.Value {
		t.Errorf("pooled SelectInPlace = %d, want %d", rip.Value, direct.Value)
	}
}

// TestPoolSelectManyBatch fans a batch with both valid and invalid
// queries: results align with the request and errors stay per-query.
func TestPoolSelectManyBatch(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var queries []parsel.ShardQuery[int64]
	var want []int64
	for _, p := range []int{2, 4, 8} {
		shards := workload.Generate(workload.Random, 9000, p, uint64(p))
		flat := workload.Flatten(shards)
		slices.Sort(flat)
		for _, rank := range []int64{1, 4500, 9000} {
			queries = append(queries, parsel.ShardQuery[int64]{Shards: shards, Rank: rank})
			want = append(want, flat[rank-1])
		}
	}
	// Two failing queries in the middle of the batch.
	bad := workload.Generate(workload.Random, 100, 2, 9)
	queries = append(queries[:4], append([]parsel.ShardQuery[int64]{
		{Shards: bad, Rank: 0},
		{Shards: nil, Rank: 1},
	}, queries[4:]...)...)
	want = append(want[:4], append([]int64{0, 0}, want[4:]...)...)

	out := pool.SelectMany(queries)
	if len(out) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(out), len(queries))
	}
	for i, r := range out {
		switch i {
		case 4:
			if !errors.Is(r.Err, parsel.ErrRankRange) {
				t.Errorf("query %d: err %v, want ErrRankRange", i, r.Err)
			}
		case 5:
			if !errors.Is(r.Err, parsel.ErrNoShards) {
				t.Errorf("query %d: err %v, want ErrNoShards", i, r.Err)
			}
		default:
			if r.Err != nil {
				t.Errorf("query %d: %v", i, r.Err)
			} else if r.Value != want[i] {
				t.Errorf("query %d: value %d, want %d", i, r.Value, want[i])
			}
		}
	}
}

// TestPoolResultsAreCallerOwned pins the copy-out contract: a slice
// returned by a pooled multi-rank query must not be clobbered by later
// queries on the same pool.
func TestPoolResultsAreCallerOwned(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	shards := workload.Generate(workload.Random, 5000, 4, 1)
	ranks := []int64{1, 2500, 5000}
	vals, _, err := pool.Over(shards).SelectRanks(context.Background(), ranks)
	if err != nil {
		t.Fatal(err)
	}
	got := slices.Clone(vals)
	// Hammer the same (single) Selector with different requests.
	other := workload.Generate(workload.FewDistinct, 4000, 4, 2)
	for i := 0; i < 5; i++ {
		if _, _, err := pool.Over(other).SelectRanks(context.Background(), []int64{7, 9, 4000}); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(vals, got) {
		t.Errorf("pooled SelectRanks result was clobbered by later queries: %v != %v", vals, got)
	}
}

// TestPoolClose checks the closed lifecycle: all methods report
// ErrPoolClosed, and Close is idempotent.
func TestPoolClose(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]int64{{3, 1}, {2}}
	if _, err := pool.Over(shards).Select(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	pool.Close() // idempotent
	if _, err := pool.Over(shards).Select(context.Background(), 1); !errors.Is(err, parsel.ErrPoolClosed) {
		t.Errorf("Select after Close: %v", err)
	}
	if _, err := pool.Over(shards).Median(context.Background()); !errors.Is(err, parsel.ErrPoolClosed) {
		t.Errorf("Median after Close: %v", err)
	}
	if _, _, err := pool.Over(shards).SelectRanks(context.Background(), []int64{1}); !errors.Is(err, parsel.ErrPoolClosed) {
		t.Errorf("SelectRanks after Close: %v", err)
	}
	if _, _, err := pool.Over(shards).TopK(context.Background(), 1); !errors.Is(err, parsel.ErrPoolClosed) {
		t.Errorf("TopK after Close: %v", err)
	}
	out := pool.SelectMany([]parsel.ShardQuery[int64]{{Shards: shards, Rank: 1}})
	if !errors.Is(out[0].Err, parsel.ErrPoolClosed) {
		t.Errorf("SelectMany after Close: %v", out[0].Err)
	}
}

// TestPoolSerializesAtCap runs many goroutines against a single-machine
// pool: everything must still be correct, and only one Selector may ever
// be built.
func TestPoolSerializesAtCap(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	shards := workload.Generate(workload.Random, 10000, 4, 5)
	flat := workload.Flatten(shards)
	slices.Sort(flat)

	const clients = 32
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(rank int64) {
			defer wg.Done()
			res, err := pool.Over(shards).Select(context.Background(), rank)
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
				return
			}
			if res.Value != flat[rank-1] {
				t.Errorf("rank %d: %d, want %d", rank, res.Value, flat[rank-1])
			}
		}(int64(c*300 + 1))
	}
	wg.Wait()
	if st := pool.Stats(); st.Creates != 1 {
		t.Errorf("single-machine pool built %d Selectors", st.Creates)
	}
}

// TestPoolWarm pins the pre-provisioning contract: Warm grows the pool
// to the requested size (machines built), capped at MaxMachines, and
// later queries find warm machines.
func TestPoolWarm(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.Warm(8, 5); err != nil { // asks beyond the cap
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Creates != 3 {
		t.Errorf("Warm built %d Selectors, want 3 (the cap)", st.Creates)
	}
	shards := workload.Generate(workload.Random, 8000, 8, 1)
	if _, err := pool.Over(shards).Median(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Creates != 3 || st.Hits == 0 {
		t.Errorf("query after Warm built a machine or missed: %+v", st)
	}
	if err := pool.Warm(0, 1); !errors.Is(err, parsel.ErrNoShards) {
		t.Errorf("Warm with 0 procs: %v", err)
	}
	if err := pool.Warm(4, -1); err == nil {
		t.Error("Warm with a negative count: no error")
	}
	if _, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: -1}); err == nil {
		t.Error("NewPool with negative MaxMachines: no error")
	}
	// Concurrent Warms must serialize, not deadlock on partial
	// capacity.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pool.Warm(4, 3); err != nil {
				t.Errorf("concurrent Warm: %v", err)
			}
		}()
	}
	wg.Wait()
	pool.Close()
	if err := pool.Warm(8, 1); !errors.Is(err, parsel.ErrPoolClosed) {
		t.Errorf("Warm after Close: %v", err)
	}
}

// TestPoolErrorValidation checks argument errors surface through the
// pool unchanged.
func TestPoolErrorValidation(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Over(nil).Select(context.Background(), 1); !errors.Is(err, parsel.ErrNoShards) {
		t.Errorf("nil shards: %v", err)
	}
	if _, err := pool.Over([][]int64{{}, {}}).Select(context.Background(), 1); !errors.Is(err, parsel.ErrNoData) {
		t.Errorf("empty shards: %v", err)
	}
	if _, err := pool.Over([][]int64{{1}}).Select(context.Background(), 5); !errors.Is(err, parsel.ErrRankRange) {
		t.Errorf("bad rank: %v", err)
	}
	if _, err := pool.Over([][]int64{{1}}).Quantile(context.Background(), 2.0); !errors.Is(err, parsel.ErrBadQuantile) {
		t.Errorf("bad quantile: %v", err)
	}
}
