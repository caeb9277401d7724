package parsel_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"parsel"
	"parsel/internal/workload"
)

// newDataset builds a pool + resident dataset over a generated
// workload, with cleanup registered.
func newDataset(t *testing.T, opts parsel.Options, po parsel.PoolOptions, shards [][]int64) (*parsel.Pool[int64], *parsel.Dataset[int64]) {
	t.Helper()
	pool, err := parsel.NewPool[int64](opts, po)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	ds, err := pool.NewDataset(shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	return pool, ds
}

// TestDatasetMatchesPool pins the resident contract: every query of the
// dataset surface returns values and simulated metrics bit-identical to
// passing the same shards through the Pool's shard-per-query methods.
func TestDatasetMatchesPool(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts parsel.Options
	}{
		{"default", parsel.Options{}},
		{"mom-omlb-ring", parsel.Options{
			Algorithm: parsel.MedianOfMedians,
			Balancer:  parsel.OMLB,
			Machine:   parsel.Machine{Topology: parsel.TopologyRing},
		}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			shards := workload.Generate(workload.ZipfLike, 20000, 6, 42)
			var n int64
			for _, sh := range shards {
				n += int64(len(sh))
			}
			pool, ds := newDataset(t, cfg.opts, parsel.PoolOptions{MaxMachines: 2}, shards)

			for _, rank := range []int64{1, n / 3, (n + 1) / 2, n} {
				got, err := ds.Select(context.Background(), rank)
				if err != nil {
					t.Fatalf("dataset select rank %d: %v", rank, err)
				}
				want, err := pool.Over(shards).Select(context.Background(), rank)
				if err != nil {
					t.Fatal(err)
				}
				if got.Value != want.Value || simOf(got.Report) != simOf(want.Report) {
					t.Errorf("select rank %d: dataset %d %+v, pool %d %+v",
						rank, got.Value, simOf(got.Report), want.Value, simOf(want.Report))
				}
			}

			gmed, err := ds.Median(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			wmed, err := pool.Over(shards).Median(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if gmed.Value != wmed.Value || simOf(gmed.Report) != simOf(wmed.Report) {
				t.Errorf("median: dataset %d, pool %d", gmed.Value, wmed.Value)
			}

			gq, err := ds.Quantile(context.Background(), 0.95)
			if err != nil {
				t.Fatal(err)
			}
			wq, err := pool.Over(shards).Quantile(context.Background(), 0.95)
			if err != nil {
				t.Fatal(err)
			}
			if gq.Value != wq.Value || simOf(gq.Report) != simOf(wq.Report) {
				t.Errorf("quantile(0.95): dataset %d, pool %d", gq.Value, wq.Value)
			}

			qs := []float64{0, 0.25, 0.5, 0.75, 1}
			gqs, grep, err := ds.Quantiles(context.Background(), qs)
			if err != nil {
				t.Fatal(err)
			}
			wqs, wrep, err := pool.Over(shards).Quantiles(context.Background(), qs)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gqs, wqs) || simOf(grep) != simOf(wrep) {
				t.Errorf("quantiles: dataset %v %+v, pool %v %+v", gqs, simOf(grep), wqs, simOf(wrep))
			}

			ranks := []int64{1, n / 4, n / 2, n, 1}
			grs, grep2, err := ds.SelectRanks(context.Background(), ranks)
			if err != nil {
				t.Fatal(err)
			}
			wrs, wrep2, err := pool.Over(shards).SelectRanks(context.Background(), ranks)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(grs, wrs) || simOf(grep2) != simOf(wrep2) {
				t.Errorf("ranks: dataset %v, pool %v", grs, wrs)
			}

			gtop, gtrep, err := ds.TopK(context.Background(), 7)
			if err != nil {
				t.Fatal(err)
			}
			wtop, wtrep, err := pool.Over(shards).TopK(context.Background(), 7)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gtop, wtop) || simOf(gtrep) != simOf(wtrep) {
				t.Errorf("topk: dataset %v, pool %v", gtop, wtop)
			}
			gbot, _, err := ds.BottomK(context.Background(), 7)
			if err != nil {
				t.Fatal(err)
			}
			wbot, _, err := pool.Over(shards).BottomK(context.Background(), 7)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gbot, wbot) {
				t.Errorf("bottomk: dataset %v, pool %v", gbot, wbot)
			}

			gsum, gsrep, err := ds.Summary(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			wsum, wsrep, err := pool.Over(shards).Summary(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if gsum != wsum || simOf(gsrep) != simOf(wsrep) {
				t.Errorf("summary: dataset %+v, pool %+v", gsum, wsum)
			}
		})
	}
}

// TestDatasetSnapshotIsolation pins the upload-once semantics: after
// NewDataset returns, scribbling over (or shrinking) the caller's
// slices must not change any query result.
func TestDatasetSnapshotIsolation(t *testing.T) {
	shards := workload.Generate(workload.Random, 5000, 4, 9)
	pool, ds := newDataset(t, parsel.Options{}, parsel.PoolOptions{}, shards)

	before, err := ds.Median(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := pool.Over(shards).Median(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if before.Value != want.Value {
		t.Fatalf("pre-mutation median %d, pool says %d", before.Value, want.Value)
	}

	// Scribble over every caller slice.
	for i := range shards {
		for j := range shards[i] {
			shards[i][j] = -1 << 60
		}
		shards[i] = shards[i][:len(shards[i])/2]
	}

	after, err := ds.Median(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after.Value != before.Value || simOf(after.Report) != simOf(before.Report) {
		t.Errorf("median changed after caller mutation: %d -> %d", before.Value, after.Value)
	}
}

// TestDatasetResultsAreCallerOwned pins that multi-value results do not
// alias engine arenas: a later query must not scribble over an earlier
// result.
func TestDatasetResultsAreCallerOwned(t *testing.T) {
	shards := workload.Generate(workload.Random, 4000, 4, 3)
	_, ds := newDataset(t, parsel.Options{}, parsel.PoolOptions{}, shards)

	ranks := []int64{1, 1000, 2000, 4000}
	first, _, err := ds.SelectRanks(context.Background(), ranks)
	if err != nil {
		t.Fatal(err)
	}
	keep := slices.Clone(first)
	if _, _, err := ds.Quantiles(context.Background(), []float64{0.1, 0.9}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first, keep) {
		t.Errorf("earlier SelectRanks result mutated by a later query: %v != %v", first, keep)
	}
}

// TestDatasetLifecycle pins construction validation and the Close
// contract.
func TestDatasetLifecycle(t *testing.T) {
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	if _, err := pool.NewDataset(nil); !errors.Is(err, parsel.ErrNoShards) {
		t.Errorf("NewDataset(nil) = %v, want ErrNoShards", err)
	}

	// An empty population is resident but unqueryable, like the sharded
	// entry points.
	empty, err := pool.NewDataset([][]int64{{}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if empty.N() != 0 || empty.Procs() != 2 {
		t.Errorf("empty dataset: n=%d procs=%d", empty.N(), empty.Procs())
	}
	if _, err := empty.Median(context.Background()); !errors.Is(err, parsel.ErrNoData) {
		t.Errorf("median of empty dataset = %v, want ErrNoData", err)
	}
	empty.Close()

	ds, err := pool.NewDataset([][]int64{{3, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3 || ds.Procs() != 2 {
		t.Errorf("dataset gauges: n=%d procs=%d, want 3/2", ds.N(), ds.Procs())
	}
	if res, err := ds.Select(context.Background(), 2); err != nil || res.Value != 2 {
		t.Fatalf("select(2) = %v %v", res.Value, err)
	}
	if _, err := ds.Select(context.Background(), 4); !errors.Is(err, parsel.ErrRankRange) {
		t.Errorf("select(4) = %v, want ErrRankRange", err)
	}
	if _, err := ds.Quantile(context.Background(), 1.5); !errors.Is(err, parsel.ErrBadQuantile) {
		t.Errorf("quantile(1.5) = %v, want ErrBadQuantile", err)
	}

	ds.Close()
	ds.Close() // idempotent
	if _, err := ds.Median(context.Background()); !errors.Is(err, parsel.ErrDatasetClosed) {
		t.Errorf("median after Close = %v, want ErrDatasetClosed", err)
	}
	if _, _, err := ds.TopK(context.Background(), 1); !errors.Is(err, parsel.ErrDatasetClosed) {
		t.Errorf("topk after Close = %v, want ErrDatasetClosed", err)
	}

	// A closed pool refuses new datasets, and queries on a live dataset
	// surface the pool's error.
	late, err := pool.NewDataset([][]int64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	if _, err := pool.NewDataset([][]int64{{1}}); !errors.Is(err, parsel.ErrPoolClosed) {
		t.Errorf("NewDataset on closed pool = %v, want ErrPoolClosed", err)
	}
	if _, err := late.Median(context.Background()); !errors.Is(err, parsel.ErrPoolClosed) {
		t.Errorf("dataset query on closed pool = %v, want ErrPoolClosed", err)
	}
}

// TestDatasetAdmissionTimeout pins that a query's context bounds pool
// admission with the typed ErrPoolTimeout, using the deterministic
// checkout hook to hold the pool's only machine.
func TestDatasetAdmissionTimeout(t *testing.T) {
	shards := [][]int64{{5, 2}, {9}}
	pool, ds := newDataset(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1}, shards)

	release, err := pool.CheckoutForTest(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = ds.Median(ctx)
	if !errors.Is(err, parsel.ErrPoolTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("held-machine dataset query = %v, want ErrPoolTimeout + DeadlineExceeded", err)
	}
	release()
	if res, err := ds.Median(context.Background()); err != nil || res.Value != 5 {
		t.Errorf("median after release = %v %v", res.Value, err)
	}
}

// TestDatasetConcurrent runs 32 goroutines of mixed queries against one
// dataset (run under -race) and checks every result bit-identical to
// the precomputed oracle, with a Close racing the tail of the storm. The
// sorted layout makes the concurrent first queries compute the
// dataset's ascending flags and take the binary-search filter.
func TestDatasetConcurrent(t *testing.T) {
	for _, kind := range []workload.Kind{workload.FewDistinct, workload.Sorted} {
		t.Run(kind.String(), func(t *testing.T) {
			checkDatasetConcurrent(t, workload.Generate(kind, 12000, 6, 17))
		})
	}
}

func checkDatasetConcurrent(t *testing.T, shards [][]int64) {
	pool, ds := newDataset(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4}, shards)

	var n int64
	for _, sh := range shards {
		n += int64(len(sh))
	}
	wantMed, err := pool.Over(shards).Median(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantTop, _, err := pool.Over(shards).TopK(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	wantQs, _, err := pool.Over(shards).Quantiles(context.Background(), []float64{0.5, 0.99})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 32
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch (c + i) % 3 {
				case 0:
					res, err := ds.Median(context.Background())
					if err != nil {
						t.Errorf("client %d median: %v", c, err)
						return
					}
					if res.Value != wantMed.Value || simOf(res.Report) != simOf(wantMed.Report) {
						t.Errorf("client %d median diverges", c)
						return
					}
				case 1:
					top, _, err := ds.TopK(context.Background(), 5)
					if err != nil {
						t.Errorf("client %d topk: %v", c, err)
						return
					}
					if !slices.Equal(top, wantTop) {
						t.Errorf("client %d topk diverges: %v", c, top)
						return
					}
				case 2:
					vals, _, err := ds.Quantiles(context.Background(), []float64{0.5, 0.99})
					if err != nil {
						t.Errorf("client %d quantiles: %v", c, err)
						return
					}
					if !slices.Equal(vals, wantQs) {
						t.Errorf("client %d quantiles diverge: %v", c, vals)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// Close with the pool still healthy: in-flight work is done, later
	// queries get the typed error, the pool is untouched.
	ds.Close()
	if _, err := ds.Median(context.Background()); !errors.Is(err, parsel.ErrDatasetClosed) {
		t.Errorf("median after Close = %v, want ErrDatasetClosed", err)
	}
	if res, err := pool.Over(shards).Median(context.Background()); err != nil || res.Value != wantMed.Value {
		t.Errorf("pool unusable after dataset Close: %v %v", res.Value, err)
	}
}
