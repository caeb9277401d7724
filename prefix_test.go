package parsel_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"parsel"
	"parsel/internal/workload"
)

// prefixQueries are the single-rank queries that replay a Dataset's
// prefix memo, at both ends and inside the population.
func prefixQueries(n int64) []parsel.Query {
	return []parsel.Query{
		{Op: parsel.OpSelect, Rank: 1},
		{Op: parsel.OpSelect, Rank: n/3 + 1},
		{Op: parsel.OpSelect, Rank: n},
		{Op: parsel.OpMedian},
		{Op: parsel.OpQuantile, Q: 0.9},
		{Op: parsel.OpTopK, K: 5},
		{Op: parsel.OpBottomK, K: 3},
	}
}

// checkSameAnswer fails unless a Dataset's answer equals Pool.Over's in
// value, values and every Report field but the wall clock.
func checkSameAnswer(t *testing.T, what string, got, want parsel.Answer[int64]) {
	t.Helper()
	if got.Value != want.Value || !slices.Equal(got.Values, want.Values) ||
		simOnly(got.Report) != simOnly(want.Report) {
		t.Errorf("%s: dataset %v %v %+v, pool %v %v %+v", what,
			got.Value, got.Values, simOnly(got.Report), want.Value, want.Values, simOnly(want.Report))
	}
}

// TestDatasetPrefixReplayMatchesPool pins that replaying the memoized
// first sample sort is invisible: across option sets, layouts, machine
// sizes that take the gather (p^2 large against the sample) and the
// parallel sort, and two population sizes, every single-rank query of a
// resident Dataset, the capturing first one and the replayed rest,
// answers exactly as Pool.Over on the same shards. The first query
// must publish a memo that replays.
func TestDatasetPrefixReplayMatchesPool(t *testing.T) {
	ctx := context.Background()
	optSets := []struct {
		name string
		opts parsel.Options
	}{
		{"default", parsel.Options{}},
		{"faithful", parsel.Options{Faithful: true, Balancer: parsel.NoBalance}},
		{"exp0.5-slack2-dimexch", parsel.Options{SampleExponent: 0.5, RankSlack: 2, Balancer: parsel.DimensionExchange}},
		{"mesh-seed9-globexch", parsel.Options{Balancer: parsel.GlobalExchange,
			Machine: parsel.Machine{Topology: parsel.TopologyMesh2D, Seed: 9}}},
	}
	kinds := []workload.Kind{workload.Random, workload.Sorted, workload.FewDistinct, workload.ZipfLike}
	for _, set := range optSets {
		pool, err := parsel.NewPool[int64](set.opts, parsel.PoolOptions{MaxMachines: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		for _, kind := range kinds {
			for _, p := range []int{2, 3, 6, 8, 17} {
				for _, n := range []int64{3000, 20000} {
					shards := workload.Generate(kind, n, p, uint64(n)+uint64(p))
					ds, err := pool.NewDataset(shards)
					if err != nil {
						t.Fatal(err)
					}
					for i, q := range prefixQueries(n) {
						what := fmt.Sprintf("%s/%v/p%d/n%d/%v", set.name, kind, p, n, q)
						got, err := ds.Run(ctx, q)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						want, err := pool.Run(ctx, shards, q)
						if err != nil {
							t.Fatal(err)
						}
						checkSameAnswer(t, what, got, want)
						if _, replays, _ := ds.PrefixForTest(); i == 0 && !replays {
							t.Errorf("%s: the first query published no replayable memo", what)
						}
					}
					ds.Close()
				}
			}
		}
	}
}

// TestDatasetPrefixConcurrentFirstQueries starts a fresh Dataset with
// many concurrent first queries (run under -race): each may capture a
// memo, exactly one is published and kept, every answer equals
// Pool.Over's, and later queries build no memo.
func TestDatasetPrefixConcurrentFirstQueries(t *testing.T) {
	ctx := context.Background()
	shards := workload.Generate(workload.Random, 20000, 8, 3)
	pool, ds := newDataset(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4}, shards)
	queries := prefixQueries(20000)
	want := make([]parsel.Answer[int64], len(queries))
	for i, q := range queries {
		a, err := pool.Over(shards)(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}
	if memo, _, _ := ds.PrefixForTest(); memo != nil {
		t.Fatal("memo published before the first query")
	}
	const clients = 8
	var start, wg sync.WaitGroup
	start.Add(1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start.Wait()
			for j := range queries {
				i := (c + j) % len(queries)
				got, err := ds.Run(ctx, queries[i])
				if err != nil {
					t.Errorf("client %d %v: %v", c, queries[i], err)
					return
				}
				checkSameAnswer(t, fmt.Sprintf("client %d %v", c, queries[i]), got, want[i])
			}
		}(c)
	}
	start.Done()
	wg.Wait()
	memo, replays, builds := ds.PrefixForTest()
	if !replays || builds < 1 || builds > clients {
		t.Fatalf("after %d concurrent first queries: replayable memo %v, %d built", clients, replays, builds)
	}
	for i, q := range queries {
		got, err := ds.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		checkSameAnswer(t, fmt.Sprint(q), got, want[i])
	}
	if again, _, b := ds.PrefixForTest(); again != memo || b != builds {
		t.Errorf("queries after publication replaced the memo (%v) or built %d more", again != memo, b-builds)
	}
}

// TestDatasetPrefixNeverBuilt pins where no memo exists: multi-rank ops
// on a Dataset (also interleaved with caller-shard Pool.Run queries of
// every op on the same machine, which carry no hints and so have no
// memo slot at all), Datasets of the Randomized and MedianOfMedians
// algorithms, one-shard Datasets, and a query refused at admission.
// None of those Datasets builds or publishes a memo.
func TestDatasetPrefixNeverBuilt(t *testing.T) {
	ctx := context.Background()
	shards := workload.Generate(workload.Random, 20000, 8, 5)
	all := append(prefixQueries(20000),
		parsel.Query{Op: parsel.OpQuantiles, Qs: []float64{0.1, 0.5}},
		parsel.Query{Op: parsel.OpRanks, Ranks: []int64{1, 7, 20000}},
		parsel.Query{Op: parsel.OpSummary})
	multi := all[len(all)-3:]
	noMemo := func(what string, ds *parsel.Dataset[int64]) {
		t.Helper()
		if memo, _, builds := ds.PrefixForTest(); memo != nil || builds != 0 {
			t.Errorf("%s: memo published %v, %d built", what, memo != nil, builds)
		}
	}

	pool, ds := newDataset(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1}, shards)
	for _, q := range all {
		if _, err := pool.Run(ctx, shards, q); err != nil {
			t.Fatal(err)
		}
		for _, mq := range multi {
			if _, err := ds.Run(ctx, mq); err != nil {
				t.Fatal(err)
			}
		}
	}
	noMemo("multi-rank ops", ds)

	// Refused at admission: the pool's only machine is held.
	release, err := pool.CheckoutForTest(8)
	if err != nil {
		t.Fatal(err)
	}
	tctx, cancel := context.WithTimeout(ctx, time.Millisecond)
	_, err = ds.Median(tctx)
	cancel()
	release()
	if !errors.Is(err, parsel.ErrPoolTimeout) {
		t.Fatalf("held-machine query = %v, want ErrPoolTimeout", err)
	}
	noMemo("refused query", ds)

	for _, alg := range []parsel.Algorithm{parsel.Randomized, parsel.MedianOfMedians} {
		_, other := newDataset(t, parsel.Options{Algorithm: alg}, parsel.PoolOptions{MaxMachines: 1}, shards)
		for _, q := range all {
			if _, err := other.Run(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		noMemo(fmt.Sprintf("algorithm %v", alg), other)
	}
	_, one := newDataset(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1}, [][]int64{slices.Concat(shards...)})
	for _, q := range all {
		if _, err := one.Run(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	noMemo("one shard", one)
}

// TestDatasetPrefixRestoreReplays pins that a RestoreDataset of a
// Dataset's view captures and replays its own memo exactly as the
// NewDataset does: both answer every single-rank query as Pool.Over.
func TestDatasetPrefixRestoreReplays(t *testing.T) {
	ctx := context.Background()
	shards := workload.Generate(workload.Sorted, 20000, 6, 11)
	pool, ds := newDataset(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, shards)
	view, err := ds.View()
	if err != nil {
		t.Fatal(err)
	}
	restored := make([][]int64, len(view))
	for i, sh := range view {
		restored[i] = slices.Clone(sh)
	}
	rds, err := pool.RestoreDataset(restored)
	if err != nil {
		t.Fatal(err)
	}
	defer rds.Close()
	for round := 0; round < 2; round++ {
		for _, q := range prefixQueries(20000) {
			want, err := pool.Over(shards)(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			for name, d := range map[string]*parsel.Dataset[int64]{"new": ds, "restored": rds} {
				got, err := d.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				checkSameAnswer(t, fmt.Sprintf("%s round %d %v", name, round, q), got, want)
			}
		}
	}
	m1, r1, _ := ds.PrefixForTest()
	m2, r2, _ := rds.PrefixForTest()
	if !r1 || !r2 || m1 == m2 {
		t.Errorf("each dataset should hold its own replayable memo: replays %v %v, shared %v", r1, r2, m1 == m2)
	}
}

// TestDatasetPrefixPerOptions pins that a memo never crosses Options:
// two Pools whose Options differ (sample exponent, seed, topology) hold
// Datasets over the same shards, and each Dataset, memo replayed,
// matches its own Pool.Over, not the other's.
func TestDatasetPrefixPerOptions(t *testing.T) {
	ctx := context.Background()
	shards := workload.Generate(workload.Gaussian, 20000, 8, 13)
	for _, opts := range []parsel.Options{
		{},
		{SampleExponent: 0.55, Machine: parsel.Machine{Seed: 4, Topology: parsel.TopologyRing}},
	} {
		pool, ds := newDataset(t, opts, parsel.PoolOptions{MaxMachines: 1}, shards)
		for round := 0; round < 2; round++ {
			for _, q := range prefixQueries(20000) {
				want, err := pool.Over(shards)(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ds.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				checkSameAnswer(t, fmt.Sprintf("%+v round %d %v", opts, round, q), got, want)
			}
		}
	}
}

// TestDatasetPrefixInertBelowThreshold pins the memo of a population
// too small to iterate (n <= p^2 goes straight to the final gather): the
// first query publishes an inert memo, so later queries build none, and
// every answer still equals Pool.Over's.
func TestDatasetPrefixInertBelowThreshold(t *testing.T) {
	ctx := context.Background()
	shards := workload.Generate(workload.Random, 40, 8, 21)
	pool, ds := newDataset(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 1}, shards)
	for round := 0; round < 2; round++ {
		for _, q := range prefixQueries(40) {
			want, err := pool.Over(shards)(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ds.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			checkSameAnswer(t, fmt.Sprintf("round %d %v", round, q), got, want)
		}
	}
	if memo, replays, builds := ds.PrefixForTest(); memo == nil || replays || builds != 1 {
		t.Errorf("published %v, replays %v, built %d; want one inert memo", memo != nil, replays, builds)
	}
}
