package parsel_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"parsel"
)

// The borrowed-input guard: no query may write the shards it reads,
// whichever algorithm, balancer and path serves it. Fast randomized selection reads borrowed shards in place, so
// these populations are well above p^2 (8 x 4096 keys): the pivot
// iterations, their filters and the stall fallback all run against the
// caller's memory. The early gather at the iteration cap is guarded by
// internal/selection's TestSelectionLeavesShardsUnchanged, where the cap
// can be lowered.

const (
	guardProcs = 8
	guardShard = 4096
)

// guardInputs returns the int64 populations: random keys, the paper's
// sorted layout (shard i holds the i-th block of the sorted order), and
// two-valued keys, on which a sample window spanning both values keeps
// every key and the fast randomized algorithm falls back to a single-pivot
// step.
func guardInputs() map[string][][]int64 {
	r := rand.New(rand.NewPCG(14, 1))
	random := make([][]int64, guardProcs)
	sorted := make([][]int64, guardProcs)
	dups := make([][]int64, guardProcs)
	for i := range random {
		random[i] = make([]int64, guardShard)
		sorted[i] = make([]int64, guardShard)
		dups[i] = make([]int64, guardShard)
		for j := range random[i] {
			random[i][j] = r.Int64N(1 << 40)
			sorted[i][j] = int64(i*guardShard + j)
			dups[i][j] = r.Int64N(2)
		}
	}
	return map[string][][]int64{"random": random, "sorted": sorted, "dup-heavy": dups}
}

// guardFloats returns float64 keys sprinkled with NaNs, both zeros and
// both infinities.
func guardFloats() [][]float64 {
	r := rand.New(rand.NewPCG(14, 2))
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	shards := make([][]float64, guardProcs)
	for i := range shards {
		shards[i] = make([]float64, guardShard)
		for j := range shards[i] {
			if r.IntN(8) == 0 {
				shards[i][j] = special[r.IntN(len(special))]
			} else {
				shards[i][j] = r.NormFloat64()
			}
		}
	}
	return shards
}

// sameKeys reports whether a and b hold the same keys in the same order,
// float64 keys compared bit for bit (so a swapped -0/+0 or NaN payload
// counts as a change).
func sameKeys[K cmp.Ordered](a, b []K) bool {
	return slices.EqualFunc(a, b, func(x, y K) bool {
		if f, ok := any(x).(float64); ok {
			return math.Float64bits(f) == math.Float64bits(any(y).(float64))
		}
		return x == y
	})
}

func cloneShards[K any](shards [][]K) [][]K {
	out := make([][]K, len(shards))
	for i, s := range shards {
		out[i] = slices.Clone(s)
	}
	return out
}

// namedQuery is one query of the guard's catalogue.
type namedQuery struct {
	name string
	run  func() error
}

// shardQuerier is the shard-per-query surface Selector and Pool share.
type shardQuerier[K cmp.Ordered] interface {
	Over(shards [][]K) parsel.Verbs[K]
}

// shardQueries lists every query kind of q on shards.
func shardQueries[K cmp.Ordered](q shardQuerier[K], shards [][]K) []namedQuery {
	return verbQueries(q.Over(shards), population(shards))
}

// verbSet is the eight named queries: parsel.Verbs, and every dataset
// that embeds them.
type verbSet[K cmp.Ordered] interface {
	Select(ctx context.Context, rank int64) (parsel.Result[K], error)
	Median(ctx context.Context) (parsel.Result[K], error)
	Quantile(ctx context.Context, q float64) (parsel.Result[K], error)
	Quantiles(ctx context.Context, qs []float64) ([]K, parsel.Report, error)
	SelectRanks(ctx context.Context, ranks []int64) ([]K, parsel.Report, error)
	TopK(ctx context.Context, k int) ([]K, parsel.Report, error)
	BottomK(ctx context.Context, k int) ([]K, parsel.Report, error)
	Summary(ctx context.Context) (parsel.FiveNumber[K], parsel.Report, error)
}

// verbQueries lists every named query of v over a population of n keys.
func verbQueries[K cmp.Ordered](v verbSet[K], n int64) []namedQuery {
	ctx := context.Background()
	return []namedQuery{
		{"Select", func() error { _, err := v.Select(ctx, n/3+1); return err }},
		{"Median", func() error { _, err := v.Median(ctx); return err }},
		{"Quantile", func() error { _, err := v.Quantile(ctx, 0.9); return err }},
		{"SelectRanks", func() error { _, _, err := v.SelectRanks(ctx, []int64{1, n / 4, n / 2, n}); return err }},
		{"Quantiles", func() error { _, _, err := v.Quantiles(ctx, []float64{0.1, 0.5, 0.99}); return err }},
		{"TopK", func() error { _, _, err := v.TopK(ctx, 7); return err }},
		{"BottomK", func() error { _, _, err := v.BottomK(ctx, 7); return err }},
		{"Summary", func() error { _, _, err := v.Summary(ctx); return err }},
	}
}

// runQueries lists every op as one query through a layer's Run; run is
// that layer's Run bound to its shards.
func runQueries(n int64, run func(parsel.Query) error) []namedQuery {
	var out []namedQuery
	for _, q := range []parsel.Query{
		{Op: parsel.OpSelect, Rank: n/3 + 1},
		{Op: parsel.OpMedian},
		{Op: parsel.OpQuantile, Q: 0.9},
		{Op: parsel.OpRanks, Ranks: []int64{1, n / 4, n / 2, n}},
		{Op: parsel.OpQuantiles, Qs: []float64{0.1, 0.5, 0.99}},
		{Op: parsel.OpTopK, K: 7},
		{Op: parsel.OpBottomK, K: 7},
		{Op: parsel.OpSummary},
	} {
		out = append(out, namedQuery{"Run/" + q.Op.String(), func() error { return run(q) }})
	}
	return out
}

// population is the total key count of shards.
func population[K any](shards [][]K) int64 {
	var n int64
	for _, s := range shards {
		n += int64(len(s))
	}
	return n
}

// datasetQueries lists every query kind of a resident Dataset, named
// methods and Run alike.
func datasetQueries[K cmp.Ordered](ds *parsel.Dataset[K]) []namedQuery {
	n := ds.N()
	run := runQueries(n, func(q parsel.Query) error { _, err := ds.Run(context.Background(), q); return err })
	return append(verbQueries[K](ds, n), run...)
}

// runGuarded runs each query and fails the test if it errs or if shards
// differ from want afterwards.
func runGuarded[K cmp.Ordered](t *testing.T, label string, shards, want [][]K, queries []namedQuery) {
	t.Helper()
	for _, q := range queries {
		if err := q.run(); err != nil {
			t.Fatalf("%s %s: %v", label, q.name, err)
		}
		for i := range shards {
			if !sameKeys(shards[i], want[i]) {
				t.Fatalf("%s %s: shard %d modified", label, q.name, i)
			}
		}
	}
}

var (
	guardAlgorithms = []parsel.Algorithm{
		parsel.FastRandomized, parsel.Randomized, parsel.MedianOfMedians,
		parsel.BucketBased, parsel.MedianOfMediansHybrid, parsel.BucketBasedHybrid,
	}
	guardBalancers = []parsel.Balancer{
		parsel.ModifiedOMLB, parsel.NoBalance, parsel.OMLB,
		parsel.DimensionExchange, parsel.GlobalExchange,
	}
)

// guardSelector runs the shard-per-query catalogue on a fresh Selector.
func guardSelector[K cmp.Ordered](t *testing.T, label string, shards [][]K, opts parsel.Options) {
	t.Helper()
	sel, err := parsel.NewSelector[K](opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	queries := append(shardQueries[K](sel, shards), runQueries(population(shards), func(q parsel.Query) error {
		_, err := sel.Run(shards, q)
		return err
	})...)
	runGuarded(t, label, shards, cloneShards(shards), queries)
}

func TestBorrowedShardsUnchangedSelector(t *testing.T) {
	inputs := guardInputs()
	floats := guardFloats()
	for _, alg := range guardAlgorithms {
		for _, bal := range guardBalancers {
			opts := parsel.Options{Algorithm: alg, Balancer: bal}
			for name, shards := range inputs {
				guardSelector(t, fmt.Sprintf("%v/%v/%s", alg, bal, name), shards, opts)
			}
			guardSelector(t, fmt.Sprintf("%v/%v/float64", alg, bal), floats, opts)
		}
		// p = 1: the sequential kernel runs on the processor's copy.
		one := [][]int64{slices.Concat(inputs["random"]...)}
		guardSelector(t, fmt.Sprintf("%v/p1", alg), one, parsel.Options{Algorithm: alg})
		guardSelector(t, fmt.Sprintf("%v/p1/float64", alg), [][]float64{slices.Concat(floats...)},
			parsel.Options{Algorithm: alg})
	}
}

func TestBorrowedShardsUnchangedPool(t *testing.T) {
	for name, shards := range guardInputs() {
		for _, opts := range []parsel.Options{{}, {Algorithm: parsel.Randomized}} {
			pl, err := parsel.NewPool[int64](opts, parsel.PoolOptions{MaxMachines: 2})
			if err != nil {
				t.Fatal(err)
			}
			want := cloneShards(shards)
			label := fmt.Sprintf("pool/%v/%s", opts.Algorithm, name)
			queries := append(shardQueries[int64](pl, shards), runQueries(population(shards), func(q parsel.Query) error {
				_, err := pl.Run(context.Background(), shards, q)
				return err
			})...)
			runGuarded(t, label, shards, want, queries)
			pl.Close()
		}
	}
}

func TestBorrowedShardsUnchangedDataset(t *testing.T) {
	pl, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	for name, shards := range guardInputs() {
		// RestoreDataset adopts the slices, so the queries run against
		// this test's own memory.
		ds, err := pl.RestoreDataset(shards)
		if err != nil {
			t.Fatal(err)
		}
		runGuarded(t, "dataset/"+name, shards, cloneShards(shards), datasetQueries(ds))
		ds.Close()
	}

	fp, err := parsel.NewPool[float64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	floats := guardFloats()
	ds, err := fp.NewDataset(floats)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resident, err := ds.View()
	if err != nil {
		t.Fatal(err)
	}
	runGuarded(t, "dataset/float64", resident, cloneShards(floats), datasetQueries(ds))
}
