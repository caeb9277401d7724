package parsel_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"parsel"
	"parsel/internal/workload"
)

// diffShape is one workload of the differential suite.
type diffShape struct {
	name   string
	shards [][]int64
}

// diffShapes builds the randomized workload catalogue: generator-drawn
// shapes across every distribution (random, sorted, reverse-sorted,
// gaussian, few-distinct, zipf) with randomized sizes and processor
// counts, plus hand-built adversarial shapes (empty shards, n < p,
// all-equal keys, extreme size skew, single processor). Deterministic
// for reproducibility, randomized in structure.
func diffShapes() []diffShape {
	rng := rand.New(rand.NewPCG(2026, 729))
	var shapes []diffShape

	// Three randomized draws per distribution: n in [50, 2500], p in
	// [2, 12], fresh generator seed each.
	for _, kind := range workload.Kinds {
		for draw := 0; draw < 3; draw++ {
			n := 50 + rng.Int64N(2450)
			p := 2 + rng.IntN(11)
			seed := rng.Uint64()
			shapes = append(shapes, diffShape{
				name:   fmt.Sprintf("%s/n%d/p%d", kind, n, p),
				shards: workload.Generate(kind, n, p, seed),
			})
		}
	}

	// Adversarial size skew: quadratically unbalanced shards.
	shapes = append(shapes, diffShape{
		name:   "unbalanced/n2000/p8",
		shards: workload.Unbalanced(2000, 8, rng.Uint64()),
	})

	// Empty shards interleaved with loaded ones.
	empties := make([][]int64, 7)
	for i := range empties {
		if i%2 == 1 {
			empties[i] = []int64{}
			continue
		}
		empties[i] = make([]int64, 200+rng.IntN(200))
		for j := range empties[i] {
			empties[i][j] = rng.Int64N(1 << 20)
		}
	}
	shapes = append(shapes, diffShape{name: "emptyshards/p7", shards: empties})

	// Everything on one processor, the rest empty.
	lone := make([]int64, 900)
	for i := range lone {
		lone[i] = rng.Int64N(50) // duplicate-heavy too
	}
	shapes = append(shapes,
		diffShape{name: "oneloaded/p5", shards: [][]int64{nil, {}, lone, {}, nil}},
		diffShape{name: "allequal/p6", shards: [][]int64{
			{7, 7, 7}, {7, 7}, {7, 7, 7, 7}, {}, {7}, {7, 7}}},
		diffShape{name: "fewerkeysthanprocs/p6", shards: [][]int64{{42}, {}, {-3}, {}, {99}, {}}},
		diffShape{name: "singleton/p4", shards: [][]int64{{}, {}, {11}, {}}},
		diffShape{name: "singleproc/p1", shards: [][]int64{{5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}}},
	)
	return shapes
}

// diffTopologies are the interconnects the suite sweeps: the paper's
// crossbar model plus a per-hop-priced mesh, which exercises the
// distance-dependent pricing path without changing any result.
var diffTopologies = []parsel.Topology{parsel.TopologyCrossbar, parsel.TopologyMesh2D}

// TestDifferentialAgainstSortOracle is the randomized differential
// suite: every primary algorithm × every balancer × both topologies,
// over every workload shape, checked rank-for-rank against a sequential
// sort of the flattened population. Values must match the oracle
// exactly; the simulated report must be internally sane.
func TestDifferentialAgainstSortOracle(t *testing.T) {
	shapes := diffShapes()
	if testing.Short() {
		shapes = shapes[:8]
	}
	algs := []parsel.Algorithm{
		parsel.FastRandomized, parsel.Randomized,
		parsel.MedianOfMedians, parsel.BucketBased,
	}
	bals := []parsel.Balancer{
		parsel.ModifiedOMLB, parsel.NoBalance, parsel.OMLB,
		parsel.DimensionExchange, parsel.GlobalExchange,
	}
	rng := rand.New(rand.NewPCG(99, 1))
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			oracle := workload.Flatten(shape.shards)
			slices.Sort(oracle)
			n := int64(len(oracle))
			ranks := []int64{1, n, (n + 1) / 2, 1 + rng.Int64N(n)}
			for _, topo := range diffTopologies {
				for _, alg := range algs {
					for _, bal := range bals {
						opts := parsel.Options{
							Algorithm: alg,
							Balancer:  bal,
							Machine:   parsel.Machine{Procs: len(shape.shards), Topology: topo},
						}
						sel, err := parsel.NewSelector[int64](opts)
						if err != nil {
							t.Fatalf("%v/%v/%v: %v", alg, bal, topo, err)
						}
						for _, rank := range ranks {
							res, err := sel.Over(shape.shards).Select(context.Background(), rank)
							if err != nil {
								t.Fatalf("%v/%v/%v rank %d: %v", alg, bal, topo, rank, err)
							}
							if res.Value != oracle[rank-1] {
								t.Errorf("%v/%v/%v rank %d = %d, oracle says %d",
									alg, bal, topo, rank, res.Value, oracle[rank-1])
							}
							if res.SimSeconds <= 0 {
								t.Errorf("%v/%v/%v rank %d: no simulated time", alg, bal, topo, rank)
							}
						}
						sel.Close()
					}
				}
			}
		})
	}
}

// TestDifferentialMultiRank runs the multi-rank and top-k entry points
// against the sort oracle on every shape (default options; these paths
// ignore the balancer by design).
func TestDifferentialMultiRank(t *testing.T) {
	shapes := diffShapes()
	if testing.Short() {
		shapes = shapes[:8]
	}
	rng := rand.New(rand.NewPCG(77, 2))
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			oracle := workload.Flatten(shape.shards)
			slices.Sort(oracle)
			n := int64(len(oracle))

			// A shuffled, duplicate-carrying rank vector.
			ranks := []int64{1, n, (n + 1) / 2, 1 + rng.Int64N(n), 1, (n + 3) / 4}
			vals, _, err := parsel.Over(shape.shards, parsel.Options{}).SelectRanks(context.Background(), ranks)
			if err != nil {
				t.Fatalf("SelectRanks: %v", err)
			}
			for i, r := range ranks {
				if vals[i] != oracle[r-1] {
					t.Errorf("SelectRanks rank %d = %d, oracle says %d", r, vals[i], oracle[r-1])
				}
			}

			k := int(min(7, n))
			top, _, err := parsel.Over(shape.shards, parsel.Options{}).TopK(context.Background(), k)
			if err != nil {
				t.Fatalf("TopK: %v", err)
			}
			wantTop := make([]int64, 0, k)
			for i := 0; i < k; i++ {
				wantTop = append(wantTop, oracle[len(oracle)-1-i])
			}
			if !slices.Equal(top, wantTop) {
				t.Errorf("TopK(%d) = %v, oracle says %v", k, top, wantTop)
			}

			bot, _, err := parsel.Over(shape.shards, parsel.Options{}).BottomK(context.Background(), k)
			if err != nil {
				t.Fatalf("BottomK: %v", err)
			}
			if !slices.Equal(bot, oracle[:k]) {
				t.Errorf("BottomK(%d) = %v, oracle says %v", k, bot, oracle[:k])
			}
		})
	}
}

// TestDifferentialShardsPreserved spot-checks that the borrowing entry
// points leave caller shards untouched on adversarial shapes (the
// balancers migrate data internally, which must never leak out).
func TestDifferentialShardsPreserved(t *testing.T) {
	for _, shape := range diffShapes()[:6] {
		before := make([][]int64, len(shape.shards))
		for i, s := range shape.shards {
			before[i] = slices.Clone(s)
		}
		if _, err := parsel.Over(shape.shards, parsel.Options{Balancer: parsel.GlobalExchange}).Median(context.Background()); err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		for i := range shape.shards {
			if !slices.Equal(shape.shards[i], before[i]) {
				t.Errorf("%s: shard %d modified", shape.name, i)
			}
		}
	}
}

// TestDifferentialEmptyPopulation pins the error contract on degenerate
// shapes the generator cannot produce.
func TestDifferentialEmptyPopulation(t *testing.T) {
	allEmpty := [][]int64{{}, nil, {}}
	if _, err := parsel.Over(allEmpty, parsel.Options{}).Select(context.Background(), 1); !errors.Is(err, parsel.ErrNoData) {
		t.Errorf("all-empty shards: %v", err)
	}
	if _, _, err := parsel.Over(allEmpty, parsel.Options{}).SelectRanks(context.Background(), []int64{1}); !errors.Is(err, parsel.ErrNoData) {
		t.Errorf("all-empty SelectRanks: %v", err)
	}
}

// TestDifferentialRun is the Run layer of the catalogue: every op,
// through Selector.Run, Pool.Run and Dataset.Run and through the named
// Verbs of Selector.Over, Pool.Over, Dataset and parsel.Over, on every
// int64 shape
// and on float64 keys carrying both zeros and both infinities, checked
// against the sort oracle (keys compared under cmp.Compare, so -0
// matches +0). NaN keys are incomparable to the engine's kernels, so a
// NaN-carrying population has no sort-order answer to check against;
// the borrowed-shard guard runs NaNs through every Run layer instead.
func TestDifferentialRun(t *testing.T) {
	for _, shape := range diffShapes() {
		t.Run(shape.name, func(t *testing.T) { diffRun(t, shape.shards) })
	}
	r := rand.New(rand.NewPCG(15, 3))
	special := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	floats := make([][]float64, 6)
	for i := range floats {
		floats[i] = make([]float64, 300+r.IntN(300))
		for j := range floats[i] {
			if r.IntN(6) == 0 {
				floats[i][j] = special[r.IntN(len(special))]
			} else {
				floats[i][j] = r.NormFloat64()
			}
		}
	}
	t.Run("float64/zero-inf", func(t *testing.T) { diffRun(t, floats) })
}

// diffRun runs every op on shards through the three Run layers and the
// four verb layers and checks each answer against the sorted
// population.
func diffRun[K cmp.Ordered](t *testing.T, shards [][]K) {
	oracle := slices.Concat(shards...)
	slices.Sort(oracle)
	n := int64(len(oracle))
	at := func(rank int64) K { return oracle[rank-1] }
	k := int(min(5, n))
	queries := []parsel.Query{
		{Op: parsel.OpSelect, Rank: 1 + n/3},
		{Op: parsel.OpMedian},
		{Op: parsel.OpQuantile, Q: 0.37},
		{Op: parsel.OpQuantiles, Qs: []float64{0, 0.5, 0.9, 1}},
		{Op: parsel.OpRanks, Ranks: []int64{n, 1, (n + 1) / 2, 1}},
		{Op: parsel.OpTopK, K: k},
		{Op: parsel.OpBottomK, K: k},
		{Op: parsel.OpTopK, K: 0},
		{Op: parsel.OpSummary},
	}
	want := func(q parsel.Query) parsel.Answer[K] {
		var a parsel.Answer[K]
		switch q.Op {
		case parsel.OpSelect:
			a.Value = at(q.Rank)
		case parsel.OpMedian:
			a.Value = at((n + 1) / 2)
		case parsel.OpQuantile:
			a.Value = at(parsel.QuantileRankForTest(n, q.Q))
		case parsel.OpQuantiles:
			for _, qv := range q.Qs {
				a.Values = append(a.Values, at(parsel.QuantileRankForTest(n, qv)))
			}
		case parsel.OpRanks:
			for _, r := range q.Ranks {
				a.Values = append(a.Values, at(r))
			}
		case parsel.OpTopK:
			for i := range q.K {
				a.Values = append(a.Values, at(n-int64(i)))
			}
		case parsel.OpBottomK:
			a.Values = oracle[:q.K]
		case parsel.OpSummary:
			a.Summary = parsel.FiveNumber[K]{Min: at(1), Q1: at(max(1, (n+3)/4)), Median: at((n + 1) / 2),
				Q3: at(max(1, (3*n+3)/4)), Max: at(n)}
		}
		return a
	}
	same := func(a, b K) bool { return cmp.Compare(a, b) == 0 }

	sel, err := parsel.NewSelector[K](parsel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	pool, err := parsel.NewPool[K](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ds, err := pool.NewDataset(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	layers := []struct {
		name string
		run  func(parsel.Query) (parsel.Answer[K], error)
	}{
		{"Selector.Run", func(q parsel.Query) (parsel.Answer[K], error) { return sel.Run(shards, q) }},
		{"Pool.Run", func(q parsel.Query) (parsel.Answer[K], error) { return pool.Run(context.Background(), shards, q) }},
		{"Dataset.Run", func(q parsel.Query) (parsel.Answer[K], error) { return ds.Run(context.Background(), q) }},
		{"Selector.Over", func(q parsel.Query) (parsel.Answer[K], error) { return viaVerbs(sel.Over(shards), q) }},
		{"Pool.Over", func(q parsel.Query) (parsel.Answer[K], error) { return viaVerbs(pool.Over(shards), q) }},
		{"Dataset verbs", func(q parsel.Query) (parsel.Answer[K], error) { return viaVerbs[K](ds, q) }},
		{"parsel.Over", func(q parsel.Query) (parsel.Answer[K], error) {
			return viaVerbs(parsel.Over(shards, parsel.Options{}), q)
		}},
	}
	for _, l := range layers {
		for _, q := range queries {
			got, err := l.run(q)
			if err != nil {
				t.Fatalf("%s %v: %v", l.name, q.Op, err)
			}
			w := want(q)
			ok := same(got.Summary.Min, w.Summary.Min) && same(got.Summary.Q1, w.Summary.Q1) &&
				same(got.Summary.Median, w.Summary.Median) && same(got.Summary.Q3, w.Summary.Q3) &&
				same(got.Summary.Max, w.Summary.Max)
			if q.Op.Scalar() {
				ok = ok && same(got.Value, w.Value)
			}
			if !q.Op.Scalar() && q.Op != parsel.OpSummary {
				ok = ok && got.Values != nil && slices.EqualFunc(got.Values, w.Values, same)
			}
			if !ok {
				t.Errorf("%s %+v = %v / %v / %+v, oracle says %v / %v / %+v",
					l.name, q, got.Value, got.Values, got.Summary, w.Value, w.Values, w.Summary)
			}
			if got.SimSeconds <= 0 && !(q.K == 0 && (q.Op == parsel.OpTopK || q.Op == parsel.OpBottomK)) {
				t.Errorf("%s %v: no simulated time", l.name, q.Op)
			}
		}
	}
}

// viaVerbs answers q through the named verb of v for its op and
// reassembles the outcome into an Answer, so the oracle check also pins
// every verb's op and reshape.
func viaVerbs[K cmp.Ordered](v verbSet[K], q parsel.Query) (a parsel.Answer[K], err error) {
	ctx := context.Background()
	var res parsel.Result[K]
	switch q.Op {
	case parsel.OpSelect:
		res, err = v.Select(ctx, q.Rank)
	case parsel.OpMedian:
		res, err = v.Median(ctx)
	case parsel.OpQuantile:
		res, err = v.Quantile(ctx, q.Q)
	case parsel.OpQuantiles:
		a.Values, a.Report, err = v.Quantiles(ctx, q.Qs)
	case parsel.OpRanks:
		a.Values, a.Report, err = v.SelectRanks(ctx, q.Ranks)
	case parsel.OpTopK:
		a.Values, a.Report, err = v.TopK(ctx, q.K)
	case parsel.OpBottomK:
		a.Values, a.Report, err = v.BottomK(ctx, q.K)
	case parsel.OpSummary:
		a.Summary, a.Report, err = v.Summary(ctx)
	}
	if q.Op.Scalar() {
		a.Value, a.Report = res.Value, res.Report
	}
	return a, err
}
