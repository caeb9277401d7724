package parsel_test

import (
	"context"
	"math"
	"math/big"
	"slices"
	"testing"

	"parsel"
)

// engineOpts enumerates the algorithm/balancer pairs the engine tests
// sweep: all four paper algorithms, with and without data migration.
var engineOpts = []struct {
	name string
	opts parsel.Options
}{
	{"fastrand/modomlb", parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.ModifiedOMLB}},
	{"fastrand/none", parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.NoBalance}},
	{"rand/none", parsel.Options{Algorithm: parsel.Randomized, Balancer: parsel.NoBalance}},
	{"rand/omlb", parsel.Options{Algorithm: parsel.Randomized, Balancer: parsel.OMLB}},
	{"mom/globexch", parsel.Options{Algorithm: parsel.MedianOfMedians, Balancer: parsel.GlobalExchange}},
	{"mom/dimexch", parsel.Options{Algorithm: parsel.MedianOfMedians, Balancer: parsel.DimensionExchange}},
	{"bucket", parsel.Options{Algorithm: parsel.BucketBased, Balancer: parsel.NoBalance}},
}

func engineShards(n, p int) [][]int64 {
	shards := make([][]int64, p)
	x := uint64(424242)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		shards[i%p] = append(shards[i%p], int64(x>>30))
	}
	return shards
}

// TestSelectorMatchesOneShot pins the amortization contract: for a fixed
// seed and inputs, a reused Selector must report bit-identical simulated
// metrics (SimSeconds, Iterations, Messages, Bytes) and values to the
// package-level parsel.Over(...) queries, across all four algorithms and active
// balancers, and across repeated calls on the same engine.
func TestSelectorMatchesOneShot(t *testing.T) {
	shards := engineShards(20000, 8)
	for _, tc := range engineOpts {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := parsel.NewSelector[int64](tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sel.Close()
			for call := 0; call < 3; call++ {
				reused, err := sel.Over(shards).Median(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := parsel.Over(shards, tc.opts).Median(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if reused.Value != fresh.Value {
					t.Fatalf("call %d: value %d (reused) != %d (one-shot)", call, reused.Value, fresh.Value)
				}
				if reused.SimSeconds != fresh.SimSeconds ||
					reused.Iterations != fresh.Iterations ||
					reused.Unsuccessful != fresh.Unsuccessful ||
					reused.Messages != fresh.Messages ||
					reused.Bytes != fresh.Bytes {
					t.Fatalf("call %d: simulated metrics diverge:\nreused:  sim=%g iters=%d unsucc=%d msgs=%d bytes=%d\noneshot: sim=%g iters=%d unsucc=%d msgs=%d bytes=%d",
						call,
						reused.SimSeconds, reused.Iterations, reused.Unsuccessful, reused.Messages, reused.Bytes,
						fresh.SimSeconds, fresh.Iterations, fresh.Unsuccessful, fresh.Messages, fresh.Bytes)
				}
			}
		})
	}
}

// TestSelectorSteadyStateAllocs pins the allocation budget of the
// amortized hot path: once warm, a Selector.Over(...).Select call on
// the default configuration must stay well below the one-shot path's
// footprint (the seed measured ~2300 allocs per call on this workload
// shape).
func TestSelectorSteadyStateAllocs(t *testing.T) {
	shards := engineShards(64<<10, 8)
	opts := parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.ModifiedOMLB}
	sel, err := parsel.NewSelector[int64](opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	var n int64
	for _, s := range shards {
		n += int64(len(s))
	}
	// Warm the arenas.
	for i := 0; i < 3; i++ {
		if _, err := sel.Over(shards).Select(context.Background(), (n+1)/2); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 500
	avg := testing.AllocsPerRun(10, func() {
		if _, err := sel.Over(shards).Select(context.Background(), (n+1)/2); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Errorf("steady-state Selector.Over(...).Select allocates %.0f objects per call, budget %d", avg, budget)
	}
}

// TestSelectRanksSteadyStateAllocs pins the multi-rank arena reuse: once
// warm, SelectRanks and Quantiles must run far below their pre-arena
// footprint (~1650 and ~1990 objects per call on this workload shape —
// the result, order, segment and gather buffers were rebuilt every
// call). The remaining allocations are the boxed payloads of the
// generic collectives.
func TestSelectRanksSteadyStateAllocs(t *testing.T) {
	shards := engineShards(64<<10, 8)
	sel, err := parsel.NewSelector[int64](parsel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	ranks := []int64{1, 100, 30000, 64000, 65536, 30000}
	qs := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	// Warm the arenas.
	for i := 0; i < 3; i++ {
		if _, _, err := sel.Over(shards).SelectRanks(context.Background(), ranks); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sel.Over(shards).Quantiles(context.Background(), qs); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 1000
	avg := testing.AllocsPerRun(10, func() {
		if _, _, err := sel.Over(shards).SelectRanks(context.Background(), ranks); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Errorf("steady-state SelectRanks allocates %.0f objects per call, budget %d", avg, budget)
	}
	avg = testing.AllocsPerRun(10, func() {
		if _, _, err := sel.Over(shards).Quantiles(context.Background(), qs); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Errorf("steady-state Quantiles allocates %.0f objects per call, budget %d", avg, budget)
	}
}

// TestSelectorAdaptsShardCount verifies the engine transparently rebuilds
// for a different shard count and keeps answering correctly.
func TestSelectorAdaptsShardCount(t *testing.T) {
	sel, err := parsel.NewSelector[int64](parsel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	for _, p := range []int{4, 8, 3, 8} {
		shards := engineShards(999, p)
		var all []int64
		for _, s := range shards {
			all = append(all, s...)
		}
		slices.Sort(all)
		res, err := sel.Over(shards).Select(context.Background(), 500)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.Value != all[499] {
			t.Errorf("p=%d: rank 500 = %d, want %d", p, res.Value, all[499])
		}
		if sel.Procs() != p {
			t.Errorf("p=%d: Procs() = %d", p, sel.Procs())
		}
	}
}

// TestCrossProcAgreement exercises the cross-processor result assertion:
// with checks enabled, every algorithm's collective runs must agree on
// the result across all simulated processors, and the detector itself
// must flag a divergent column.
func TestCrossProcAgreement(t *testing.T) {
	parsel.SetAgreementChecks(true)
	defer parsel.SetAgreementChecks(false)
	shards := engineShards(10000, 8)
	for _, tc := range engineOpts {
		if _, err := parsel.Over(shards, tc.opts).Median(context.Background()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	if _, _, err := parsel.Over(shards, parsel.Options{}).Quantiles(context.Background(), []float64{0.1, 0.5, 0.5, 0.99}); err != nil {
		t.Fatal(err)
	}
	// The detector flags the first divergent processor.
	if proc, ok := parsel.DisagreementForTest([]int64{7, 7, 8, 7}); ok || proc != 2 {
		t.Errorf("disagreement([7 7 8 7]) = (%d, %v), want (2, false)", proc, ok)
	}
	if _, ok := parsel.DisagreementForTest([]int64{7, 7, 7}); !ok {
		t.Error("disagreement on agreeing values reported a mismatch")
	}
}

// TestQuantileRankExact verifies the exact ceiling arithmetic of
// Quantile/Quantiles against 128-bit rational reference values, at the
// boundaries the floating-point formulation gets wrong: q=0, q=1, q just
// below and at 1/n, and populations near 2^53 where float64 products
// round to neighbouring integers.
func TestQuantileRankExact(t *testing.T) {
	ref := func(n int64, q float64) int64 {
		if q <= 0 || n <= 0 {
			if n < 1 {
				return n
			}
			return 1
		}
		if q >= 1 {
			return n
		}
		// ceil(n*q) with q's exact binary value, via big.Float.
		prod := new(big.Float).SetPrec(200)
		prod.Mul(new(big.Float).SetInt64(n), new(big.Float).SetFloat64(q))
		r, acc := prod.Int(nil)
		ceil := r.Int64()
		if acc != big.Exact {
			ceil++ // Int truncates toward zero; a remainder means round up
		}
		if ceil < 1 {
			ceil = 1
		}
		if ceil > n {
			ceil = n
		}
		return ceil
	}

	ns := []int64{1, 2, 3, 7, 101, 1<<20 + 3, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1 << 62}
	qs := []float64{0, 1e-300, 1e-17, 0.1, 1.0 / 3, 0.25, 0.5, 0.7, 0.75, 0.9999999999999999, 1}
	for _, n := range ns {
		for _, q := range qs {
			want := ref(n, q)
			if got := parsel.QuantileRankForTest(n, q); got != want {
				t.Errorf("quantileRank(%d, %g) = %d, want %d", n, q, got, want)
			}
		}
		// q just below, at, and above 1/n.
		invN := 1.0 / float64(n)
		for _, q := range []float64{math.Nextafter(invN, 0), invN, math.Nextafter(invN, 1)} {
			if q <= 0 || q >= 1 {
				continue
			}
			want := ref(n, q)
			if got := parsel.QuantileRankForTest(n, q); got != want {
				t.Errorf("quantileRank(%d, %g) = %d, want %d", n, q, got, want)
			}
		}
	}

	// End-to-end boundary sweep on a real population.
	vals := make([]int64, 101)
	for i := range vals {
		vals[i] = int64(i)
	}
	shards := [][]int64{vals[:40], vals[40:], {}}
	for _, tc := range []struct {
		q    float64
		want int64
	}{
		{0, 0},
		// float64(1.0/101) rounds just above the exact rational, so
		// ceil(101*q) = 2; one ulp down it is 1. The exact arithmetic
		// distinguishes the two — the floating formulation did not.
		{math.Nextafter(1.0/101, 0), 0},
		{1.0 / 101, 1},
		{0.5, 50},
		{1, 100},
	} {
		res, err := parsel.Over(shards, parsel.Options{}).Quantile(context.Background(), tc.q)
		if err != nil {
			t.Fatalf("q=%g: %v", tc.q, err)
		}
		if res.Value != tc.want {
			t.Errorf("Quantile(%g) = %d, want %d", tc.q, res.Value, tc.want)
		}
	}
}

// TestDatasetRunSteadyStateAllocs pins the resident query path's
// allocations: once warm, a Dataset.Run select or quantiles query — and
// the named wrappers over it — must allocate no more than 100 and 170
// objects per call on this 8 x 512 shape. The select budget is what is
// left once the replayed prefix memo skips the first sample sort (107
// before it), so the sort's allocations cannot come back unseen; the
// quantiles budget is the per-method path's from before Query and
// Answer existed, and multi-rank queries never build a memo.
func TestDatasetRunSteadyStateAllocs(t *testing.T) {
	const selectBudget, quantilesBudget = 100, 170
	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ds, err := pool.NewDataset(engineShards(4096, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	sel := parsel.Query{Op: parsel.OpSelect, Rank: 4096 / 3}
	qs := parsel.Query{Op: parsel.OpQuantiles, Qs: []float64{0.01, 0.25, 0.5, 0.75, 0.99}}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := ds.Run(ctx, sel); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Run(ctx, qs); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"Run select", selectBudget, func() { ds.Run(ctx, sel) }},
		{"SelectContext", selectBudget, func() { ds.SelectContext(ctx, sel.Rank) }},
		{"Run quantiles", quantilesBudget, func() { ds.Run(ctx, qs) }},
		{"QuantilesContext", quantilesBudget, func() { ds.QuantilesContext(ctx, qs.Qs) }},
	} {
		if avg := testing.AllocsPerRun(50, c.run); avg > c.budget {
			t.Errorf("steady-state Dataset %s allocates %.0f objects per call, budget %.0f", c.name, avg, c.budget)
		} else {
			t.Logf("Dataset %s: %.0f allocs per call (budget %.0f)", c.name, avg, c.budget)
		}
	}
}
