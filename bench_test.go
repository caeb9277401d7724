// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (driving the harness on its quick grid; `selectbench -exp
// <id>` runs the full-size grids), plus micro-benchmarks of the selection
// entry points themselves. The interesting output of the figure
// benchmarks is the harness's simulated-seconds series; here they serve
// as regression anchors for the end-to-end pipeline. Host performance of
// the serving stack is measured by the separate bench/ module
// (bash bench/run.sh).
package parsel_test

import (
	"context"
	"io"
	"testing"

	"parsel"
	"parsel/internal/harness"
)

// benchExperiment runs one harness experiment per iteration on the quick
// grid with a single seed.
func benchExperiment(b *testing.B, id string) {
	exp, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := harness.Config{Out: io.Discard, Seeds: 1, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.ResetCache() // measure real work every iteration
		if err := exp.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Scaling(b *testing.B)               { benchExperiment(b, "table1") }
func BenchmarkTable2WorstCase(b *testing.B)             { benchExperiment(b, "table2") }
func BenchmarkFig1AllAlgorithms(b *testing.B)           { benchExperiment(b, "fig1") }
func BenchmarkFig1Randomized(b *testing.B)              { benchExperiment(b, "fig1r") }
func BenchmarkFig2RandomizedLB(b *testing.B)            { benchExperiment(b, "fig2") }
func BenchmarkFig3FastRandomizedLB(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig4SortedShowdown(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig5RandomizedBreakdown(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6FastRandomizedBreakdown(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkHybridAblation(b *testing.B)              { benchExperiment(b, "hybrid") }
func BenchmarkVariance(b *testing.B)                    { benchExperiment(b, "variance") }
func BenchmarkPrimitives(b *testing.B)                  { benchExperiment(b, "prims") }

// makeShards builds a deterministic pseudo-random sharding for the
// end-to-end micro-benchmarks.
func makeShards(n int64, p int) [][]int64 {
	shards := make([][]int64, p)
	per := int(n) / p
	x := uint64(88172645463325252)
	for i := range shards {
		shards[i] = make([]int64, per)
		for j := range shards[i] {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			shards[i][j] = int64(x >> 24)
		}
	}
	return shards
}

// benchSelect measures one full collective median on 256k keys across 8
// simulated processors.
func benchSelect(b *testing.B, alg parsel.Algorithm, bal parsel.Balancer) {
	shards := makeShards(256<<10, 8)
	opts := parsel.Options{Algorithm: alg, Balancer: bal}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parsel.Over(shards, opts).Median(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectMedianOfMedians(b *testing.B) {
	benchSelect(b, parsel.MedianOfMedians, parsel.GlobalExchange)
}
func BenchmarkSelectBucketBased(b *testing.B) {
	benchSelect(b, parsel.BucketBased, parsel.NoBalance)
}
func BenchmarkSelectRandomized(b *testing.B) {
	benchSelect(b, parsel.Randomized, parsel.NoBalance)
}
func BenchmarkSelectFastRandomized(b *testing.B) {
	benchSelect(b, parsel.FastRandomized, parsel.ModifiedOMLB)
}

// BenchmarkSelectOneShot is the seed's hot path: every call pays machine
// construction, goroutine spawn, and the defensive shard copies.
func BenchmarkSelectOneShot(b *testing.B) {
	shards := makeShards(256<<10, 8)
	opts := parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.ModifiedOMLB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parsel.Over(shards, opts).Median(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectorReuse is the same workload through a resident Selector:
// machine, goroutines, random streams and scratch arenas are amortized
// across calls.
func BenchmarkSelectorReuse(b *testing.B) {
	shards := makeShards(256<<10, 8)
	opts := parsel.Options{Algorithm: parsel.FastRandomized, Balancer: parsel.ModifiedOMLB}
	opts.Machine.Procs = len(shards)
	sel, err := parsel.NewSelector[int64](opts)
	if err != nil {
		b.Fatal(err)
	}
	defer sel.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Over(shards).Median(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectorReuseInPlace additionally skips the defensive shard
// copy (the zero-copy hot path); the input is re-sharded outside the
// timed region less often than it is consumed, so treat its numbers as a
// bound rather than a steady-state measurement.
func BenchmarkSelectorReuseInPlace(b *testing.B) {
	shards := makeShards(256<<10, 8)
	opts := parsel.Options{Algorithm: parsel.Randomized, Balancer: parsel.NoBalance}
	opts.Machine.Procs = len(shards)
	sel, err := parsel.NewSelector[int64](opts)
	if err != nil {
		b.Fatal(err)
	}
	defer sel.Close()
	var n int64
	for _, s := range shards {
		n += int64(len(s))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The multiset is preserved, so the median stays valid across
		// iterations even though the shards are permuted in place.
		if _, err := sel.SelectInPlace(shards, (n+1)/2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBalanceGlobalExchange(b *testing.B) {
	shards := makeShards(256<<10, 16)
	// Skew it: everything from the first half onto the first processor.
	for i := 1; i < 8; i++ {
		shards[0] = append(shards[0], shards[i]...)
		shards[i] = nil
	}
	opts := parsel.Options{Balancer: parsel.GlobalExchange}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := parsel.Balance(shards, opts); err != nil {
			b.Fatal(err)
		}
	}
}
