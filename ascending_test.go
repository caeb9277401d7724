package parsel_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"parsel"
	"parsel/internal/workload"
)

// ascendingLayout is one shard layout of the ascending-shard test:
// generated int64 shards, optionally with each shard sorted.
type ascendingLayout struct {
	name       string
	kind       workload.Kind
	sortShards bool
}

// ascendingLayouts are the paper's sorted and reverse-sorted layouts as
// generated, plus every workload kind with each shard sorted.
func ascendingLayouts() []ascendingLayout {
	out := []ascendingLayout{
		{"sorted", workload.Sorted, false},
		{"revsorted", workload.ReverseSorted, false},
	}
	for _, k := range workload.Kinds {
		if k != workload.Sorted {
			out = append(out, ascendingLayout{k.String() + "/shards-sorted", k, true})
		}
	}
	return out
}

// TestDatasetAscendingMatchesPool pins that the binary-search filter a
// resident Dataset uses on its ascending shards is invisible: for every
// balancer, p in {2, 3, 8}, and ranks at both ends and the middle, a
// query answers with the same value and the same Report (wall time
// aside, simulated seconds compared bit for bit) as Pool.Run on the same
// shards, which scans them. Run for int64, float64 and string keys.
func TestDatasetAscendingMatchesPool(t *testing.T) {
	t.Run("int64", func(t *testing.T) { checkAscendingMatchesPool(t, func(v int64) int64 { return v }) })
	t.Run("float64", func(t *testing.T) {
		checkAscendingMatchesPool(t, func(v int64) float64 { return float64(v) / 4 })
	})
	t.Run("string", func(t *testing.T) {
		// Fixed-width hex of the order-preserving unsigned image keeps the
		// int64 order, so the sorted layout stays sorted.
		checkAscendingMatchesPool(t, func(v int64) string { return fmt.Sprintf("%016x", uint64(v)^1<<63) })
	})
}

func checkAscendingMatchesPool[K cmp.Ordered](t *testing.T, conv func(int64) K) {
	ctx := context.Background()
	balancers := []parsel.Balancer{parsel.ModifiedOMLB, parsel.NoBalance, parsel.OMLB,
		parsel.DimensionExchange, parsel.GlobalExchange}
	for _, bal := range balancers {
		pool, err := parsel.NewPool[K](parsel.Options{Balancer: bal}, parsel.PoolOptions{MaxMachines: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		for _, p := range []int{2, 3, 8} {
			for _, lay := range ascendingLayouts() {
				raw := workload.Generate(lay.kind, 3000, p, 7)
				shards := make([][]K, p)
				for i, sh := range raw {
					for _, v := range sh {
						shards[i] = append(shards[i], conv(v))
					}
					if lay.sortShards {
						slices.Sort(shards[i])
					}
				}
				ds, err := pool.NewDataset(shards)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v/p=%d/%s", bal, p, lay.name)
				if lay.sortShards || lay.kind == workload.Sorted {
					if flags := ds.AscendingForTest(); slices.Contains(flags, false) {
						t.Fatalf("%s: ascending flags %v, want all true", label, flags)
					}
				}
				n := ds.N()
				queries := []parsel.Query{
					{Op: parsel.OpSelect, Rank: 1},
					{Op: parsel.OpSelect, Rank: 2},
					{Op: parsel.OpSelect, Rank: n / 2},
					{Op: parsel.OpSelect, Rank: n - 1},
					{Op: parsel.OpSelect, Rank: n},
					{Op: parsel.OpMedian},
					{Op: parsel.OpTopK, K: 3},
				}
				for _, q := range queries {
					got, err := ds.Run(ctx, q)
					if err != nil {
						t.Fatalf("%s: dataset %+v: %v", label, q, err)
					}
					want, err := pool.Run(ctx, shards, q)
					if err != nil {
						t.Fatalf("%s: pool %+v: %v", label, q, err)
					}
					got.WallSeconds, want.WallSeconds = 0, 0
					if !reflect.DeepEqual(got, want) ||
						math.Float64bits(got.SimSeconds) != math.Float64bits(want.SimSeconds) ||
						math.Float64bits(got.BalanceSeconds) != math.Float64bits(want.BalanceSeconds) {
						t.Errorf("%s: %+v:\ndataset %+v\npool    %+v", label, q, got, want)
					}
				}
				ds.Close()
			}
		}
	}
}
