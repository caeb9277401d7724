package parsel

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"parsel/internal/selection"
)

func TestSelectRanks(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64((i * 37) % 1009)
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	shards := shardInts(vals, 4)
	ranks := []int64{1000, 1, 500, 250, 750, 1}
	got, rep, err := Over(shards, Options{}).SelectRanks(context.Background(), ranks)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranks {
		if got[i] != sorted[r-1] {
			t.Errorf("rank %d = %d, want %d", r, got[i], sorted[r-1])
		}
	}
	if rep.SimSeconds <= 0 {
		t.Error("no simulated time")
	}
}

func TestQuantilesPublic(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	shards := shardInts(vals, 8)
	got, _, err := Over(shards, Options{}).Quantiles(context.Background(), []float64{0.25, 0.5, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{249, 499, 749}
	if !slices.Equal(got, want) {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

func TestSelectRanksErrors(t *testing.T) {
	if _, _, err := Over[int64](nil, Options{}).SelectRanks(context.Background(), []int64{1}); !errors.Is(err, ErrNoShards) {
		t.Errorf("nil shards: %v", err)
	}
	if _, _, err := Over([][]int64{{}}, Options{}).SelectRanks(context.Background(), []int64{1}); !errors.Is(err, ErrNoData) {
		t.Errorf("no data: %v", err)
	}
	if _, _, err := Over([][]int64{{1, 2}}, Options{}).SelectRanks(context.Background(), []int64{3}); !errors.Is(err, ErrRankRange) {
		t.Errorf("bad rank: %v", err)
	}
	if _, _, err := Over([][]int64{{1, 2}}, Options{}).Quantiles(context.Background(), []float64{-0.1}); !errors.Is(err, ErrBadQuantile) {
		t.Errorf("bad quantile: %v", err)
	}
	if _, _, err := Over([][]int64{{}}, Options{}).Quantiles(context.Background(), []float64{0.5}); !errors.Is(err, ErrNoData) {
		t.Errorf("quantiles no data: %v", err)
	}
}

func TestSelectRanksEmptyRequest(t *testing.T) {
	got, _, err := Over([][]int64{{5, 2, 9}}, Options{}).SelectRanks(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty request returned %v", got)
	}
}

func TestSelectRanksMuchCheaperThanSeparate(t *testing.T) {
	vals := make([]int64, 100000)
	for i := range vals {
		vals[i] = int64((i * 2654435761) % 999983)
	}
	shards := shardInts(vals, 8)
	qs := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	_, repMany, err := Over(shards, Options{}).Quantiles(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	var sumSingles float64
	for _, q := range qs {
		res, err := Over(shards, Options{Algorithm: Randomized, Balancer: NoBalance}).Quantile(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		sumSingles += res.SimSeconds
	}
	if repMany.SimSeconds >= sumSingles {
		t.Errorf("multi-rank (%g s) not cheaper than %d singles (%g s)",
			repMany.SimSeconds, len(qs), sumSingles)
	}
}

// TestManyQuantilesStayUnderRoundCap pins the multi-rank engine's cost on
// a many-rank query: the iteration cap counts rounds, not per-segment
// steps, so 99 quantiles of 2^18 keys finish in far fewer than its 200
// rounds, exactly, and at well under twice the simulated cost of the 9
// deciles. (Capping per-segment steps instead, the 99-quantile query on
// this data hit the cap and gathered large segments onto processor 0:
// 3.66 simulated seconds against 0.47 for the deciles.)
func TestManyQuantilesStayUnderRoundCap(t *testing.T) {
	const n = 1 << 18
	r := rand.New(rand.NewPCG(13, 99))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = r.Int64()
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	shards := shardInts(vals, 8)

	quantiles := func(m int) []float64 {
		qs := make([]float64, m)
		for i := range qs {
			qs[i] = float64(i+1) / float64(m+1)
		}
		return qs
	}
	deciles, percentiles := quantiles(9), quantiles(99)
	_, rep9, err := Over(shards, Options{}).Quantiles(context.Background(), deciles)
	if err != nil {
		t.Fatal(err)
	}
	got, rep99, err := Over(shards, Options{}).Quantiles(context.Background(), percentiles)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range percentiles {
		if want := sorted[quantileRank(n, q)-1]; got[i] != want {
			t.Errorf("quantile %g = %d, want %d", q, got[i], want)
		}
	}
	if rep99.Iterations >= selection.DefaultMaxIterations {
		t.Errorf("99 quantiles took %d rounds, at the iteration cap", rep99.Iterations)
	}
	if rep99.SimSeconds >= 2*rep9.SimSeconds {
		t.Errorf("99 quantiles cost %g simulated s, 9 cost %g s: not under 2x",
			rep99.SimSeconds, rep9.SimSeconds)
	}
	t.Logf("9 quantiles: %d rounds, %.3f s, %d messages; 99 quantiles: %d rounds, %.3f s, %d messages",
		rep9.Iterations, rep9.SimSeconds, rep9.Messages, rep99.Iterations, rep99.SimSeconds, rep99.Messages)
}
