package parsel

import (
	"context"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestTopKBasic(t *testing.T) {
	shards := [][]int64{{5, 1, 9}, {3, 7, 9}}
	got, _, err := Over(shards, Options{}).TopK(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int64{9, 9, 7}) {
		t.Errorf("TopK(3) = %v", got)
	}
}

func TestBottomKBasic(t *testing.T) {
	shards := [][]int64{{5, 1, 9}, {3, 7, 1}}
	got, _, err := Over(shards, Options{}).BottomK(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int64{1, 1, 3}) {
		t.Errorf("BottomK(3) = %v", got)
	}
}

func TestTopKEdges(t *testing.T) {
	shards := [][]int64{{2, 2, 2}, {2}}
	// All duplicates: exactly k copies returned.
	got, _, err := Over(shards, Options{}).TopK(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int64{2, 2}) {
		t.Errorf("dup TopK = %v", got)
	}
	// k = 0.
	if got, _, err := Over(shards, Options{}).TopK(context.Background(), 0); err != nil || len(got) != 0 {
		t.Errorf("TopK(0) = %v, %v", got, err)
	}
	// k = n.
	if got, _, err := Over(shards, Options{}).TopK(context.Background(), 4); err != nil || len(got) != 4 {
		t.Errorf("TopK(n) = %v, %v", got, err)
	}
	// Errors.
	if _, _, err := Over(shards, Options{}).TopK(context.Background(), 5); !errors.Is(err, ErrRankRange) {
		t.Errorf("TopK(5 of 4): %v", err)
	}
	if _, _, err := Over(shards, Options{}).TopK(context.Background(), -1); !errors.Is(err, ErrRankRange) {
		t.Errorf("TopK(-1): %v", err)
	}
	if _, _, err := Over[int64](nil, Options{}).TopK(context.Background(), 1); !errors.Is(err, ErrNoShards) {
		t.Errorf("TopK(nil): %v", err)
	}
	if _, _, err := Over([][]int64{{}}, Options{}).BottomK(context.Background(), 1); !errors.Is(err, ErrNoData) {
		t.Errorf("BottomK(empty): %v", err)
	}
}

func TestTopKBottomKProperty(t *testing.T) {
	f := func(raw []int16, kRaw uint8, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := 1 + int(pRaw%6)
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		shards := shardInts(vals, p)
		k := int(kRaw) % (len(vals) + 1)
		sorted := slices.Clone(vals)
		slices.Sort(sorted)

		top, _, err := Over(shards, Options{Algorithm: Randomized}).TopK(context.Background(), k)
		if err != nil {
			return false
		}
		wantTop := make([]int64, k)
		for i := 0; i < k; i++ {
			wantTop[i] = sorted[len(sorted)-1-i]
		}
		if !slices.Equal(top, wantTop) {
			return false
		}

		bot, _, err := Over(shards, Options{Algorithm: Randomized}).BottomK(context.Background(), k)
		if err != nil {
			return false
		}
		return slices.Equal(bot, sorted[:k])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSummary(t *testing.T) {
	vals := make([]int64, 101)
	for i := range vals {
		vals[i] = int64(i) // 0..100
	}
	shards := shardInts(vals, 4)
	s, rep, err := Over(shards, Options{}).Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := FiveNumber[int64]{Min: 0, Q1: 25, Median: 50, Q3: 75, Max: 100}
	if s != want {
		t.Errorf("Summary = %+v, want %+v", s, want)
	}
	if rep.SimSeconds <= 0 {
		t.Error("no simulated time")
	}
}

func TestSummarySingleton(t *testing.T) {
	s, _, err := Over([][]int64{{7}}, Options{}).Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 {
		t.Errorf("singleton summary = %+v", s)
	}
	if _, _, err := Over([][]int64{{}}, Options{}).Summary(context.Background()); !errors.Is(err, ErrNoData) {
		t.Errorf("empty summary: %v", err)
	}
	if _, _, err := Over[int64](nil, Options{}).Summary(context.Background()); !errors.Is(err, ErrNoShards) {
		t.Errorf("nil summary: %v", err)
	}
}
