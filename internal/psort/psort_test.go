package psort

import (
	"math/rand/v2"
	"slices"
	"testing"

	"parsel/internal/machine"
	"parsel/internal/workload"
)

func runSort(t *testing.T, shards [][]int64) [][]int64 {
	t.Helper()
	p := len(shards)
	out := make([][]int64, p)
	_, err := machine.Run(machine.DefaultParams(p), func(pr *machine.Proc) {
		out[pr.ID()] = Sort(pr, shards[pr.ID()])
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func checkGloballySorted(t *testing.T, before, after [][]int64) {
	t.Helper()
	flatAfter := workload.Flatten(after)
	if !slices.IsSorted(flatAfter) {
		t.Error("concatenated output not sorted")
	}
	flatBefore := workload.Flatten(before)
	slices.Sort(flatBefore)
	if !slices.Equal(flatBefore, flatAfter) {
		t.Errorf("multiset changed: %d -> %d elements", len(flatBefore), len(flatAfter))
	}
}

func clone2(shards [][]int64) [][]int64 {
	out := make([][]int64, len(shards))
	for i := range shards {
		out[i] = slices.Clone(shards[i])
	}
	return out
}

func TestSortDistributions(t *testing.T) {
	for _, kind := range workload.Kinds {
		for _, p := range []int{1, 2, 3, 8, 13} {
			shards := workload.Generate(kind, 4000, p, 7)
			before := clone2(shards)
			after := runSort(t, shards)
			checkGloballySorted(t, before, after)
		}
	}
}

func TestSortTinyInputs(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		for _, n := range []int64{0, 1, 2, int64(p) - 1, int64(p), int64(p) + 1} {
			if n < 0 {
				continue
			}
			shards := workload.Generate(workload.Random, n, p, 3)
			before := clone2(shards)
			after := runSort(t, shards)
			checkGloballySorted(t, before, after)
		}
	}
}

func TestSortEmptyAndSkewedShards(t *testing.T) {
	shards := [][]int64{
		{},
		{5, 1, 5, 5},
		{},
		{9, 0, 2, 2, 2, 2, 2, 7},
	}
	before := clone2(shards)
	after := runSort(t, shards)
	checkGloballySorted(t, before, after)
}

func TestSortAllEqual(t *testing.T) {
	p := 4
	shards := make([][]int64, p)
	for i := range shards {
		shards[i] = make([]int64, 100)
		for j := range shards[i] {
			shards[i][j] = 42
		}
	}
	before := clone2(shards)
	after := runSort(t, shards)
	checkGloballySorted(t, before, after)
}

func TestSortRoughBalanceOnRandomData(t *testing.T) {
	p := 8
	const n = 80000
	shards := workload.Generate(workload.Random, n, p, 5)
	after := runSort(t, shards)
	for i, run := range after {
		if len(run) > 3*n/p {
			t.Errorf("run %d has %d elements (> 3x ideal %d)", i, len(run), n/p)
		}
	}
}

func TestRankElement(t *testing.T) {
	p := 4
	shards := workload.Generate(workload.Random, 1000, p, 9)
	flat := workload.Flatten(shards)
	slices.Sort(flat)
	got := make([]int64, p)
	for _, r := range []int64{0, 1, 499, 500, 999} {
		_, err := machine.Run(machine.DefaultParams(p), func(pr *machine.Proc) {
			run := Sort(pr, slices.Clone(shards[pr.ID()]))
			got[pr.ID()] = RankElement(pr, run, r)
		})
		if err != nil {
			t.Fatal(err)
		}
		for id, v := range got {
			if v != flat[r] {
				t.Errorf("rank %d on proc %d = %d, want %d", r, id, v, flat[r])
			}
		}
	}
}

func TestRankElementOutOfRange(t *testing.T) {
	_, err := machine.Run(machine.DefaultParams(2), func(pr *machine.Proc) {
		run := Sort(pr, []int64{1, 2})
		RankElement(pr, run, 10)
	})
	if err == nil {
		t.Fatal("expected out-of-range panic")
	}
}

func TestSortRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 4))
	for trial := 0; trial < 20; trial++ {
		p := 1 + rng.IntN(10)
		shards := make([][]int64, p)
		for i := range shards {
			shards[i] = make([]int64, rng.IntN(300))
			for j := range shards[i] {
				shards[i][j] = rng.Int64N(50) // heavy duplicates
			}
		}
		before := clone2(shards)
		after := runSort(t, shards)
		checkGloballySorted(t, before, after)
	}
}
