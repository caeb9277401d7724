package selection

import (
	"slices"
	"testing"

	"parsel/internal/balance"
	"parsel/internal/machine"
	"parsel/internal/workload"
)

func TestViaSortMatchesOracle(t *testing.T) {
	const n = 3000
	for _, p := range []int{1, 2, 5, 8} {
		for _, kind := range []workload.Kind{workload.Random, workload.Sorted, workload.FewDistinct} {
			shards := workload.Generate(kind, n, p, 11)
			flat := workload.Flatten(shards)
			slices.Sort(flat)
			for _, rank := range []int64{1, n / 2, n} {
				res := make([]int64, p)
				work := make([][]int64, p)
				for i := range shards {
					work[i] = slices.Clone(shards[i])
				}
				_, err := machine.Run(machine.DefaultParams(p), func(pr *machine.Proc) {
					res[pr.ID()] = ViaSort(pr, work[pr.ID()], rank)
				})
				if err != nil {
					t.Fatal(err)
				}
				for id, v := range res {
					if v != flat[rank-1] {
						t.Errorf("p=%d %v rank=%d proc %d: got %d want %d", p, kind, rank, id, v, flat[rank-1])
					}
				}
			}
		}
	}
}

func TestViaSortInvalid(t *testing.T) {
	_, err := machine.Run(machine.DefaultParams(2), func(pr *machine.Proc) {
		ViaSort(pr, []int64{}, 1)
	})
	if err == nil {
		t.Error("empty population accepted")
	}
	work := [][]int64{{1}, {2}}
	_, err = machine.Run(machine.DefaultParams(2), func(pr *machine.Proc) {
		ViaSort(pr, work[pr.ID()], 3)
	})
	if err == nil {
		t.Error("bad rank accepted")
	}
}

// TestSelectionBeatsSorting pins the premise: any §3 algorithm must be
// substantially cheaper (in simulated time) than sorting everything.
func TestSelectionBeatsSorting(t *testing.T) {
	const n = 200000
	const p = 8
	shards := workload.Generate(workload.Random, n, p, 5)
	runSim := func(body func(pr *machine.Proc, local []int64)) float64 {
		work := make([][]int64, p)
		for i := range shards {
			work[i] = slices.Clone(shards[i])
		}
		sim, err := machine.Run(machine.DefaultParams(p), func(pr *machine.Proc) {
			body(pr, work[pr.ID()])
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	tSort := runSim(func(pr *machine.Proc, local []int64) {
		ViaSort(pr, local, n/2)
	})
	tRand := runSim(func(pr *machine.Proc, local []int64) {
		Select(pr, local, n/2, Options{Algorithm: Randomized, Balancer: balance.None})
	})
	if tRand*3 >= tSort {
		t.Errorf("randomized selection (%g) not well below sort baseline (%g)", tRand, tSort)
	}
}
