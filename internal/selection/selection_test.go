package selection

import (
	"math/rand/v2"
	"slices"
	"testing"

	"parsel/internal/balance"
	"parsel/internal/machine"
	"parsel/internal/workload"
)

// runSelect executes one collective selection and checks that every
// processor agrees on the result; it returns the result, the max of the
// per-processor stats and the simulated time.
func runSelect(t *testing.T, shards [][]int64, rank int64, opts Options) (int64, []Stats, float64) {
	t.Helper()
	p := len(shards)
	res := make([]int64, p)
	stats := make([]Stats, p)
	work := make([][]int64, p)
	for i := range shards {
		work[i] = slices.Clone(shards[i])
	}
	sim, err := machine.Run(machine.DefaultParams(p), func(pr *machine.Proc) {
		res[pr.ID()], stats[pr.ID()] = Select(pr, work[pr.ID()], rank, opts)
	})
	if err != nil {
		t.Fatalf("%v/%v rank=%d: %v", opts.Algorithm, opts.Balancer, rank, err)
	}
	for id := 1; id < p; id++ {
		if res[id] != res[0] {
			t.Fatalf("%v: processors disagree: proc0=%d proc%d=%d", opts.Algorithm, res[0], id, res[id])
		}
	}
	return res[0], stats, sim
}

func oracle(shards [][]int64, rank int64) int64 {
	flat := workload.Flatten(shards)
	slices.Sort(flat)
	return flat[rank-1]
}

// ranksToProbe picks interesting ranks for population n.
func ranksToProbe(n int64) []int64 {
	set := map[int64]bool{1: true, n: true, (n + 1) / 2: true, n / 4: true, 3 * n / 4: true}
	var out []int64
	for r := range set {
		if r >= 1 && r <= n {
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return out
}

func TestAllAlgorithmsMatchOracle(t *testing.T) {
	const n = 6000
	for _, alg := range AllAlgorithms {
		for _, kind := range []workload.Kind{workload.Random, workload.Sorted} {
			for _, p := range []int{1, 2, 4, 8} {
				shards := workload.Generate(kind, n, p, 21)
				for _, rank := range ranksToProbe(n) {
					want := oracle(shards, rank)
					got, _, _ := runSelect(t, shards, rank, Options{Algorithm: alg, Balancer: balance.None})
					if got != want {
						t.Errorf("%v %v p=%d rank=%d: got %d want %d", alg, kind, p, rank, got, want)
					}
				}
			}
		}
	}
}

func TestAllAlgorithmsAllDistributions(t *testing.T) {
	const n = 3000
	const p = 5 // non-power-of-two on purpose
	for _, alg := range AllAlgorithms {
		for _, kind := range workload.Kinds {
			shards := workload.Generate(kind, n, p, 33)
			rank := int64((n + 1) / 2)
			want := oracle(shards, rank)
			got, _, _ := runSelect(t, shards, rank, Options{Algorithm: alg, Balancer: balance.None})
			if got != want {
				t.Errorf("%v %v: median got %d want %d", alg, kind, got, want)
			}
		}
	}
}

func TestAllBalancersAllAlgorithms(t *testing.T) {
	const n = 4000
	const p = 8
	for _, alg := range Algorithms {
		for _, bal := range balance.Methods {
			for _, kind := range []workload.Kind{workload.Random, workload.Sorted} {
				shards := workload.Generate(kind, n, p, 5)
				rank := int64(n / 3)
				want := oracle(shards, rank)
				got, _, _ := runSelect(t, shards, rank, Options{Algorithm: alg, Balancer: bal})
				if got != want {
					t.Errorf("%v+%v %v: got %d want %d", alg, bal, kind, got, want)
				}
			}
		}
	}
}

func TestExtremeRanks(t *testing.T) {
	const n = 2500
	const p = 4
	shards := workload.Generate(workload.Random, n, p, 8)
	for _, alg := range Algorithms {
		for _, rank := range []int64{1, 2, n - 1, n} {
			want := oracle(shards, rank)
			got, _, _ := runSelect(t, shards, rank, Options{Algorithm: alg, Balancer: balance.None})
			if got != want {
				t.Errorf("%v rank=%d: got %d want %d", alg, rank, got, want)
			}
		}
	}
}

func TestAllEqualKeys(t *testing.T) {
	const p = 4
	shards := make([][]int64, p)
	for i := range shards {
		shards[i] = make([]int64, 1000)
		for j := range shards[i] {
			shards[i][j] = 99
		}
	}
	for _, alg := range AllAlgorithms {
		got, _, _ := runSelect(t, shards, 2000, Options{Algorithm: alg, Balancer: balance.None})
		if got != 99 {
			t.Errorf("%v: all-equal select = %d", alg, got)
		}
	}
}

func TestTwoDistinctValues(t *testing.T) {
	// The adversarial case for the fast randomized stall fallback.
	const p = 4
	shards := make([][]int64, p)
	for i := range shards {
		shards[i] = make([]int64, 800)
		for j := range shards[i] {
			shards[i][j] = int64(j % 2)
		}
	}
	// 1600 zeros, 1600 ones; rank 1600 is 0, rank 1601 is 1.
	for _, alg := range AllAlgorithms {
		for rank, want := range map[int64]int64{1: 0, 1600: 0, 1601: 1, 3200: 1} {
			got, stats, _ := runSelect(t, shards, rank, Options{Algorithm: alg, Balancer: balance.None})
			if got != want {
				t.Errorf("%v rank=%d: got %d want %d", alg, rank, got, want)
			}
			for _, st := range stats {
				if st.CapHit {
					t.Errorf("%v rank=%d: hit the iteration cap", alg, rank)
				}
			}
		}
	}
}

func TestSmallPopulations(t *testing.T) {
	for _, alg := range Algorithms {
		for _, p := range []int{1, 2, 3, 7} {
			for _, n := range []int64{1, 2, 3, int64(p), int64(p) + 1, int64(p * p), int64(p*p) + 1} {
				shards := workload.Generate(workload.Random, n, p, 13)
				for _, rank := range []int64{1, (n + 1) / 2, n} {
					want := oracle(shards, rank)
					got, _, _ := runSelect(t, shards, rank, Options{Algorithm: alg, Balancer: balance.None})
					if got != want {
						t.Errorf("%v p=%d n=%d rank=%d: got %d want %d", alg, p, n, rank, got, want)
					}
				}
			}
		}
	}
}

func TestEmptyShardsMixed(t *testing.T) {
	// Some processors start with nothing at all.
	shards := [][]int64{
		{},
		{5, 3, 9, 1},
		{},
		{7, 7, 2, 8, 0},
	}
	for _, alg := range Algorithms {
		for rank := int64(1); rank <= 9; rank++ {
			want := oracle(shards, rank)
			got, _, _ := runSelect(t, shards, rank, Options{Algorithm: alg, Balancer: balance.None})
			if got != want {
				t.Errorf("%v rank=%d: got %d want %d", alg, rank, got, want)
			}
		}
	}
}

func TestInvalidArgsPanicCollectively(t *testing.T) {
	shards := workload.Generate(workload.Random, 100, 2, 1)
	for name, rank := range map[string]int64{"zero": 0, "negative": -5, "too big": 101} {
		work := [][]int64{slices.Clone(shards[0]), slices.Clone(shards[1])}
		_, err := machine.Run(machine.DefaultParams(2), func(pr *machine.Proc) {
			Select(pr, work[pr.ID()], rank, Options{Algorithm: Randomized, Balancer: balance.None})
		})
		if err == nil {
			t.Errorf("%s rank: expected error", name)
		}
	}
	// Empty population.
	_, err := machine.Run(machine.DefaultParams(2), func(pr *machine.Proc) {
		Select(pr, []int64{}, 1, Options{Algorithm: MedianOfMedians, Balancer: balance.None})
	})
	if err == nil {
		t.Error("empty population: expected error")
	}
	// Unknown algorithm.
	_, err = machine.Run(machine.DefaultParams(2), func(pr *machine.Proc) {
		Select(pr, []int64{1, 2}, 1, Options{Algorithm: Algorithm(77), Balancer: balance.None})
	})
	if err == nil {
		t.Error("unknown algorithm: expected error")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	shards := workload.Generate(workload.Random, 3000, 4, 77)
	for _, alg := range Algorithms {
		r1, s1, sim1 := runSelect(t, shards, 1500, Options{Algorithm: alg, Balancer: balance.None})
		r2, s2, sim2 := runSelect(t, shards, 1500, Options{Algorithm: alg, Balancer: balance.None})
		if r1 != r2 || sim1 != sim2 {
			t.Errorf("%v: non-deterministic result/time: (%d,%g) vs (%d,%g)", alg, r1, sim1, r2, sim2)
		}
		for i := range s1 {
			if s1[i].Iterations != s2[i].Iterations ||
				s1[i].Unsuccessful != s2[i].Unsuccessful ||
				s1[i].BalanceSeconds != s2[i].BalanceSeconds {
				t.Errorf("%v: stats differ on proc %d", alg, i)
			}
		}
	}
}

func TestIterationCountsScale(t *testing.T) {
	// Fast randomized needs far fewer iterations than randomized
	// (O(log log n) vs O(log n)) — the core of Table 1/2's difference.
	const n = 200000
	const p = 8
	shards := workload.Generate(workload.Random, n, p, 5)
	_, stR, _ := runSelect(t, shards, n/2, Options{Algorithm: Randomized, Balancer: balance.None})
	_, stF, _ := runSelect(t, shards, n/2, Options{Algorithm: FastRandomized, Balancer: balance.None})
	if stF[0].Iterations >= stR[0].Iterations {
		t.Errorf("fastrand iterations %d not below rand iterations %d",
			stF[0].Iterations, stR[0].Iterations)
	}
	if stF[0].Iterations > 8 {
		t.Errorf("fastrand took %d iterations; want O(log log n) ~ <= 8", stF[0].Iterations)
	}
	if stR[0].Iterations > 60 {
		t.Errorf("rand took %d iterations; want O(log n) ~ <= 60", stR[0].Iterations)
	}
}

func TestBalanceTimeAccounted(t *testing.T) {
	shards := workload.Generate(workload.Sorted, 40000, 8, 1)
	_, stats, _ := runSelect(t, shards, 20000, Options{Algorithm: Randomized, Balancer: balance.GlobalExchange})
	var total float64
	for _, st := range stats {
		total += st.BalanceSeconds
	}
	if total <= 0 {
		t.Error("no balance time recorded despite active balancer on sorted data")
	}
	_, stats2, _ := runSelect(t, shards, 20000, Options{Algorithm: Randomized, Balancer: balance.None})
	for _, st := range stats2 {
		if st.BalanceSeconds != 0 {
			t.Error("balance time recorded with balancer None")
		}
	}
}

func TestRandomizedFasterThanDeterministicSimTime(t *testing.T) {
	// The paper's headline: randomized algorithms beat deterministic by
	// a wide margin. Check simulated times preserve the ordering.
	const n = 100000
	const p = 8
	shards := workload.Generate(workload.Random, n, p, 9)
	opts := func(a Algorithm, b balance.Method) Options { return Options{Algorithm: a, Balancer: b} }
	_, _, tMoM := runSelect(t, shards, n/2, opts(MedianOfMedians, balance.GlobalExchange))
	_, _, tBucket := runSelect(t, shards, n/2, opts(BucketBased, balance.None))
	_, _, tRand := runSelect(t, shards, n/2, opts(Randomized, balance.None))
	_, _, tFast := runSelect(t, shards, n/2, opts(FastRandomized, balance.None))
	if tRand >= tMoM || tFast >= tMoM {
		t.Errorf("randomized (%g, %g) not faster than median-of-medians (%g)", tRand, tFast, tMoM)
	}
	if tBucket >= tMoM {
		t.Errorf("bucket-based (%g) not faster than median-of-medians (%g)", tBucket, tMoM)
	}
}

func TestHybridBetweenDetAndRand(t *testing.T) {
	// §5: hybrid run time lies between the deterministic and randomized
	// parallel algorithms. Allow slack: assert hybrid is faster than
	// pure deterministic (the sequential part dominates for large n).
	const n = 100000
	const p = 8
	shards := workload.Generate(workload.Random, n, p, 9)
	_, _, tMoM := runSelect(t, shards, n/2, Options{Algorithm: MedianOfMedians, Balancer: balance.GlobalExchange})
	_, _, tHyb := runSelect(t, shards, n/2, Options{Algorithm: MedianOfMediansHybrid, Balancer: balance.GlobalExchange})
	if tHyb >= tMoM {
		t.Errorf("hybrid (%g) not faster than deterministic (%g)", tHyb, tMoM)
	}
}

func TestRandomizedPropertyFuzz(t *testing.T) {
	rng := rand.New(rand.NewPCG(123, 456))
	for trial := 0; trial < 30; trial++ {
		p := 1 + rng.IntN(8)
		shards := make([][]int64, p)
		var n int64
		for i := range shards {
			sz := rng.IntN(400)
			shards[i] = make([]int64, sz)
			for j := range shards[i] {
				shards[i][j] = rng.Int64N(97) // duplicates likely
			}
			n += int64(sz)
		}
		if n == 0 {
			continue
		}
		rank := 1 + rng.Int64N(n)
		alg := AllAlgorithms[rng.IntN(len(AllAlgorithms))]
		bal := balance.Methods[rng.IntN(len(balance.Methods))]
		if alg == BucketBased || alg == BucketBasedHybrid {
			bal = balance.None
		}
		want := oracle(shards, rank)
		got, _, _ := runSelect(t, shards, rank, Options{Algorithm: alg, Balancer: bal})
		if got != want {
			t.Errorf("trial %d %v+%v p=%d n=%d rank=%d: got %d want %d",
				trial, alg, bal, p, n, rank, got, want)
		}
	}
}

func TestStringKeys(t *testing.T) {
	shards := [][]string{
		{"pear", "apple"},
		{"fig", "date"},
		{"cherry", "banana"},
	}
	want := []string{"apple", "banana", "cherry", "date", "fig", "pear"}
	for _, alg := range Algorithms {
		res := make([]string, 3)
		work := [][]string{
			slices.Clone(shards[0]), slices.Clone(shards[1]), slices.Clone(shards[2]),
		}
		_, err := machine.Run(machine.DefaultParams(3), func(pr *machine.Proc) {
			res[pr.ID()], _ = Select(pr, work[pr.ID()], 3, Options{Algorithm: alg, Balancer: balance.None})
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res[0] != want[2] {
			t.Errorf("%v: string rank 3 = %q, want %q", alg, res[0], want[2])
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, a := range AllAlgorithms {
		if a.String() == "" {
			t.Errorf("algorithm %d has empty name", int(a))
		}
	}
	if Algorithm(42).String() != "Algorithm(42)" {
		t.Errorf("unknown algorithm name = %q", Algorithm(42).String())
	}
}
