package selection

import (
	"math/rand/v2"
	"slices"
	"testing"

	"parsel/internal/balance"
	"parsel/internal/machine"
	"parsel/internal/workload"
)

func runSelectMany(t *testing.T, shards [][]int64, ranks []int64, opts Options) ([]int64, []Stats) {
	t.Helper()
	p := len(shards)
	res := make([][]int64, p)
	stats := make([]Stats, p)
	work := make([][]int64, p)
	for i := range shards {
		work[i] = slices.Clone(shards[i])
	}
	_, err := machine.Run(machine.DefaultParams(p), func(pr *machine.Proc) {
		res[pr.ID()], stats[pr.ID()] = SelectMany(pr, work[pr.ID()], ranks, opts)
	})
	if err != nil {
		t.Fatalf("SelectMany: %v", err)
	}
	for id := 1; id < p; id++ {
		if !slices.Equal(res[id], res[0]) {
			t.Fatalf("processors disagree: %v vs %v", res[0], res[id])
		}
	}
	return res[0], stats
}

func TestSelectManyMatchesOracle(t *testing.T) {
	const n = 5000
	for _, p := range []int{1, 2, 4, 8} {
		for _, kind := range []workload.Kind{workload.Random, workload.Sorted, workload.FewDistinct} {
			shards := workload.Generate(kind, n, p, 17)
			flat := workload.Flatten(shards)
			slices.Sort(flat)
			ranks := []int64{1, n / 4, n / 2, 3 * n / 4, n}
			// A round cap of 1 or 3 leaves large segments for the final
			// gather, which must still answer exactly.
			for _, maxRounds := range []int{0, 1, 3} {
				got, st := runSelectMany(t, shards, ranks, Options{MaxIterations: maxRounds})
				for i, r := range ranks {
					if got[i] != flat[r-1] {
						t.Errorf("p=%d %v cap %d rank %d: got %d want %d", p, kind, maxRounds, r, got[i], flat[r-1])
					}
				}
				if maxRounds > 0 && (st[0].Iterations > maxRounds || st[0].CapHit && st[0].Iterations != maxRounds) {
					t.Errorf("p=%d %v cap %d: %d rounds, CapHit %v", p, kind, maxRounds, st[0].Iterations, st[0].CapHit)
				}
			}
		}
	}
}

func TestSelectManyOrderAndDuplicates(t *testing.T) {
	shards := workload.Generate(workload.Random, 3000, 4, 3)
	flat := workload.Flatten(shards)
	slices.Sort(flat)
	// Unsorted request order with duplicates.
	ranks := []int64{2999, 1, 1500, 1, 2999}
	got, _ := runSelectMany(t, shards, ranks, Options{})
	want := []int64{flat[2998], flat[0], flat[1499], flat[0], flat[2998]}
	if !slices.Equal(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestSelectManyEmptyRanks(t *testing.T) {
	shards := workload.Generate(workload.Random, 100, 2, 1)
	got, st := runSelectMany(t, shards, nil, Options{})
	if len(got) != 0 || st[0].Iterations != 0 {
		t.Errorf("empty ranks: got %v, %d iterations", got, st[0].Iterations)
	}
}

func TestSelectManySharesWork(t *testing.T) {
	// Selecting 5 quantiles at once must cost far less than 5 separate
	// selections: its rounds against their summed pivot iterations.
	const n = 200000
	const p = 8
	shards := workload.Generate(workload.Random, n, p, 5)
	ranks := []int64{n / 100, n / 4, n / 2, 3 * n / 4, 99 * n / 100}
	_, stMany := runSelectMany(t, shards, ranks, Options{})

	var singleIters int
	for _, r := range ranks {
		_, st, _ := runSelect(t, shards, r, Options{Algorithm: Randomized, Balancer: balance.None})
		singleIters += st[0].Iterations
	}
	if stMany[0].Iterations >= singleIters {
		t.Errorf("SelectMany used %d iterations, five singles used %d", stMany[0].Iterations, singleIters)
	}
}

// messagesOf runs body on a fresh machine with one processor per shard
// (each processor gets its own copy of its shard) and returns the total
// number of messages sent.
func messagesOf(t *testing.T, shards [][]int64, body func(pr *machine.Proc, local []int64)) int64 {
	t.Helper()
	work := make([][]int64, len(shards))
	for i := range shards {
		work[i] = slices.Clone(shards[i])
	}
	sent := make([]int64, len(shards))
	if _, err := machine.Run(machine.DefaultParams(len(shards)), func(pr *machine.Proc) {
		body(pr, work[pr.ID()])
		sent[pr.ID()] = pr.Counters.MsgsSent
	}); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, m := range sent {
		total += m
	}
	return total
}

// TestSelectManyFewerMessagesThanTwoSingles pins the round batching: all
// nine deciles in one SelectMany send fewer messages than two separate
// randomized selections, because a round pays its collectives once for
// every live segment. A round costs a little more traffic than a
// single-pivot step, and the deepest of nine ranks sets the round count,
// so on one dataset in ten the nine ranks lose; the totals over eight
// datasets do not.
func TestSelectManyFewerMessagesThanTwoSingles(t *testing.T) {
	const n = 200000
	const p = 8
	deciles := make([]int64, 9)
	for i := range deciles {
		deciles[i] = int64(i+1) * n / 10
	}
	var many, singles int64
	for seed := uint64(1); seed <= 8; seed++ {
		shards := workload.Generate(workload.Random, n, p, seed)
		many += messagesOf(t, shards, func(pr *machine.Proc, local []int64) {
			SelectMany(pr, local, deciles, Options{})
		})
		for _, r := range []int64{n / 10, n / 2} {
			singles += messagesOf(t, shards, func(pr *machine.Proc, local []int64) {
				Select(pr, local, r, Options{Algorithm: Randomized, Balancer: balance.None})
			})
		}
	}
	if many >= singles {
		t.Errorf("9-rank SelectMany sent %d messages over 8 datasets, two single selections %d", many, singles)
	}
	t.Logf("9-rank SelectMany: %d messages; two singles: %d", many, singles)
}

func TestSelectManyInvalid(t *testing.T) {
	shards := workload.Generate(workload.Random, 50, 2, 1)
	work := [][]int64{slices.Clone(shards[0]), slices.Clone(shards[1])}
	_, err := machine.Run(machine.DefaultParams(2), func(pr *machine.Proc) {
		SelectMany(pr, work[pr.ID()], []int64{0}, Options{})
	})
	if err == nil {
		t.Error("rank 0 accepted")
	}
	_, err = machine.Run(machine.DefaultParams(2), func(pr *machine.Proc) {
		SelectMany(pr, []int64{}, []int64{1}, Options{})
	})
	if err == nil {
		t.Error("empty population accepted")
	}
}

func TestSelectManyFuzz(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 41))
	for trial := 0; trial < 20; trial++ {
		p := 1 + rng.IntN(6)
		shards := make([][]int64, p)
		var n int64
		for i := range shards {
			sz := rng.IntN(500)
			shards[i] = make([]int64, sz)
			for j := range shards[i] {
				shards[i][j] = rng.Int64N(40) // duplicates galore
			}
			n += int64(sz)
		}
		if n == 0 {
			continue
		}
		m := 1 + rng.IntN(6)
		ranks := make([]int64, m)
		for i := range ranks {
			ranks[i] = 1 + rng.Int64N(n)
		}
		flat := workload.Flatten(shards)
		slices.Sort(flat)
		got, _ := runSelectMany(t, shards, ranks, Options{})
		for i, r := range ranks {
			if got[i] != flat[r-1] {
				t.Errorf("trial %d rank %d: got %d want %d", trial, r, got[i], flat[r-1])
			}
		}
	}
}

func TestTraceRecording(t *testing.T) {
	shards := workload.Generate(workload.Random, 50000, 4, 2)
	for _, alg := range Algorithms {
		_, stats, _ := runSelect(t, shards, 25000, Options{Algorithm: alg, Balancer: balance.None, RecordTrace: true})
		st := stats[0]
		if len(st.Trace) != st.Iterations {
			t.Errorf("%v: %d trace entries for %d iterations", alg, len(st.Trace), st.Iterations)
		}
		prevPop := int64(1 << 62)
		for i, tr := range st.Trace {
			if tr.Population <= 0 || tr.Population > prevPop {
				t.Errorf("%v: trace %d population %d not shrinking (prev %d)", alg, i, tr.Population, prevPop)
			}
			if tr.Rank < 1 || tr.Rank > tr.Population {
				t.Errorf("%v: trace %d rank %d outside population %d", alg, i, tr.Rank, tr.Population)
			}
			if i > 0 && tr.SimSeconds < st.Trace[i-1].SimSeconds {
				t.Errorf("%v: trace %d time went backwards", alg, i)
			}
			prevPop = tr.Population
		}
		// Without the option, no trace.
		_, stats2, _ := runSelect(t, shards, 25000, Options{Algorithm: alg, Balancer: balance.None})
		if len(stats2[0].Trace) != 0 {
			t.Errorf("%v: trace recorded without RecordTrace", alg)
		}
	}
}
