package selection

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"parsel/internal/balance"
	"parsel/internal/machine"
	"parsel/internal/workload"
)

// procRun is what one processor observed in one collective selection.
type procRun struct {
	val      int64
	stats    Stats
	now      float64
	counters machine.Counters
}

// selectOn runs one collective selection on a long-lived machine and
// returns every processor's view of it.
func selectOn(t *testing.T, m *machine.Machine, shards [][]int64, rank int64, opts Options) []procRun {
	t.Helper()
	out := make([]procRun, len(shards))
	if _, err := m.Run(func(pr *machine.Proc) {
		v, st := Select(pr, shards[pr.ID()], rank, opts)
		out[pr.ID()] = procRun{v, st, pr.Now(), pr.Counters}
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func cloneAll[K any](shards [][]K) [][]K {
	out := make([][]K, len(shards))
	for i, s := range shards {
		out[i] = slices.Clone(s)
	}
	return out
}

// zeroCopyInputs returns p shards of 4096 keys each: the paper's sorted
// layout, random keys, and two-valued keys (a window spanning both
// values keeps everything, which forces the stall fallback).
func zeroCopyInputs(p int) map[string][][]int64 {
	const per = 4096
	dups := make([][]int64, p)
	r := rand.New(rand.NewPCG(14, 3))
	for i := range dups {
		dups[i] = make([]int64, per)
		for j := range dups[i] {
			dups[i][j] = r.Int64N(2)
		}
	}
	return map[string][][]int64{
		"sorted":    workload.Generate(workload.Sorted, int64(p*per), p, 14),
		"random":    workload.Generate(workload.Random, int64(p*per), p, 14),
		"dup-heavy": dups,
	}
}

// TestFastRandomizedBorrowedMatchesOwned pins the zero-copy path as
// host-only: reading the caller's shards in place gives the same value,
// the same Stats (trace included), the same simulated clock and the same
// counters on every processor as a run over a private copy of them, and
// leaves the shards untouched (one rank per input runs the paper-faithful
// sample sort).
func TestFastRandomizedBorrowedMatchesOwned(t *testing.T) {
	const p = 8
	m, err := machine.New(machine.DefaultParams(p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var stalled, capped bool
	for name, shards := range zeroCopyInputs(p) {
		n := int64(p * len(shards[0]))
		for _, bal := range balance.Methods {
			for _, maxIter := range []int{0, 1} {
				for _, rank := range []int64{1, n / 3, (n + 1) / 2, n} {
					opts := Options{Algorithm: FastRandomized, Balancer: bal, MaxIterations: maxIter,
						Faithful: rank == n/3, RecordTrace: true}
					label := fmt.Sprintf("%s/%v/cap%d/rank%d", name, bal, maxIter, rank)
					before := cloneAll(shards)
					owned := selectOn(t, m, cloneAll(shards), rank, opts)
					borrowed := selectOn(t, m, shards, rank, opts)
					if !reflect.DeepEqual(borrowed, owned) {
						t.Fatalf("%s: borrowed run %+v differs from owned run %+v", label, borrowed[0], owned[0])
					}
					for i := range shards {
						if !slices.Equal(shards[i], before[i]) {
							t.Fatalf("%s: shard %d modified", label, i)
						}
					}
					stalled = stalled || owned[0].stats.Stalled > 0
					capped = capped || owned[0].stats.CapHit
				}
			}
		}
	}
	if !stalled || !capped {
		t.Errorf("inputs missed a path: stall fallback reached %v, cap hit %v", stalled, capped)
	}
}

// TestFastRandomizedBorrowedAllocatesNoCopy pins the memory saving: warm
// fast randomized runs at p = 8 never allocate the arena's copy-in
// buffer, while a run of an in-place algorithm does.
func TestFastRandomizedBorrowedAllocatesNoCopy(t *testing.T) {
	const p = 8
	m, err := machine.New(machine.DefaultParams(p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	copyIn := func() []int {
		caps := make([]int, p)
		if _, err := m.Run(func(pr *machine.Proc) { caps[pr.ID()] = cap(arenaOf[int64](pr).local) }); err != nil {
			t.Fatal(err)
		}
		return caps
	}
	shards := zeroCopyInputs(p)["sorted"]
	n := int64(p * len(shards[0]))
	for i := 0; i < 5; i++ {
		for _, bal := range balance.Methods {
			selectOn(t, m, shards, n/2+int64(i), Options{Algorithm: FastRandomized, Balancer: bal})
		}
	}
	for id, c := range copyIn() {
		if c != 0 {
			t.Errorf("proc %d: copy-in buffer grew to %d keys under fast randomized selection", id, c)
		}
	}
	selectOn(t, m, shards, n/2, Options{Algorithm: Randomized})
	for id, c := range copyIn() {
		if c < len(shards[id]) {
			t.Errorf("proc %d: randomized selection copied into a %d-key buffer, want >= %d", id, c, len(shards[id]))
		}
	}
}
