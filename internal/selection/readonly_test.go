package selection

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"parsel/internal/balance"
	"parsel/internal/machine"
	"parsel/internal/workload"
)

// readOnlyShards returns p shards of per keys each: random and sorted
// int64 layouts.
func readOnlyShards(p, per int) map[string][][]int64 {
	return map[string][][]int64{
		"random": workload.Generate(workload.Random, int64(p*per), p, 27),
		"sorted": workload.Generate(workload.Sorted, int64(p*per), p, 27),
	}
}

// readOnlyFloats returns p shards of per float64 keys sprinkled with
// NaNs, both zeros and both infinities.
func readOnlyFloats(p, per int) [][]float64 {
	r := rand.New(rand.NewPCG(27, 1))
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	shards := make([][]float64, p)
	for i := range shards {
		shards[i] = make([]float64, per)
		for j := range shards[i] {
			if r.IntN(8) == 0 {
				shards[i][j] = special[r.IntN(len(special))]
			} else {
				shards[i][j] = r.NormFloat64()
			}
		}
	}
	return shards
}

// sameBits reports whether a and b hold the same keys in the same order,
// float64 keys compared bit for bit (a swapped -0/+0 or NaN payload
// counts as a change).
func sameBits[K cmp.Ordered](a, b []K) bool {
	return slices.EqualFunc(a, b, func(x, y K) bool {
		if f, ok := any(x).(float64); ok {
			return math.Float64bits(f) == math.Float64bits(any(y).(float64))
		}
		return x == y
	})
}

// checkReadOnly runs Select, SelectPrefix (capturing, then replaying its
// memo) and SelectMany on shards under every algorithm and balancer,
// with the default iteration cap and with a cap of one (one pivot
// iteration, then the early gather), and fails if any of them changed a
// shard.
func checkReadOnly[K cmp.Ordered](t *testing.T, m *machine.Machine, label string, shards [][]K) {
	t.Helper()
	p := len(shards)
	want := cloneAll(shards)
	n := int64(p * len(shards[0]))
	ranks := []int64{1, n / 4, (n + 1) / 2, n}
	run := func(call string, opts Options, body func(pr *machine.Proc)) {
		t.Helper()
		if _, err := m.Run(body); err != nil {
			t.Fatalf("%s %v/%v/cap%d %s: %v", label, opts.Algorithm, opts.Balancer, opts.MaxIterations, call, err)
		}
		for i := range shards {
			if !sameBits(shards[i], want[i]) {
				t.Fatalf("%s %v/%v/cap%d %s: shard %d modified", label, opts.Algorithm, opts.Balancer, opts.MaxIterations, call, i)
			}
		}
	}
	for _, maxIter := range []int{0, 1} {
		for _, alg := range AllAlgorithms {
			for _, bal := range balance.Methods {
				opts := Options{Algorithm: alg, Balancer: bal, MaxIterations: maxIter}
				run("Select", opts, func(pr *machine.Proc) { Select(pr, shards[pr.ID()], n/3+1, opts) })
				pre := NewPrefix[K](p)
				run("SelectPrefix/capture", opts, func(pr *machine.Proc) { SelectPrefix(pr, shards[pr.ID()], n/3+1, opts, pre) })
				if !pre.Seal() {
					t.Fatalf("%s %v/%v/cap%d: capture did not seal", label, alg, bal, maxIter)
				}
				if alg == FastRandomized && p > 1 && !pre.Replays() {
					t.Fatalf("%s %v/%v/cap%d: no prefix to replay", label, alg, bal, maxIter)
				}
				run("SelectPrefix/replay", opts, func(pr *machine.Proc) { SelectPrefix(pr, shards[pr.ID()], n/2, opts, pre) })
				run("SelectMany", opts, func(pr *machine.Proc) { SelectMany(pr, shards[pr.ID()], ranks, opts) })
			}
		}
	}
}

// sortedDups returns p ascending shards of per keys: 45% zeros, a 10%
// band of distinct keys, and 45% copies of the largest key. A window
// around the median then spans every value, so the iteration stalls,
// and the single-pivot step that follows permutes the survivors it
// partitions: when it keeps the keys above a zero pivot, they are no
// longer ascending, and the next iteration's window is narrower than
// their range.
func sortedDups(p, per int) [][]int64 {
	shards := make([][]int64, p)
	for i := range shards {
		shards[i] = make([]int64, per)
		for j := range shards[i] {
			switch {
			case 100*j < 45*per:
			case 100*j < 55*per:
				shards[i][j] = int64(j)
			default:
				shards[i][j] = int64(per)
			}
		}
	}
	return shards
}

// checkAscendingReadOnly runs fast randomized Select and SelectPrefix
// (capturing, then replaying) with AscendingInput set, so that the
// window survivors are views of the shards, under every balancer at
// several ranks. It fails if a run changed a shard or answered other
// than the sort oracle (the survivors' order is tracked, not rechecked,
// so a stale order flag shows as a wrong answer), and reports whether
// any run reached the stall fallback, which partitions its survivors in
// place.
func checkAscendingReadOnly[K cmp.Ordered](t *testing.T, m *machine.Machine, label string, shards [][]K) (stalled bool) {
	t.Helper()
	p := len(shards)
	want := cloneAll(shards)
	oracle := slices.Concat(shards...)
	slices.Sort(oracle)
	n := int64(len(oracle))
	for _, bal := range balance.Methods {
		opts := Options{Algorithm: FastRandomized, Balancer: bal, AscendingInput: true}
		pre := NewPrefix[K](p)
		for _, rank := range []int64{1, n / 5, n / 3, (n + 1) / 2, n - n/7, n} {
			stats := make([]Stats, p)
			var got K
			if _, err := m.Run(func(pr *machine.Proc) {
				v, st := SelectPrefix(pr, shards[pr.ID()], rank, opts, pre)
				stats[pr.ID()] = st
				if pr.ID() == 0 {
					got = v
				}
			}); err != nil {
				t.Fatalf("%s %v rank %d: %v", label, bal, rank, err)
			}
			pre.Seal()
			if got != oracle[rank-1] {
				t.Errorf("%s %v rank %d = %v, oracle says %v", label, bal, rank, got, oracle[rank-1])
			}
			for i := range shards {
				if !sameBits(shards[i], want[i]) {
					t.Fatalf("%s %v rank %d: shard %d modified", label, bal, rank, i)
				}
			}
			stalled = stalled || stats[0].Stalled > 0
		}
	}
	return stalled
}

// TestSelectionLeavesShardsUnchanged pins the read-only contract of the
// engine's entry points: whichever algorithm, balancer and processor
// count serves it, no selection writes the shards it is given — also not
// when fast randomized selection keeps views of ascending shards.
func TestSelectionLeavesShardsUnchanged(t *testing.T) {
	const per = 1024
	for _, p := range []int{1, 3, 8} {
		m, err := machine.New(machine.DefaultParams(p))
		if err != nil {
			t.Fatal(err)
		}
		for name, shards := range readOnlyShards(p, per) {
			checkReadOnly(t, m, fmt.Sprintf("p%d/%s", p, name), shards)
		}
		if p > 1 {
			checkAscendingReadOnly(t, m, fmt.Sprintf("p%d/sorted/ascending", p), readOnlyShards(p, per)["sorted"])
			if !checkAscendingReadOnly(t, m, fmt.Sprintf("p%d/sorted-dups/ascending", p), sortedDups(p, per)) {
				t.Errorf("p%d: the duplicate-heavy sorted shards never reached the stall fallback", p)
			}
		}
		m.Close()
		// A machine's arenas serve one key type.
		fm, err := machine.New(machine.DefaultParams(p))
		if err != nil {
			t.Fatal(err)
		}
		checkReadOnly(t, fm, fmt.Sprintf("p%d/float64", p), readOnlyFloats(p, per))
		fm.Close()
	}
}
