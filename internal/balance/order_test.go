package balance

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"parsel/internal/machine"
	"parsel/internal/seq"
	"parsel/internal/workload"
)

// orderShapes builds unbalanced shard layouts for the order-flag
// property: globally ascending keys, shards each ascending on their own,
// random keys, duplicate-heavy keys (some shards sorted) and layouts
// where about half the shards are empty.
var orderShapes = map[string]func(p int, r *rand.Rand) [][]int64{
	"ascending": func(p int, r *rand.Rand) [][]int64 {
		return fillShards(p, r, 0, func(prev int64) int64 { return prev + r.Int64N(3) })
	},
	"ascending-per-shard": func(p int, r *rand.Rand) [][]int64 {
		shards := fillShards(p, r, 0, func(int64) int64 { return r.Int64N(1000) })
		for _, s := range shards {
			slices.Sort(s)
		}
		return shards
	},
	"random": func(p int, r *rand.Rand) [][]int64 {
		return fillShards(p, r, 0, func(int64) int64 { return r.Int64N(1 << 40) })
	},
	"duplicates": func(p int, r *rand.Rand) [][]int64 {
		shards := fillShards(p, r, 0, func(int64) int64 { return r.Int64N(3) })
		for i, s := range shards {
			if i%2 == 0 {
				slices.Sort(s)
			}
		}
		return shards
	},
	"some-empty": func(p int, r *rand.Rand) [][]int64 {
		return fillShards(p, r, 2, func(prev int64) int64 { return prev + r.Int64N(2) })
	},
}

// fillShards draws p shard sizes in [0, 300), leaving a shard empty with
// probability emptyOneIn/(emptyOneIn+1) when emptyOneIn > 0, and fills
// the shards in processor order with next(previous key).
func fillShards(p int, r *rand.Rand, emptyOneIn int, next func(prev int64) int64) [][]int64 {
	shards := make([][]int64, p)
	var prev int64
	for i := range shards {
		sz := r.IntN(300)
		if emptyOneIn > 0 && r.IntN(emptyOneIn+1) != 0 {
			sz = 0
		}
		shards[i] = make([]int64, sz)
		for j := range shards[i] {
			prev = next(prev)
			shards[i][j] = prev
		}
	}
	return shards
}

// orderKnown lists how the order of each processor's shard is given to
// RunScratch: truly on every processor, as unknown on every processor,
// or truly on the even-numbered and as unknown on the odd-numbered ones
// and the other way round, so that a receiver assembles blocks whose
// order bits differ.
var orderKnown = map[string]func(me int) bool{
	"truthful": func(int) bool { return true },
	"unknown":  func(int) bool { return false },
	"even":     func(me int) bool { return me%2 == 0 },
	"odd":      func(me int) bool { return me%2 == 1 },
}

// TestRunScratchOrderFlag checks the order flag RunScratch returns, for
// every method at p in {2, 3, 4, 5, 8} over every shape in orderShapes,
// with each shard's order given as orderKnown says:
//
//   - a flag of true is never returned for a non-ascending output;
//   - an output assembled in the caller's buffer carries the exact flag,
//     seq.Ascending(out);
//   - under ModifiedOMLB and GlobalExchange a processor whose shard is at
//     least its target receives nothing and returns a prefix of its own
//     input;
//
// and that every balance keeps the multiset of keys.
func TestRunScratchOrderFlag(t *testing.T) {
	for _, method := range Methods {
		for _, p := range []int{2, 3, 4, 5, 8} {
			for name, shape := range orderShapes {
				for seed := uint64(1); seed <= 12; seed++ {
					shards := shape(p, rand.New(rand.NewPCG(seed, uint64(p))))
					for given, known := range orderKnown {
						id := fmt.Sprintf("%v p%d %s seed %d order %s", method, p, name, seed, given)
						checkOrderFlag(t, id, method, shards, known)
					}
				}
			}
		}
	}
}

func checkOrderFlag(t *testing.T, id string, method Method, shards [][]int64, known func(me int) bool) {
	t.Helper()
	p := len(shards)
	outs, flags, bufs := make([][]int64, p), make([]bool, p), make([][]int64, p)
	if _, err := machine.Run(machine.DefaultParams(p), func(pr *machine.Proc) {
		me := pr.ID()
		asc := known(me) && seq.Ascending(shards[me])
		outs[me], flags[me] = RunScratch(pr, shards[me], asc, method, &bufs[me], nil)
	}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	checkMultisetPreserved(t, method, shards, outs)
	targ := targets(new([]int64), workload.Total(shards), p)
	for i, out := range outs {
		asc := seq.Ascending(out)
		if flags[i] && !asc {
			t.Errorf("%s: processor %d flags a non-ascending output ascending", id, i)
		}
		if assembled := len(out) > 0 && cap(bufs[i]) > 0 && &out[0] == &bufs[i][:1][0]; assembled && flags[i] != asc {
			t.Errorf("%s: processor %d assembled output flag %v, seq.Ascending %v", id, i, flags[i], asc)
		}
		if (method == ModifiedOMLB || method == GlobalExchange) && int64(len(shards[i])) >= targ[i] {
			in := shards[i]
			if len(out) > len(in) || len(out) > 0 && &out[0] != &in[0] || cap(out) != len(out) {
				t.Errorf("%s: processor %d receives nothing but does not return a capped prefix of its input", id, i)
			}
		}
	}
}
