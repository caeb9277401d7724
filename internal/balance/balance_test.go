package balance

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"parsel/internal/machine"
	"parsel/internal/workload"
)

// runBalance executes one collective balance over the given shards and
// returns the resulting shards.
func runBalance(t *testing.T, method Method, shards [][]int64) [][]int64 {
	t.Helper()
	p := len(shards)
	out := make([][]int64, p)
	_, err := machine.Run(machine.DefaultParams(p), func(pr *machine.Proc) {
		out[pr.ID()] = Run(pr, shards[pr.ID()], method)
	})
	if err != nil {
		t.Fatalf("%v: %v", method, err)
	}
	return out
}

func checkMultisetPreserved(t *testing.T, method Method, before, after [][]int64) {
	t.Helper()
	b := workload.Flatten(before)
	a := workload.Flatten(after)
	slices.Sort(b)
	slices.Sort(a)
	if !slices.Equal(a, b) {
		t.Errorf("%v: multiset not preserved (%d -> %d elements)", method, len(b), len(a))
	}
}

func checkBalanced(t *testing.T, method Method, after [][]int64) {
	t.Helper()
	n := workload.Total(after)
	p := int64(len(after))
	lo, hi := n/p, (n+p-1)/p
	if method == DimensionExchange {
		// Pairwise averaging rounds up at every level, so the final
		// spread can reach log2(p) elements (Cybenko 1989); the paper's
		// equal-load claim holds only when counts divide evenly.
		var slack int64
		for q := int64(1); q < p; q <<= 1 {
			slack++
		}
		lo -= slack
		hi += slack
	}
	for i, s := range after {
		if int64(len(s)) < lo || int64(len(s)) > hi {
			t.Errorf("%v: shard %d has %d elements, want in [%d,%d]", method, i, len(s), lo, hi)
		}
	}
}

// powerOfTwo reports whether p is a power of two (dimension exchange only
// guarantees exact balance there).
func powerOfTwo(p int) bool { return p&(p-1) == 0 }

func TestBalancersAchieveBalance(t *testing.T) {
	for _, method := range Active {
		for _, p := range []int{1, 2, 4, 8, 16} {
			for _, n := range []int64{0, 1, 5, 100, 1000, 4097} {
				shards := workload.Unbalanced(n, p, 11)
				before := make([][]int64, p)
				for i := range shards {
					before[i] = slices.Clone(shards[i])
				}
				after := runBalance(t, method, shards)
				checkMultisetPreserved(t, method, before, after)
				checkBalanced(t, method, after)
			}
		}
	}
}

func TestBalancersNonPowerOfTwo(t *testing.T) {
	for _, method := range Active {
		for _, p := range []int{3, 5, 7, 13} {
			shards := workload.Unbalanced(999, p, 3)
			before := make([][]int64, p)
			for i := range shards {
				before[i] = slices.Clone(shards[i])
			}
			after := runBalance(t, method, shards)
			checkMultisetPreserved(t, method, before, after)
			if method == DimensionExchange && !powerOfTwo(p) {
				// Only approximate balance is guaranteed; require a
				// strict improvement of the maximum load.
				maxBefore, maxAfter := 0, 0
				for i := range before {
					maxBefore = max(maxBefore, len(before[i]))
					maxAfter = max(maxAfter, len(after[i]))
				}
				if maxAfter > maxBefore {
					t.Errorf("dimexch p=%d worsened max load %d -> %d", p, maxBefore, maxAfter)
				}
				continue
			}
			checkBalanced(t, method, after)
		}
	}
}

func TestExtremeSkewOneProcessorHoldsAll(t *testing.T) {
	for _, method := range Active {
		for _, p := range []int{2, 4, 8} {
			shards := make([][]int64, p)
			all := make([]int64, 1000)
			for i := range all {
				all[i] = int64(i)
			}
			shards[p-1] = slices.Clone(all)
			for i := 0; i < p-1; i++ {
				shards[i] = []int64{}
			}
			after := runBalance(t, method, shards)
			checkBalanced(t, method, after)
			flat := workload.Flatten(after)
			slices.Sort(flat)
			for i, v := range flat {
				if v != int64(i) {
					t.Fatalf("%v p=%d: lost element %d", method, p, i)
				}
			}
		}
	}
}

func TestOMLBPreservesGlobalOrder(t *testing.T) {
	// Globally sorted input must stay globally sorted under OMLB.
	p := 5
	shards := make([][]int64, p)
	next := int64(0)
	sizes := []int{17, 0, 3, 40, 9}
	for i := range shards {
		shards[i] = make([]int64, sizes[i])
		for j := range shards[i] {
			shards[i][j] = next
			next++
		}
	}
	after := runBalance(t, OMLB, shards)
	flat := workload.Flatten(after)
	for i, v := range flat {
		if v != int64(i) {
			t.Fatalf("OMLB broke global order at %d: %d", i, v)
		}
	}
	checkBalanced(t, OMLB, after)
}

func TestNoneIsIdentity(t *testing.T) {
	shards := workload.Unbalanced(100, 4, 1)
	after := runBalance(t, None, shards)
	for i := range shards {
		if !slices.Equal(after[i], shards[i]) {
			t.Errorf("None modified shard %d", i)
		}
	}
}

func TestAlreadyBalancedMovesNothing(t *testing.T) {
	for _, method := range []Method{ModifiedOMLB, GlobalExchange, DimensionExchange} {
		p := 8
		shards := workload.Generate(workload.Random, 800, p, 2)
		var moved int64
		_, err := machine.Run(machine.DefaultParams(p), func(pr *machine.Proc) {
			Run(pr, shards[pr.ID()], method)
			// Count only data-plane bytes: everything beyond the
			// count-exchange traffic. Data elements are 8 bytes each and
			// blocks are >= 1 element, so any data transfer shows up as
			// a message after the metadata phase; simplest robust check:
			// total bytes should be small (metadata only).
			if pr.ID() == 0 {
				moved = pr.Counters.BytesSent
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// Metadata for p=8 is well under 2 KB; any real data movement
		// of ~100 elements would exceed it.
		if moved > 2048 {
			t.Errorf("%v: balanced input still moved %d bytes from proc 0", method, moved)
		}
	}
}

func TestGlobalExchangeFewerMessagesThanModOMLB(t *testing.T) {
	// The point of global exchange: pairing big sources with big sinks
	// reduces message count on skewed inputs. Build a pattern with one
	// huge source and one huge sink plus many slightly-off processors.
	p := 16
	build := func() [][]int64 {
		shards := make([][]int64, p)
		for i := range shards {
			shards[i] = make([]int64, 100)
		}
		shards[0] = make([]int64, 100+15*50) // big source
		for i := 1; i < p; i++ {
			shards[i] = make([]int64, 50) // all small sinks
		}
		return shards
	}
	count := func(method Method) int64 {
		var msgs int64
		_, err := machine.Run(machine.DefaultParams(p), func(pr *machine.Proc) {
			Run(pr, build()[pr.ID()], method)
			if pr.ID() == 0 {
				msgs = pr.Counters.MsgsSent
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return msgs
	}
	mod := count(ModifiedOMLB)
	glob := count(GlobalExchange)
	if glob > mod {
		t.Errorf("global exchange sent %d msgs from the big source, modified OMLB %d", glob, mod)
	}
}

func TestDimensionExchangeRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	for trial := 0; trial < 30; trial++ {
		p := 1 << (1 + rng.IntN(4)) // 2..16, power of two
		shards := make([][]int64, p)
		var before [][]int64
		for i := range shards {
			sz := rng.IntN(200)
			shards[i] = make([]int64, sz)
			for j := range shards[i] {
				shards[i][j] = rng.Int64N(1 << 30)
			}
			before = append(before, slices.Clone(shards[i]))
		}
		after := runBalance(t, DimensionExchange, shards)
		checkMultisetPreserved(t, DimensionExchange, before, after)
		checkBalanced(t, DimensionExchange, after)
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range Methods {
		if m.String() == "" {
			t.Errorf("method %d has empty name", int(m))
		}
	}
	if Method(42).String() != "Method(42)" {
		t.Errorf("unknown method name = %q", Method(42).String())
	}
}

func TestUnknownMethodPanics(t *testing.T) {
	_, err := machine.Run(machine.DefaultParams(1), func(pr *machine.Proc) {
		Run(pr, []int64{1}, Method(42))
	})
	if err == nil {
		t.Fatal("expected panic for unknown method")
	}
}

func TestTargets(t *testing.T) {
	got := targets(new([]int64), 10, 4)
	want := []int64{3, 3, 2, 2}
	if !slices.Equal(got, want) {
		t.Errorf("targets(10,4) = %v, want %v", got, want)
	}
	got = targets(new([]int64), 8, 4)
	want = []int64{2, 2, 2, 2}
	if !slices.Equal(got, want) {
		t.Errorf("targets(8,4) = %v, want %v", got, want)
	}
	got = targets(new([]int64), 2, 4)
	want = []int64{1, 1, 0, 0}
	if !slices.Equal(got, want) {
		t.Errorf("targets(2,4) = %v, want %v", got, want)
	}
}

func TestSortByAmtDesc(t *testing.T) {
	a := []procExcess{{0, 5}, {1, 9}, {2, 5}, {3, 1}}
	sortByAmtDesc(a)
	want := []procExcess{{1, 9}, {0, 5}, {2, 5}, {3, 1}}
	if !slices.Equal(a, want) {
		t.Errorf("sortByAmtDesc = %v, want %v", a, want)
	}
}

// TestRunScratchLeavesInputAndReusesBuffers checks two properties of
// every balancer on retained scratch and caller-owned output buffers, at
// a power-of-two p and at an odd one. No balancer writes its input: each
// shard carries spare capacity filled with a sentinel, which an append
// onto the input would overwrite, and the warm-up runs append a key to
// every output, which must not reach the input either (a view of it is
// capped). And once warm, a balance allocates no key buffers: the bytes
// allocated per run stay far below the keys it moves.
func TestRunScratchLeavesInputAndReusesBuffers(t *testing.T) {
	const n, sentinel = 1 << 14, -7
	for _, p := range []int{4, 5} {
		m, err := machine.New(machine.DefaultParams(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range Active {
			shards := workload.Unbalanced(n, p, 3)
			want := make([][]int64, p)
			for i, s := range shards {
				want[i] = slices.Clone(s)
				spare := make([]int64, len(s), 2*len(s)+1)
				copy(spare, s)
				for j := len(s); j < cap(spare); j++ {
					spare[:cap(spare)][j] = sentinel
				}
				shards[i] = spare
			}
			scr := make([]Scratch[int64], p)
			bufs, poked := make([][]int64, p), make([][]int64, p)
			run := func(poke bool) {
				if _, err := m.Run(func(pr *machine.Proc) {
					out, _ := RunScratch(pr, shards[pr.ID()], false, method, &bufs[pr.ID()], &scr[pr.ID()])
					if poke {
						poked[pr.ID()] = append(out, sentinel+1)
					}
				}); err != nil {
					t.Fatalf("p%d %v: %v", p, method, err)
				}
			}
			for i := 0; i < 3; i++ {
				run(true)
			}
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run(false)
			}
			runtime.ReadMemStats(&after)
			perRun := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("p%d %v: %d bytes per warm run", p, method, perRun)
			if perRun > n*8/8 {
				t.Errorf("p%d %v: warm balance allocates %d bytes per run", p, method, perRun)
			}
			for i, s := range shards {
				if !slices.Equal(s, want[i]) {
					t.Fatalf("p%d %v: shard %d modified", p, method, i)
				}
				for j, v := range s[len(s):cap(s)] {
					if v != sentinel {
						t.Fatalf("p%d %v: shard %d written past its length at %d", p, method, i, len(s)+j)
					}
				}
			}
		}
		m.Close()
	}
}
