package comm

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"parsel/internal/machine"
)

// procCounts exercises the non-power-of-two paths deliberately.
var procCounts = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32}

func runSPMD(t *testing.T, p int, body func(*machine.Proc)) float64 {
	t.Helper()
	sim, err := machine.Run(machine.DefaultParams(p), body)
	if err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
	return sim
}

func TestBroadcastScalar(t *testing.T) {
	for _, p := range procCounts {
		for root := 0; root < p; root += max(1, p/3) {
			got := make([]int64, p)
			runSPMD(t, p, func(pr *machine.Proc) {
				val := int64(-1)
				if pr.ID() == root {
					val = 4242
				}
				got[pr.ID()] = Broadcast(pr, root, val, 8)
			})
			for id, v := range got {
				if v != 4242 {
					t.Errorf("p=%d root=%d proc %d got %d", p, root, id, v)
				}
			}
		}
	}
}

func TestBroadcastSlice(t *testing.T) {
	want := []int64{5, 4, 3, 2, 1}
	for _, p := range procCounts {
		root := p - 1
		results := make([][]int64, p)
		runSPMD(t, p, func(pr *machine.Proc) {
			var in []int64
			if pr.ID() == root {
				in = want
			}
			results[pr.ID()] = BroadcastSlice(pr, root, in, 8)
		})
		for id, res := range results {
			if !reflect.DeepEqual(res, want) {
				t.Errorf("p=%d proc %d got %v", p, id, res)
			}
		}
	}
}

// reduceInt64 runs the reduce walk alone: it returns the fold of every
// processor's val under op on processor 0 and reports whether the caller
// is that root.
func reduceInt64(pr *machine.Proc, val int64, op func(a, b int64) int64) (int64, bool) {
	isRoot := up(pr.ID(), pr.Procs(),
		func(peer, mask int) { val = op(val, pr.Recv(peer, tagReduce+mask).(int64)) },
		func(peer, mask int) { pr.Send(peer, tagReduce+mask, val, 8) })
	return val, isRoot
}

func TestReduceSum(t *testing.T) {
	for _, p := range procCounts {
		var want int64
		for i := 0; i < p; i++ {
			want += int64(i * i)
		}
		runSPMD(t, p, func(pr *machine.Proc) {
			got, ok := reduceInt64(pr, int64(pr.ID()*pr.ID()), func(a, b int64) int64 { return a + b })
			if (pr.ID() == 0) != ok {
				t.Errorf("p=%d proc %d ok=%v", p, pr.ID(), ok)
			}
			if ok && got != want {
				t.Errorf("p=%d root sum=%d want %d", p, got, want)
			}
		})
	}
}

func TestReduceMax(t *testing.T) {
	for _, p := range procCounts {
		runSPMD(t, p, func(pr *machine.Proc) {
			got, ok := reduceInt64(pr, int64((pr.ID()*7+3)%p), func(a, b int64) int64 { return max(a, b) })
			if ok {
				var want int64
				for i := 0; i < p; i++ {
					want = max(want, int64((i*7+3)%p))
				}
				if got != want {
					t.Errorf("p=%d max=%d want %d", p, got, want)
				}
			}
		})
	}
}

func TestCombineEveryoneGetsResult(t *testing.T) {
	for _, p := range procCounts {
		want := int64(p * (p - 1) / 2)
		got := make([]int64, p)
		runSPMD(t, p, func(pr *machine.Proc) {
			got[pr.ID()] = CombineInt64(pr, int64(pr.ID()))
		})
		for id, v := range got {
			if v != want {
				t.Errorf("p=%d proc %d combine=%d want %d", p, id, v, want)
			}
		}
	}
}

func TestPrefixSum(t *testing.T) {
	for _, p := range procCounts {
		got := make([]int64, p)
		runSPMD(t, p, func(pr *machine.Proc) {
			got[pr.ID()] = PrefixSumInt64(pr, int64(pr.ID()+1))
		})
		var run int64
		for id, v := range got {
			run += int64(id + 1)
			if v != run {
				t.Errorf("p=%d proc %d prefix=%d want %d", p, id, v, run)
			}
		}
	}
}

func TestGatherScalar(t *testing.T) {
	for _, p := range procCounts {
		runSPMD(t, p, func(pr *machine.Proc) {
			res, _ := GatherFlatInto(pr, []int64{int64(pr.ID() * 10)}, 8, nil)
			if pr.ID() != 0 {
				if res != nil {
					t.Errorf("p=%d non-root %d got %v", p, pr.ID(), res)
				}
				return
			}
			if len(res) != p {
				t.Fatalf("p=%d root got %d entries", p, len(res))
			}
			for i, v := range res {
				if v != int64(i*10) {
					t.Errorf("p=%d root entry %d = %d", p, i, v)
				}
			}
		})
	}
}

func TestGathervVariableSizes(t *testing.T) {
	for _, p := range procCounts {
		runSPMD(t, p, func(pr *machine.Proc) {
			mine := make([]int64, pr.ID()) // proc i contributes i elements
			for j := range mine {
				mine[j] = int64(pr.ID()*1000 + j)
			}
			res, _ := GatherFlatInto(pr, mine, 8, nil)
			if pr.ID() != 0 {
				return
			}
			if len(res) != p*(p-1)/2 {
				t.Fatalf("p=%d flat len %d", p, len(res))
			}
			off := 0
			for src := 0; src < p; src++ {
				for j := range src {
					if res[off] != int64(src*1000+j) {
						t.Errorf("p=%d block %d elem %d = %d", p, src, j, res[off])
					}
					off++
				}
			}
		})
	}
}

// TestGatherFlat gathers into buffers reused across two runs: the root
// holds every key in rank order both times.
func TestGatherFlat(t *testing.T) {
	for _, p := range procCounts {
		bufs := make([][]int64, p)
		for range 2 {
			runSPMD(t, p, func(pr *machine.Proc) {
				mine := []int64{int64(pr.ID()), int64(pr.ID() + 100)}
				var res []int64
				res, bufs[pr.ID()] = GatherFlatInto(pr, mine, 8, bufs[pr.ID()])
				if pr.ID() != 0 {
					return
				}
				if len(res) != 2*p {
					t.Fatalf("p=%d flat len %d", p, len(res))
				}
				for i := 0; i < p; i++ {
					if res[2*i] != int64(i) || res[2*i+1] != int64(i+100) {
						t.Errorf("p=%d wrong flat order at %d: %v", p, i, res[2*i:2*i+2])
					}
				}
			})
		}
	}
}

func TestGlobalConcatScalar(t *testing.T) {
	for _, p := range procCounts {
		runSPMD(t, p, func(pr *machine.Proc) {
			res, _ := GlobalConcatInt64Flat(pr, []int64{int64(pr.ID()*3 + 1)}, nil)
			if len(res) != p {
				t.Fatalf("p=%d len %d", p, len(res))
			}
			for i, v := range res {
				if v != int64(i*3+1) {
					t.Errorf("p=%d proc %d entry %d = %d", p, pr.ID(), i, v)
				}
			}
		})
	}
}

func TestGlobalConcatvVariableSizes(t *testing.T) {
	for _, p := range procCounts {
		runSPMD(t, p, func(pr *machine.Proc) {
			mine := make([]int64, (pr.ID()*13)%5)
			for j := range mine {
				mine[j] = int64(pr.ID()*100 + j)
			}
			res := GlobalConcatv(pr, mine, 8)
			for src := 0; src < p; src++ {
				wantLen := (src * 13) % 5
				if len(res[src]) != wantLen {
					t.Fatalf("p=%d src %d len %d want %d", p, src, len(res[src]), wantLen)
				}
				for j, v := range res[src] {
					if v != int64(src*100+j) {
						t.Errorf("p=%d src %d elem %d = %d", p, src, j, v)
					}
				}
			}
		})
	}
}

// TestGlobalConcatFlat concatenates L keys per processor, including
// none, into buffers reused across two runs: every processor holds every
// block in rank order both times.
func TestGlobalConcatFlat(t *testing.T) {
	for _, p := range procCounts {
		for _, L := range []int{0, 1, 3} {
			bufs := make([][]int64, p)
			for range 2 {
				runSPMD(t, p, func(pr *machine.Proc) {
					mine := make([]int64, L)
					for j := range mine {
						mine[j] = int64(pr.ID()*100 + j)
					}
					var res []int64
					res, bufs[pr.ID()] = GlobalConcatInt64Flat(pr, mine, bufs[pr.ID()])
					if len(res) != p*L {
						t.Fatalf("p=%d L=%d: len %d", p, L, len(res))
					}
					for i, v := range res {
						if src, j := i/L, i%L; v != int64(src*100+j) {
							t.Errorf("p=%d L=%d: proc %d entry %d = %d", p, L, pr.ID(), i, v)
						}
					}
				})
			}
		}
	}
}

// transportPattern builds a deterministic all-to-all pattern where proc i
// sends (i+j)%4 elements to proc j with recognizable values.
func transportPattern(p, src, dst int) []int64 {
	n := (src + dst) % 4
	out := make([]int64, n)
	for k := range out {
		out[k] = int64(src*10000 + dst*100 + k)
	}
	return out
}

func TestTransport(t *testing.T) {
	for _, p := range procCounts {
		runSPMD(t, p, func(pr *machine.Proc) {
			out := make([][]int64, p)
			for dst := 0; dst < p; dst++ {
				out[dst] = transportPattern(p, pr.ID(), dst)
			}
			in := Transport(pr, out, 8, &TransportScratch[int64]{})
			for src := 0; src < p; src++ {
				want := transportPattern(p, src, pr.ID())
				if len(want) == 0 {
					if len(in[src]) != 0 {
						t.Errorf("p=%d got unexpected block from %d", p, src)
					}
					continue
				}
				if !reflect.DeepEqual(in[src], want) {
					t.Errorf("p=%d from %d got %v want %v", p, src, in[src], want)
				}
			}
		})
	}
}

// TestTransportKnown checks every block and its order bit (set by the
// odd-numbered senders) at the receiver, and that the bit is unpriced:
// the run's simulated time equals that of the same run with every bit
// false.
func TestTransportKnown(t *testing.T) {
	for _, p := range procCounts {
		run := func(bits bool) float64 {
			return runSPMD(t, p, func(pr *machine.Proc) {
				out := make([][]int64, p)
				inCounts := make([]int64, p)
				for dst := 0; dst < p; dst++ {
					out[dst] = transportPattern(p, pr.ID(), dst)
					inCounts[dst] = int64(len(transportPattern(p, dst, pr.ID())))
				}
				in, inOrdered := TransportKnown(pr, out, bits && pr.ID()%2 == 1, inCounts, 8, nil, nil)
				for src := 0; src < p; src++ {
					want := transportPattern(p, src, pr.ID())
					if wantBit := bits && src%2 == 1 && len(want) > 0; inOrdered[src] != wantBit {
						t.Errorf("p=%d from %d: order bit %v, want %v", p, src, inOrdered[src], wantBit)
					}
					if len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(in[src], want) {
						t.Errorf("p=%d from %d got %v want %v", p, src, in[src], want)
					}
				}
			})
		}
		if with, without := run(true), run(false); with != without {
			t.Errorf("p=%d: simulated time %v with order bits, %v without", p, with, without)
		}
	}
}

func TestTransportSelfOnly(t *testing.T) {
	runSPMD(t, 4, func(pr *machine.Proc) {
		out := make([][]int64, 4)
		out[pr.ID()] = []int64{int64(pr.ID())}
		in := Transport(pr, out, 8, &TransportScratch[int64]{})
		if len(in[pr.ID()]) != 1 || in[pr.ID()][0] != int64(pr.ID()) {
			t.Errorf("self block lost: %v", in)
		}
	})
}

// TestBroadcastModelCost checks the simulated cost of a broadcast against
// the paper's O((tau+mu) log p) closed form for power-of-two p.
func TestBroadcastModelCost(t *testing.T) {
	params := machine.DefaultParams(8)
	sim, err := machine.Run(params, func(pr *machine.Proc) {
		Broadcast(pr, 0, int64(99), 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	perHop := machine.Tau + 2*machine.Mu*8
	want := 3 * perHop // log2(8) levels along the critical path
	if math.Abs(sim-want) > want*0.01 {
		t.Errorf("broadcast sim cost %g, want ~%g", sim, want)
	}
}

// TestGatherCostScalesLinearly: gather of m total elements must cost at
// least mu*m (bandwidth bound at the root) and not more than a small
// multiple of it plus log p startups.
func TestGatherModelCost(t *testing.T) {
	params := machine.DefaultParams(16)
	const perProc = 4096
	sim, err := machine.Run(params, func(pr *machine.Proc) {
		mine := make([]int64, perProc)
		GatherFlatInto(pr, mine, 8, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	low := machine.Mu * float64((16-1)*perProc*8)
	high := 4*low + 16*machine.Tau
	if sim < low || sim > high {
		t.Errorf("gather sim cost %g outside [%g, %g]", sim, low, high)
	}
}

func TestCollectivesDeterministic(t *testing.T) {
	run := func() float64 {
		sim, err := machine.Run(machine.DefaultParams(6), func(pr *machine.Proc) {
			v := CombineInt64(pr, int64(pr.ID()))
			PrefixSumInt64(pr, v)
			GlobalConcatInt64Flat(pr, []int64{v}, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic simulated time: %g vs %g", a, b)
	}
}

// TestRandomizedTransportFuzz cross-checks Transport against a serial
// shuffle for random patterns and processor counts.
func TestRandomizedTransportFuzz(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 25; trial++ {
		p := 1 + rng.IntN(12)
		pattern := make([][][]int64, p)
		for src := 0; src < p; src++ {
			pattern[src] = make([][]int64, p)
			for dst := 0; dst < p; dst++ {
				n := rng.IntN(5)
				blk := make([]int64, n)
				for k := range blk {
					blk[k] = rng.Int64N(1 << 40)
				}
				pattern[src][dst] = blk
			}
		}
		runSPMD(t, p, func(pr *machine.Proc) {
			in := Transport(pr, pattern[pr.ID()], 8, &TransportScratch[int64]{})
			for src := 0; src < p; src++ {
				want := pattern[src][pr.ID()]
				if len(want) == 0 {
					if len(in[src]) != 0 {
						t.Errorf("trial %d: unexpected data from %d", trial, src)
					}
					continue
				}
				if !reflect.DeepEqual(in[src], want) {
					t.Errorf("trial %d: from %d got %v want %v", trial, src, in[src], want)
				}
			}
		})
	}
}

// sumVector is processor id's contribution in the CombineSumInt64Slice
// tests: distinct per processor and element, with negatives.
func sumVector(id, L int) []int64 {
	v := make([]int64, L)
	for i := range v {
		v[i] = int64((id+1)*(i+3)) - int64(5*i)
	}
	return v
}

// TestCombineSumInt64Slice checks the vector sum on every processor,
// that the input is left alone, and that the collective costs what the
// generic Combine of the vector costs: identical simulated time and
// per-processor counters.
func TestCombineSumInt64Slice(t *testing.T) {
	for _, p := range procCounts {
		for _, L := range []int{0, 1, 2, 7} {
			want := make([]int64, L)
			for id := 0; id < p; id++ {
				for i, v := range sumVector(id, L) {
					want[i] += v
				}
			}
			got := make([][]int64, p)
			fast := make([]machine.Counters, p)
			generic := make([]machine.Counters, p)
			simFast := runSPMD(t, p, func(pr *machine.Proc) {
				in := sumVector(pr.ID(), L)
				out, _ := CombineSumInt64Slice(pr, in, nil)
				got[pr.ID()] = slices.Clone(out)
				fast[pr.ID()] = pr.Counters
				if !slices.Equal(in, sumVector(pr.ID(), L)) {
					t.Errorf("p=%d L=%d: processor %d's input modified to %v", p, L, pr.ID(), in)
				}
			})
			simGeneric := runSPMD(t, p, func(pr *machine.Proc) {
				Combine(pr, sumVector(pr.ID(), L), L*machine.WordBytes, func(a, b []int64) []int64 {
					out := make([]int64, len(a))
					for i := range a {
						out[i] = a[i] + b[i]
					}
					return out
				})
				generic[pr.ID()] = pr.Counters
			})
			for id, g := range got {
				if !slices.Equal(g, want) {
					t.Errorf("p=%d L=%d: processor %d got %v, want %v", p, L, id, g, want)
				}
			}
			if !slices.Equal(fast, generic) {
				t.Errorf("p=%d L=%d: per-processor counters %+v, Combine's %+v", p, L, fast, generic)
			}
			if simFast != simGeneric {
				t.Errorf("p=%d L=%d: simulated %g s, Combine takes %g s", p, L, simFast, simGeneric)
			}
		}
	}
}

// costOf runs body on p processors and returns its simulated time and
// each processor's counters.
func costOf(t *testing.T, p int, body func(*machine.Proc)) (float64, []machine.Counters) {
	t.Helper()
	counters := make([]machine.Counters, p)
	sim := runSPMD(t, p, func(pr *machine.Proc) {
		body(pr)
		counters[pr.ID()] = pr.Counters
	})
	return sim, counters
}

// TestTypedCollectivesCostGeneric checks the int64 scalar and pair
// forms against the generic collective they specialise, at the same
// bytes: identical simulated time and per-processor counters for every
// processor count and every broadcast root, and the flat Global
// Concatenate against GlobalConcatv at equal lengths.
// TestCombineSumInt64Slice checks the vector Combine.
func TestTypedCollectivesCostGeneric(t *testing.T) {
	const bytes = 3 * machine.WordBytes
	sum := func(a, b int64) int64 { return a + b }
	for _, p := range procCounts {
		same := func(name string, typed, generic func(*machine.Proc)) {
			t.Helper()
			simT, cT := costOf(t, p, typed)
			simG, cG := costOf(t, p, generic)
			if simT != simG || !slices.Equal(cT, cG) {
				t.Errorf("p=%d %s: %g s %+v, generic %g s %+v", p, name, simT, cT, simG, cG)
			}
		}
		for root := 0; root < p; root++ {
			same(fmt.Sprintf("BroadcastInt64Pair root %d", root),
				func(pr *machine.Proc) { BroadcastInt64Pair(pr, root, 1, 2, bytes) },
				func(pr *machine.Proc) { Broadcast(pr, root, [2]int64{1, 2}, bytes) })
		}
		same("CombineInt64",
			func(pr *machine.Proc) { CombineInt64(pr, int64(pr.ID())) },
			func(pr *machine.Proc) { Combine(pr, int64(pr.ID()), machine.WordBytes, sum) })
		same("CombineSumInt64Pair",
			func(pr *machine.Proc) { CombineSumInt64Pair(pr, int64(pr.ID()), 1, bytes) },
			func(pr *machine.Proc) { Combine(pr, int64(pr.ID()), bytes, sum) })
		same("CombineMaxInt64",
			func(pr *machine.Proc) { CombineMaxInt64(pr, int64(pr.ID()), bytes) },
			func(pr *machine.Proc) {
				Combine(pr, int64(pr.ID()), bytes, func(a, b int64) int64 { return max(a, b) })
			})
		same("GlobalConcatInt64Flat",
			func(pr *machine.Proc) { GlobalConcatInt64Flat(pr, sumVector(pr.ID(), 3), nil) },
			func(pr *machine.Proc) { GlobalConcatv(pr, sumVector(pr.ID(), 3), machine.WordBytes) })
	}
}

// TestInt64CollectivesNoAllocs pins the int64 collectives
// allocation-free once their buffers are warm: a run of back-to-back
// calls on a reused machine must allocate exactly what an idle run
// does, on a tree that is a power of two and one that is not. A walker
// closure that escapes to the heap fails it. Every call also checks its
// result, so a reused buffer must still give the right answer.
func TestInt64CollectivesNoAllocs(t *testing.T) {
	for _, p := range []int{7, 8} {
		int64CollectivesNoAllocs(t, p)
	}
}

func int64CollectivesNoAllocs(t *testing.T, p int) {
	const L, calls, root = 18, 50, 3
	m, err := machine.New(machine.DefaultParams(p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	vals := make([][]int64, p)
	bufs := make([][]int64, p)
	wantSum := make([]int64, L)
	var wantConcat []int64
	for id := range vals {
		vals[id] = sumVector(id, L)
		for i, v := range vals[id] {
			wantSum[i] += v
		}
		wantConcat = append(wantConcat, vals[id]...)
	}
	sumIDs := int64(p * (p - 1) / 2)
	cases := []struct {
		name string
		call func(pr *machine.Proc, buf *[]int64) bool
	}{
		{"CombineInt64", func(pr *machine.Proc, _ *[]int64) bool {
			return CombineInt64(pr, int64(pr.ID())) == sumIDs
		}},
		{"CombineSumInt64Pair", func(pr *machine.Proc, _ *[]int64) bool {
			a, b := CombineSumInt64Pair(pr, int64(pr.ID()), 1, 16)
			return a == sumIDs && b == int64(p)
		}},
		{"CombineMaxInt64", func(pr *machine.Proc, _ *[]int64) bool {
			return CombineMaxInt64(pr, int64(pr.ID()), 8) == int64(p-1)
		}},
		{"BroadcastInt64", func(pr *machine.Proc, _ *[]int64) bool {
			return BroadcastInt64(pr, root, int64(pr.ID()), 8) == root
		}},
		{"PrefixSumInt64", func(pr *machine.Proc, _ *[]int64) bool {
			id := int64(pr.ID())
			return PrefixSumInt64(pr, id) == id*(id+1)/2
		}},
		{"GlobalConcatInt64Flat", func(pr *machine.Proc, buf *[]int64) bool {
			var out []int64
			out, *buf = GlobalConcatInt64Flat(pr, vals[pr.ID()], *buf)
			return slices.Equal(out, wantConcat)
		}},
		{"CombineSumInt64Slice", func(pr *machine.Proc, buf *[]int64) bool {
			var out []int64
			out, *buf = CombineSumInt64Slice(pr, vals[pr.ID()], *buf)
			return slices.Equal(out, wantSum)
		}},
	}
	for _, c := range cases {
		run := func(n int) {
			if _, err := m.Run(func(pr *machine.Proc) {
				for range n {
					if !c.call(pr, &bufs[pr.ID()]) {
						t.Errorf("p=%d %s: wrong result on processor %d", p, c.name, pr.ID())
						return
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		run(1) // warm the buffers
		idle := testing.AllocsPerRun(10, func() { run(0) })
		busy := testing.AllocsPerRun(10, func() { run(calls) })
		if busy != idle {
			t.Errorf("p=%d %s: %d calls allocate %.0f objects per run, an idle run %.0f", p, c.name, calls, busy, idle)
		}
	}
}
