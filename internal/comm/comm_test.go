package comm

import (
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

func TestReduceSum(t *testing.T) {
	for _, p := range procCounts {
		for _, root := range []int{0, p / 2} {
			var want int64
			for i := 0; i < p; i++ {
				want += int64(i * i)
			}
			runSPMD(t, p, func(pr *machine.Proc) {
				v := int64(pr.ID() * pr.ID())
				got, ok := reduce(pr, root, v, 8, func(a, b int64) int64 { return a + b })
				if (pr.ID() == root) != ok {
					t.Errorf("p=%d proc %d ok=%v", p, pr.ID(), ok)
				}
				if ok && got != want {
					t.Errorf("p=%d root sum=%d want %d", p, got, want)
				}
			})
		}
	}
}

func TestReduceMax(t *testing.T) {
	for _, p := range procCounts {
		runSPMD(t, p, func(pr *machine.Proc) {
			v := int64((pr.ID()*7 + 3) % p)
			got, ok := reduce(pr, 0, v, 8, func(a, b int64) int64 {
				if a > b {
					return a
				}
				return b
			})
			if ok {
				var want int64
				for i := 0; i < p; i++ {
					if w := int64((i*7 + 3) % p); w > want {
						want = w
					}
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
			res, _ := GlobalConcatInt64(pr, int64(pr.ID()*3+1), nil)
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
			in := Transport(pr, out, 8)
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

func TestTransportKnown(t *testing.T) {
	for _, p := range procCounts {
		runSPMD(t, p, func(pr *machine.Proc) {
			out := make([][]int64, p)
			inCounts := make([]int64, p)
			for dst := 0; dst < p; dst++ {
				out[dst] = transportPattern(p, pr.ID(), dst)
				inCounts[dst] = int64(len(transportPattern(p, dst, pr.ID())))
			}
			in := TransportKnown(pr, out, inCounts, 8, nil)
			for src := 0; src < p; src++ {
				want := transportPattern(p, src, pr.ID())
				if len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(in[src], want) {
					t.Errorf("p=%d from %d got %v want %v", p, src, in[src], want)
				}
			}
		})
	}
}

func TestTransportSelfOnly(t *testing.T) {
	runSPMD(t, 4, func(pr *machine.Proc) {
		out := make([][]int64, 4)
		out[pr.ID()] = []int64{int64(pr.ID())}
		in := Transport(pr, out, 8)
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
	perHop := params.TauSec + 2*params.MuSecPerByte*8
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
	low := params.MuSecPerByte * float64((16-1)*perProc*8)
	high := 4*low + 16*params.TauSec
	if sim < low || sim > high {
		t.Errorf("gather sim cost %g outside [%g, %g]", sim, low, high)
	}
}

func TestCollectivesDeterministic(t *testing.T) {
	run := func() float64 {
		sim, err := machine.Run(machine.DefaultParams(6), func(pr *machine.Proc) {
			v := CombineInt64(pr, int64(pr.ID()))
			PrefixSumInt64(pr, v)
			GlobalConcatInt64(pr, v, nil)
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
			in := Transport(pr, pattern[pr.ID()], 8)
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

func TestCombineSumInt64Slice(t *testing.T) {
	for p := 1; p <= 9; p++ {
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

// TestCombineSumInt64SliceNoAllocs pins the collective allocation-free
// once its buffer is warm: back-to-back calls reusing one buffer per
// processor must allocate nothing beyond the machine run itself.
func TestCombineSumInt64SliceNoAllocs(t *testing.T) {
	const p, L, calls = 7, 18, 50
	m, err := machine.New(machine.DefaultParams(p))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	vals := make([][]int64, p)
	bufs := make([][]int64, p)
	for id := range vals {
		vals[id] = sumVector(id, L)
		bufs[id] = make([]int64, 2*L)
	}
	var want int64
	for id := 0; id < p; id++ {
		want += vals[id][L-1]
	}
	run := func(n int) {
		if _, err := m.Run(func(pr *machine.Proc) {
			id := pr.ID()
			for i := 0; i < n; i++ {
				var out []int64
				out, bufs[id] = CombineSumInt64Slice(pr, vals[id], bufs[id])
				if out[L-1] != want {
					panic("wrong sum")
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	idle := testing.AllocsPerRun(10, func() { run(0) })
	busy := testing.AllocsPerRun(10, func() { run(calls) })
	if busy-idle >= calls {
		t.Errorf("%d calls allocate %.0f objects over an idle run's %.0f", calls, busy, idle)
	}
}
