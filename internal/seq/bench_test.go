package seq

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

func benchData(n int) []int64 {
	r := rand.New(rand.NewPCG(11, 12))
	a := make([]int64, n)
	for i := range a {
		a[i] = r.Int64N(1 << 40)
	}
	return a
}

func BenchmarkQuickselect(b *testing.B) {
	a := benchData(1 << 20)
	r := rand.New(rand.NewPCG(1, 1))
	buf := make([]int64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, a)
		Quickselect(buf, len(buf)/2, r)
	}
	b.SetBytes(int64(len(a) * 8))
}

func BenchmarkSelectBFPRT(b *testing.B) {
	a := benchData(1 << 20)
	buf := make([]int64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, a)
		SelectBFPRT(buf, len(buf)/2)
	}
	b.SetBytes(int64(len(a) * 8))
}

func BenchmarkPseudoMedian(b *testing.B) {
	a := benchData(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PseudoMedian(a)
	}
	b.SetBytes(int64(len(a) * 8))
}

func BenchmarkPartition3(b *testing.B) {
	benchPartition(b, benchData(1<<20), Partition3[int64])
}

func BenchmarkPartition3Sorted(b *testing.B) {
	benchPartition(b, sortedBenchData(1<<20), Partition3[int64])
}

func BenchmarkPartition3Branchless(b *testing.B) {
	benchPartition(b, benchData(1<<20), Partition3Branchless[int64])
}

func BenchmarkPartition3BranchlessSorted(b *testing.B) {
	benchPartition(b, sortedBenchData(1<<20), Partition3Branchless[int64])
}

func BenchmarkFilterWindowCount(b *testing.B) {
	benchFilterWindow(b, benchData(1<<20), FilterWindowCount[int64])
}

func BenchmarkFilterWindowCountSorted(b *testing.B) {
	benchFilterWindow(b, sortedBenchData(1<<20), FilterWindowCount[int64])
}

// BenchmarkWindowAscending is BenchmarkFilterWindowCountSorted's input
// and window through the binary-search kernel, which locates the
// survivors without copying them.
func BenchmarkWindowAscending(b *testing.B) {
	a := sortedBenchData(1 << 20)
	lo, hi := benchWindow(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c1, c3, _ := WindowAscending(a, lo, hi); c1 >= c3 {
			b.Fatal("empty window")
		}
	}
	b.SetBytes(int64(len(a) * 8))
}

// BenchmarkAscending times the check that admits a slice to
// WindowAscending, on the same sorted input (its worst case: a
// random slice fails within a couple of keys).
func BenchmarkAscending(b *testing.B) {
	a := sortedBenchData(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Ascending(a) {
			b.Fatal("sorted input not ascending")
		}
	}
	b.SetBytes(int64(len(a) * 8))
}

// BenchmarkAppendAscending copies sorted keys into a retained buffer and
// checks their order, the way a balancer assembles a processor's new
// shard: through the blocked copy-and-check kernel (src's order
// unknown), through the known-order copy that compares only the first
// key (src's order known, as a block from an ascending source), and as a
// whole copy followed by Ascending. The 2^14-key source is a typical
// received block, which stays in the L2 cache; the 2^20-key one does not.
func BenchmarkAppendAscending(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 20} {
		a := sortedBenchData(n)
		buf := make([]int64, 0, n)
		for _, c := range []struct {
			name   string
			srcAsc bool
		}{{"kernel", false}, {"known", true}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, asc := AppendAscending(buf, true, a, c.srcAsc); !asc {
						b.Fatal("sorted input not ascending")
					}
				}
				b.SetBytes(int64(n * 8))
			})
		}
		b.Run(fmt.Sprintf("n=%d/copy+Ascending", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !Ascending(append(buf, a...)) {
					b.Fatal("sorted input not ascending")
				}
			}
			b.SetBytes(int64(n * 8))
		})
	}
}

// benchWindow returns the window between a's 44th and 56th percentile
// keys, about the share of n the first fast randomized iteration keeps.
func benchWindow(a []int64) (lo, hi int64) {
	keys := slices.Clone(a)
	slices.Sort(keys)
	return keys[len(keys)*44/100], keys[len(keys)*56/100]
}

// benchFilterWindow times one window filter of a over benchWindow's
// window.
func benchFilterWindow(b *testing.B, a []int64, filter func(dst, a []int64, lo, hi int64) ([]int64, int, int, int64)) {
	lo, hi := benchWindow(a)
	dst := make([]int64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _, _, _ = filter(dst, a, lo, hi)
		dst = dst[:cap(dst)]
	}
	b.SetBytes(int64(len(a) * 8))
}

func sortedBenchData(n int) []int64 {
	a := benchData(n)
	slices.Sort(a)
	return a
}

// benchPartition times one three-way partition of a fresh copy of a
// around a[len(a)/3] (on sorted input, a one-third/two-thirds split).
func benchPartition(b *testing.B, a []int64, part func([]int64, int64) (int, int, int64)) {
	pivot := a[len(a)/3]
	buf := make([]int64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, a)
		part(buf, pivot)
	}
	b.SetBytes(int64(len(a) * 8))
}

func BenchmarkSortIntro(b *testing.B) {
	a := benchData(1 << 18)
	buf := make([]int64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, a)
		Sort(buf)
	}
	b.SetBytes(int64(len(a) * 8))
}

func BenchmarkSortStdlibBaseline(b *testing.B) {
	a := benchData(1 << 18)
	buf := make([]int64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, a)
		slices.Sort(buf)
	}
	b.SetBytes(int64(len(a) * 8))
}

func BenchmarkMergeK(b *testing.B) {
	const runs = 16
	const per = 1 << 14
	data := make([][]int64, runs)
	for i := range data {
		data[i] = benchData(per)
		slices.Sort(data[i])
	}
	var out []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ = MergeKInto(out, data)
	}
	b.SetBytes(runs * per * 8)
}

func BenchmarkWeightedMedian(b *testing.B) {
	vals := benchData(4096)
	weights := make([]int64, len(vals))
	for i := range weights {
		weights[i] = int64(i%7 + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WeightedMedian(vals, weights)
	}
}
