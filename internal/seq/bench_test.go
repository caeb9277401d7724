package seq

import (
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeK(data)
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
