package seq

import (
	"cmp"
	"math/bits"
)

// Sort sorts a in place with an introsort (quicksort with median-of-three
// pivots, falling back to heapsort past a depth limit and to insertion
// sort on small runs) and returns the operation count. It is the local
// sort used by the parallel sample sort and the bucket preprocessing.
func Sort[K cmp.Ordered](a []K) int64 {
	if len(a) < 2 {
		return 0
	}
	limit := 2 * bits.Len(uint(len(a)))
	var ops int64
	introsort(a, limit, &ops)
	return ops
}

func introsort[K cmp.Ordered](a []K, limit int, ops *int64) {
	for len(a) > insertionCutoff {
		if limit == 0 {
			*ops += heapsort(a)
			return
		}
		limit--
		p := medianOfThreePivot(a, ops)
		lt, eq, o := Partition3(a, p)
		*ops += o
		// Recurse on the smaller side, loop on the larger: O(log n) stack.
		if lt < len(a)-(lt+eq) {
			introsort(a[:lt], limit, ops)
			a = a[lt+eq:]
		} else {
			introsort(a[lt+eq:], limit, ops)
			a = a[:lt]
		}
	}
	*ops += InsertionSort(a)
}

// medianOfThreePivot picks the median of the first, middle and last
// elements (with a pseudo-median of nine for large slices).
func medianOfThreePivot[K cmp.Ordered](a []K, ops *int64) K {
	n := len(a)
	m := n / 2
	if n > 256 {
		s := n / 8
		lo := median3(a[0], a[s], a[2*s], ops)
		mid := median3(a[m-s], a[m], a[m+s], ops)
		hi := median3(a[n-1-2*s], a[n-1-s], a[n-1], ops)
		return median3(lo, mid, hi, ops)
	}
	return median3(a[0], a[m], a[n-1], ops)
}

func median3[K cmp.Ordered](x, y, z K, ops *int64) K {
	*ops += 3
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
	}
	if x > y {
		y = x
	}
	return y
}

// heapsort sorts a in place; used as the introsort depth-limit fallback.
func heapsort[K cmp.Ordered](a []K) int64 {
	var ops int64
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		ops += siftDown(a, i, n)
	}
	for end := n - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		ops++
		ops += siftDown(a, 0, end)
	}
	return ops
}

func siftDown[K cmp.Ordered](a []K, root, end int) int64 {
	var ops int64
	for {
		child := 2*root + 1
		if child >= end {
			return ops
		}
		if child+1 < end && a[child+1] > a[child] {
			child++
		}
		ops += 2
		if a[root] >= a[child] {
			return ops
		}
		a[root], a[child] = a[child], a[root]
		ops++
		root = child
	}
}

// sortFunc is a small comparison-function quicksort used for auxiliary
// structures (weighted pairs, processor orderings). It returns op counts
// like the key kernels.
func sortFunc[T any](a []T, less func(T, T) bool) int64 {
	var ops int64
	sortFuncRec(a, less, &ops)
	return ops
}

func sortFuncRec[T any](a []T, less func(T, T) bool, ops *int64) {
	for len(a) > 12 {
		// Median-of-three pivot selection, then Hoare-style partition.
		mid := len(a) / 2
		hi := len(a) - 1
		*ops += 3
		if less(a[mid], a[0]) {
			a[mid], a[0] = a[0], a[mid]
		}
		if less(a[hi], a[0]) {
			a[hi], a[0] = a[0], a[hi]
		}
		if less(a[hi], a[mid]) {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := 0, hi
		for {
			for less(a[i], pivot) {
				i++
				*ops++
			}
			for less(pivot, a[j]) {
				j--
				*ops++
			}
			*ops += 2
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
			i++
			j--
			*ops++
		}
		sortFuncRec(a[:j+1], less, ops)
		a = a[j+1:]
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && less(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
			*ops += 2
		}
		*ops++
	}
}

// MergeKInto merges k sorted runs into dst (truncated first, so repeated
// merges can reuse one buffer) using a binary heap of run heads; cost
// O(total log k). It is the final step of the parallel sample sort.
func MergeKInto[K cmp.Ordered](dst []K, runs [][]K) ([]K, int64) {
	var ops int64
	total := 0
	heads := make([]int, 0, len(runs)) // indices of non-empty runs
	for i, r := range runs {
		total += len(r)
		if len(r) > 0 {
			heads = append(heads, i)
		}
	}
	out := dst[:0]
	if cap(out) < total {
		out = make([]K, 0, total)
	}
	if len(heads) == 0 {
		return out, 0
	}
	// pos[i] is the cursor into runs[i].
	pos := make([]int, len(runs))
	// Binary min-heap over heads, keyed by runs[i][pos[i]].
	lessRun := func(x, y int) bool {
		ops++
		return runs[x][pos[x]] < runs[y][pos[y]]
	}
	down := func(h []int, i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && lessRun(h[c+1], h[c]) {
				c++
			}
			if !lessRun(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(heads, i)
	}
	for len(heads) > 0 {
		r := heads[0]
		out = append(out, runs[r][pos[r]])
		pos[r]++
		ops++
		if pos[r] == len(runs[r]) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		if len(heads) > 0 {
			down(heads, 0)
		}
	}
	return out, ops
}
