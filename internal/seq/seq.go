// Package seq provides the sequential building blocks of the parallel
// selection algorithms: deterministic (BFPRT) and randomized
// (Floyd–Rivest) selection, three-way partitioning, introsort, weighted
// median, binary searches, and sampling.
//
// Every kernel reports an operation count — roughly one unit per key
// comparison or key move — which the simulation layer converts into
// processor time. Counting operations of real implementations is what
// reproduces the paper's observation that the deterministic algorithms
// carry much larger constants than the randomized ones.
package seq

import (
	"cmp"
	"math"
	"math/rand/v2"
)

// insertionCutoff is the subproblem size below which selection and sorting
// kernels switch to insertion sort.
const insertionCutoff = 24

// InsertionSort sorts a in place and returns the operation count.
func InsertionSort[K cmp.Ordered](a []K) int64 {
	var ops int64
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		ops++
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
			ops += 2
		}
		a[j+1] = x
	}
	return ops
}

// IsSorted reports whether a is in non-decreasing order.
func IsSorted[K cmp.Ordered](a []K) bool {
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			return false
		}
	}
	return true
}

// Partition3 performs an in-place three-way (Dutch national flag)
// partition of a around pivot. On return a[:lt] < pivot,
// a[lt:lt+eq] == pivot, and a[lt+eq:] > pivot.
//
// The operation count is the model's established pricing — 2 per element
// below or equal to the pivot, 3 per element above — computed from the
// final region sizes so the hot scan carries no accounting arithmetic.
func Partition3[K cmp.Ordered](a []K, pivot K) (lt, eq int, ops int64) {
	lo, mid, hi := 0, 0, len(a)
	for mid < hi {
		switch {
		case a[mid] < pivot:
			a[lo], a[mid] = a[mid], a[lo]
			lo++
			mid++
		case a[mid] > pivot:
			hi--
			a[mid], a[hi] = a[hi], a[mid]
		default:
			mid++
		}
	}
	ops = int64(2*len(a) + (len(a) - mid))
	return lo, mid - lo, ops
}

// Partition3Branchless is Partition3 with branch-free scans. It returns
// the same regions under the same classification (below when v < pivot,
// above when v > pivot, equal otherwise, so NaN keys and both zeros land
// where Partition3 puts them) and the same operation count, but permutes
// the regions' contents differently.
//
// The first pass is a Lomuto scan on v < pivot: every element is swapped
// with the boundary slot unconditionally and the comparison result
// advances the boundary, so unpredictable keys cost no mispredictions.
// It also counts the elements above the pivot, which tells how many
// copies of the pivot there are. Only when there are any (on the pivot's
// owner, or where duplicates live) does a second such pass over the rest
// move them forward, stopping at the last copy.
func Partition3Branchless[K cmp.Ordered](a []K, pivot K) (lt, eq int, ops int64) {
	gt := 0
	for i, v := range a {
		a[i] = a[lt]
		a[lt] = v
		l, g := 0, 0
		if v < pivot {
			l = 1
		}
		if pivot < v {
			g = 1
		}
		lt += l
		gt += g
	}
	eq = len(a) - lt - gt
	if eq > 0 {
		rest := a[lt:]
		for i, j := 0, 0; j < eq; i++ {
			v := rest[i]
			rest[i] = rest[j]
			rest[j] = v
			e := 1
			if pivot < v {
				e = 0
			}
			j += e
		}
	}
	return lt, eq, int64(2*len(a) + gt)
}

// PartitionRange performs an in-place partition of a into three regions
// around the closed interval [lo, hi]: a[:nLess] < lo,
// a[nLess:nLess+nMid] in [lo, hi], and the rest > hi. It is the scan step
// of the fast randomized algorithm (Alg. 4 step 5). Requires lo <= hi.
func PartitionRange[K cmp.Ordered](a []K, lo, hi K) (nLess, nMid int, ops int64) {
	lt, eq, o1 := Partition3(a, lo)
	ops = o1
	// a[:lt] < lo; a[lt:lt+eq] == lo belongs to the middle region.
	rest := a[lt+eq:]
	lt2, eq2, o2 := Partition3(rest, hi)
	ops += o2
	// rest[:lt2] in (lo, hi); rest[lt2:lt2+eq2] == hi.
	return lt, eq + lt2 + eq2, ops
}

// CountLE returns how many elements of a are <= x (no reordering). The
// comparison result feeds the counter arithmetically so the scan compiles
// branch-free.
func CountLE[K cmp.Ordered](a []K, x K) (int, int64) {
	n := 0
	for _, v := range a {
		inc := 0
		if v <= x {
			inc = 1
		}
		n += inc
	}
	return n, int64(len(a))
}

// grow returns dst resized to n elements, reallocating only when the
// capacity is short (the out-of-place kernels overwrite every slot they
// return, so no clearing is needed).
func grow[K any](dst []K, n int) []K {
	if cap(dst) < n {
		return make([]K, n)
	}
	return dst[:n]
}

// FilterWindowCount scans a once: it tallies the three regions of the
// closed window [lo, hi] and simultaneously writes the stable sequence of
// in-window elements into dst (out of place; dst must not alias a, and is
// grown as needed). It returns that sequence plus nLess (elements < lo)
// and nMid (elements in the window). The single fused pass is the hot
// loop of the fast randomized algorithm: the store is unconditional and
// the cursor advance branch-free, so unpredictable keep patterns cost no
// mispredictions, and the discard decision needs no second scan over
// cold memory in the common (window hit) case.
//
// The reported operation count is exactly what the three-way partition
// pair of PartitionRange charges for the same input (2n + g1 over all of
// a, then 2*g1 + g2 over the g1 elements above lo, with g2 the elements
// above hi) — the simulated cost model must not see the host-side
// restructuring. Requires lo <= hi.
func FilterWindowCount[K cmp.Ordered](dst, a []K, lo, hi K) (mid []K, nLess, nMid int, ops int64) {
	dst = grow(dst, len(a))
	c1, c2, c3, k := 0, 0, 0, 0
	for _, v := range a {
		i1, i2, i3 := 0, 0, 0
		if v < lo {
			i1 = 1
		}
		if v <= lo {
			i2 = 1
		}
		if v <= hi {
			i3 = 1
		}
		dst[k] = v
		k += i3 - i1
		c1 += i1
		c2 += i2
		c3 += i3
	}
	g1 := len(a) - c2
	g2 := len(a) - c3
	ops = int64(2*len(a)+g1) + int64(2*g1+g2)
	return dst[:k], c1, c3 - c1, ops
}

// FilterLessInto writes the stable sequence of elements < x into dst
// (out of place, grown as needed; must not alias a) and returns it. The
// movement cost is already priced into the count that preceded it, so
// filters charge nothing; see FilterWindowCount for the branch-free
// store discipline.
func FilterLessInto[K cmp.Ordered](dst, a []K, x K) []K {
	dst = grow(dst, len(a))
	k := 0
	for _, v := range a {
		inc := 0
		if v < x {
			inc = 1
		}
		dst[k] = v
		k += inc
	}
	return dst[:k]
}

// FilterGreaterInto writes the stable sequence of elements > x into dst;
// see FilterLessInto.
func FilterGreaterInto[K cmp.Ordered](dst, a []K, x K) []K {
	dst = grow(dst, len(a))
	k := 0
	for _, v := range a {
		inc := 0
		if v > x {
			inc = 1
		}
		dst[k] = v
		k += inc
	}
	return dst[:k]
}

// PartitionTwoInto scans a once and writes the stable sequences of
// elements < pivot into less and > pivot into gt (both out of place,
// grown as needed; neither may alias a), tallying lt and eq. Both streams
// use the unconditional-store, branch-free-advance discipline of
// FilterWindowCount, so one pass replaces the three-way partition the
// deterministic algorithms would otherwise pay for, at the same charged
// operation count (2 per element at or below the pivot, 3 per element
// above, exactly Partition3's pricing).
func PartitionTwoInto[K cmp.Ordered](less, gt, a []K, pivot K) (l, g []K, lt, eq int, ops int64) {
	less = grow(less, len(a))
	gt = grow(gt, len(a))
	c1, c2, kl, kg := 0, 0, 0, 0
	for _, v := range a {
		i1, i2 := 0, 0
		if v < pivot {
			i1 = 1
		}
		if v <= pivot {
			i2 = 1
		}
		less[kl] = v
		kl += i1
		gt[kg] = v
		kg += 1 - i2
		c1 += i1
		c2 += i2
	}
	gtN := len(a) - c2
	return less[:kl], gt[:kg], c1, c2 - c1, int64(2*len(a) + gtN)
}

// Quickselect returns the k-th smallest (0-based) element of a using the
// Floyd–Rivest SELECT algorithm, the randomized expected-O(n) method the
// paper's randomized algorithms build on. a is permuted in place.
func Quickselect[K cmp.Ordered](a []K, k int, rng *rand.Rand) (K, int64) {
	if k < 0 || k >= len(a) {
		panic("seq: Quickselect rank out of range")
	}
	var ops int64
	floydRivest(a, 0, len(a)-1, k, rng, &ops)
	return a[k], ops
}

// floydRivest is the classic SELECT of Floyd & Rivest (CACM 1975),
// confining k into a small sampled window before partitioning. Operation
// counts accumulate in a register and flush to *ops once per partitioning
// pass, keeping the scan loops free of memory traffic.
func floydRivest[K cmp.Ordered](a []K, left, right, k int, rng *rand.Rand, ops *int64) {
	for right > left {
		if right-left > 600 {
			n := float64(right - left + 1)
			i := float64(k - left + 1)
			z := math.Log(n)
			s := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*s*(n-s)/n)
			if i < n/2 {
				sd = -sd
			}
			newLeft := max(left, int(float64(k)-i*s/n+sd))
			newRight := min(right, int(float64(k)+(n-i)*s/n+sd))
			floydRivest(a, newLeft, newRight, k, rng, ops)
		}
		var o int64
		t := a[k]
		i, j := left, right
		a[left], a[k] = a[k], a[left]
		o += 2
		if a[right] > t {
			a[right], a[left] = a[left], a[right]
			o++
		}
		for i < j {
			a[i], a[j] = a[j], a[i]
			i++
			j--
			o++
			for a[i] < t {
				i++
				o++
			}
			for a[j] > t {
				j--
				o++
			}
		}
		if a[left] == t {
			a[left], a[j] = a[j], a[left]
		} else {
			j++
			a[j], a[right] = a[right], a[j]
		}
		o += 2
		*ops += o
		if j <= k {
			left = j + 1
		}
		if k <= j {
			right = j - 1
		}
	}
}

// SelectBFPRT returns the k-th smallest (0-based) element of a using the
// deterministic median-of-medians algorithm of Blum, Floyd, Pratt, Rivest
// and Tarjan, the worst-case O(n) method the paper's deterministic
// algorithms build on. a is permuted in place.
func SelectBFPRT[K cmp.Ordered](a []K, k int) (K, int64) {
	if k < 0 || k >= len(a) {
		panic("seq: SelectBFPRT rank out of range")
	}
	var ops int64
	for {
		n := len(a)
		if n <= insertionCutoff {
			ops += InsertionSort(a)
			return a[k], ops
		}
		// Medians of groups of five, compacted to the front.
		g := 0
		for i := 0; i < n; i += 5 {
			j := min(i+5, n)
			ops += InsertionSort(a[i:j])
			m := i + (j-i-1)/2
			a[g], a[m] = a[m], a[g]
			g++
			ops++
		}
		mom, o := SelectBFPRT(a[:g], (g-1)/2)
		ops += o
		lt, eq, o2 := Partition3(a, mom)
		ops += o2
		switch {
		case k < lt:
			a = a[:lt]
		case k < lt+eq:
			return mom, ops
		default:
			a = a[lt+eq:]
			k -= lt + eq
		}
	}
}

// Median returns the element with rank ceil(n/2) (the paper's definition
// of the median) using the deterministic selection algorithm.
func Median[K cmp.Ordered](a []K) (K, int64) {
	if len(a) == 0 {
		panic("seq: Median of empty slice")
	}
	return SelectBFPRT(a, MedianIndex(len(a)))
}

// MedianRandomized is Median using Floyd–Rivest selection.
func MedianRandomized[K cmp.Ordered](a []K, rng *rand.Rand) (K, int64) {
	if len(a) == 0 {
		panic("seq: MedianRandomized of empty slice")
	}
	return Quickselect(a, MedianIndex(len(a)), rng)
}

// MedianIndex converts the paper's 1-based median rank ceil(n/2) into a
// 0-based index.
func MedianIndex(n int) int { return (n+1)/2 - 1 }

// WeightedMedian returns the weighted (lower) median of vals: the smallest
// value m such that the total weight of elements strictly below m is less
// than half the total and the weight of elements up to and including m is
// at least half. Used for the bucket-based algorithm's weighted median of
// local medians (Alg. 2 step 3). Zero-weight entries are ignored; total
// weight must be positive. vals and weights are not modified.
func WeightedMedian[K cmp.Ordered](vals []K, weights []int64) (K, int64) {
	if len(vals) != len(weights) {
		panic("seq: WeightedMedian length mismatch")
	}
	type wv struct {
		v K
		w int64
	}
	var total int64
	items := make([]wv, 0, len(vals))
	for i, v := range vals {
		if weights[i] < 0 {
			panic("seq: WeightedMedian negative weight")
		}
		if weights[i] == 0 {
			continue
		}
		items = append(items, wv{v, weights[i]})
		total += weights[i]
	}
	if total <= 0 {
		panic("seq: WeightedMedian requires positive total weight")
	}
	ops := sortFunc(items, func(x, y wv) bool { return x.v < y.v })
	half := (total + 1) / 2 // weight of the lower median position
	var run int64
	for _, it := range items {
		run += it.w
		ops++
		if run >= half {
			return it.v, ops
		}
	}
	return items[len(items)-1].v, ops // unreachable; run reaches total
}

// LowerBound returns the first index i with a[i] >= x in sorted a, and the
// number of comparisons made.
func LowerBound[K cmp.Ordered](a []K, x K) (int, int64) {
	lo, hi := 0, len(a)
	var ops int64
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		ops++
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, ops
}

// UpperBound returns the first index i with a[i] > x in sorted a, and the
// number of comparisons made.
func UpperBound[K cmp.Ordered](a []K, x K) (int, int64) {
	lo, hi := 0, len(a)
	var ops int64
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		ops++
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, ops
}

// PseudoMedian returns a deterministic near-median of a: the iterated
// median-of-medians-of-five pivot (repeatedly replace the array by the
// medians of its groups of five until few elements remain, then take the
// exact middle). Unlike full BFPRT it does not recurse to certify a
// constant rank guarantee, so it costs only ~3n operations; callers use
// it where split quality affects performance but never correctness (the
// bucket preprocessing). a is not modified.
func PseudoMedian[K cmp.Ordered](a []K) (K, int64) {
	if len(a) == 0 {
		panic("seq: PseudoMedian of empty slice")
	}
	var ops int64
	buf := make([]K, len(a))
	copy(buf, a)
	ops += int64(len(a))
	for len(buf) > insertionCutoff {
		g := 0
		for i := 0; i < len(buf); i += 5 {
			j := min(i+5, len(buf))
			ops += InsertionSort(buf[i:j])
			buf[g] = buf[i+(j-i-1)/2]
			g++
			ops++
		}
		buf = buf[:g]
	}
	ops += InsertionSort(buf)
	return buf[(len(buf)-1)/2], ops
}

// SampleWithReplacement draws m elements of a uniformly at random (with
// replacement). It never fails for m > len(a); duplicates simply repeat.
func SampleWithReplacement[K cmp.Ordered](a []K, m int, rng *rand.Rand) ([]K, int64) {
	if m < 0 {
		panic("seq: negative sample size")
	}
	return SampleAppend(make([]K, 0, m), a, m, rng)
}

// SampleAppend is SampleWithReplacement writing into dst (truncated, then
// grown as needed), so steady-state callers sample without allocating.
// The random draws are identical to SampleWithReplacement's.
func SampleAppend[K cmp.Ordered](dst, a []K, m int, rng *rand.Rand) ([]K, int64) {
	if m < 0 {
		panic("seq: negative sample size")
	}
	dst = dst[:0]
	for i := 0; i < m; i++ {
		dst = append(dst, a[rng.IntN(len(a))])
	}
	return dst, int64(m)
}
