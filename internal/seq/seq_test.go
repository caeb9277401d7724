package seq

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func rng() *rand.Rand { return rand.New(rand.NewPCG(42, 43)) }

// oracleRank returns the k-th smallest element by sorting a copy.
func oracleRank(a []int64, k int) int64 {
	b := slices.Clone(a)
	slices.Sort(b)
	return b[k]
}

func randomSlice(n int, r *rand.Rand, span int64) []int64 {
	a := make([]int64, n)
	for i := range a {
		a[i] = r.Int64N(span)
	}
	return a
}

func TestInsertionSort(t *testing.T) {
	r := rng()
	for _, n := range []int{0, 1, 2, 3, 10, 50} {
		a := randomSlice(n, r, 20)
		want := slices.Clone(a)
		slices.Sort(want)
		ops := InsertionSort(a)
		if !slices.Equal(a, want) {
			t.Errorf("n=%d not sorted: %v", n, a)
		}
		if n > 1 && ops == 0 {
			t.Errorf("n=%d reported zero ops", n)
		}
	}
}

func TestPartition3Property(t *testing.T) {
	f := func(raw []int16, pivIdx uint8) bool {
		a := make([]int64, len(raw))
		for i, v := range raw {
			a[i] = int64(v)
		}
		if len(a) == 0 {
			return true
		}
		pivot := a[int(pivIdx)%len(a)]
		before := slices.Clone(a)
		lt, eq, _ := Partition3(a, pivot)
		// Region invariants.
		for i, v := range a {
			switch {
			case i < lt && v >= pivot:
				return false
			case i >= lt && i < lt+eq && v != pivot:
				return false
			case i >= lt+eq && v <= pivot:
				return false
			}
		}
		// Multiset preserved.
		slices.Sort(before)
		after := slices.Clone(a)
		slices.Sort(after)
		return slices.Equal(before, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickselectMatchesOracle(t *testing.T) {
	r := rng()
	for _, n := range []int{1, 2, 3, 10, 100, 1000, 5000} {
		a := randomSlice(n, r, int64(n)*3)
		for _, k := range []int{0, n / 4, n / 2, n - 1} {
			want := oracleRank(a, k)
			got, ops := Quickselect(slices.Clone(a), k, r)
			if got != want {
				t.Errorf("n=%d k=%d: got %d want %d", n, k, got, want)
			}
			if n > 1 && ops <= 0 {
				t.Errorf("n=%d k=%d: nonpositive ops %d", n, k, ops)
			}
		}
	}
}

func TestQuickselectAllEqual(t *testing.T) {
	a := make([]int64, 2000)
	for i := range a {
		a[i] = 7
	}
	got, _ := Quickselect(a, 1000, rng())
	if got != 7 {
		t.Errorf("all-equal select = %d", got)
	}
}

func TestQuickselectSortedAndReverse(t *testing.T) {
	r := rng()
	n := 3000
	asc := make([]int64, n)
	desc := make([]int64, n)
	for i := range asc {
		asc[i] = int64(i)
		desc[i] = int64(n - i)
	}
	if got, _ := Quickselect(slices.Clone(asc), 1234, r); got != 1234 {
		t.Errorf("sorted select = %d", got)
	}
	if got, _ := Quickselect(slices.Clone(desc), 0, r); got != 1 {
		t.Errorf("reverse select min = %d", got)
	}
}

func TestQuickselectPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Quickselect([]int64{1, 2}, 2, rng())
}

func TestSelectBFPRTMatchesOracle(t *testing.T) {
	r := rng()
	for _, n := range []int{1, 2, 5, 24, 25, 100, 1000, 4321} {
		a := randomSlice(n, r, int64(n))
		for _, k := range []int{0, n / 3, n / 2, n - 1} {
			want := oracleRank(a, k)
			got, _ := SelectBFPRT(slices.Clone(a), k)
			if got != want {
				t.Errorf("n=%d k=%d: got %d want %d", n, k, got, want)
			}
		}
	}
}

func TestSelectBFPRTWorstCases(t *testing.T) {
	n := 2000
	asc := make([]int64, n)
	allEq := make([]int64, n)
	for i := range asc {
		asc[i] = int64(i)
		allEq[i] = 3
	}
	if got, _ := SelectBFPRT(slices.Clone(asc), 999); got != 999 {
		t.Errorf("sorted BFPRT = %d", got)
	}
	if got, _ := SelectBFPRT(allEq, 1500); got != 3 {
		t.Errorf("all-equal BFPRT = %d", got)
	}
}

// TestBFPRTCostlierThanQuickselect pins the constant-factor relationship
// the paper leans on: deterministic selection does several times more
// element operations than Floyd–Rivest.
func TestBFPRTCostlierThanQuickselect(t *testing.T) {
	r := rng()
	a := randomSlice(200000, r, 1<<40)
	_, detOps := SelectBFPRT(slices.Clone(a), 100000)
	_, randOps := Quickselect(slices.Clone(a), 100000, r)
	if detOps < 3*randOps {
		t.Errorf("BFPRT ops %d not >= 3x Floyd-Rivest ops %d", detOps, randOps)
	}
}

func TestMedianDefinitions(t *testing.T) {
	// Paper: median has rank ceil(N/2) (1-based).
	cases := []struct {
		n    int
		want int // 0-based index
	}{{1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 2}, {100, 49}, {101, 50}}
	for _, tc := range cases {
		if got := MedianIndex(tc.n); got != tc.want {
			t.Errorf("MedianIndex(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	a := []int64{9, 1, 5, 3, 7}
	if m, _ := SelectBFPRT(slices.Clone(a), MedianIndex(len(a))); m != 5 {
		t.Errorf("BFPRT median = %d, want 5", m)
	}
	if m, _ := Quickselect(slices.Clone(a), MedianIndex(len(a)), rng()); m != 5 {
		t.Errorf("Floyd–Rivest median = %d, want 5", m)
	}
	b := []int64{4, 1, 3, 2}
	if m, _ := SelectBFPRT(slices.Clone(b), MedianIndex(len(b))); m != 2 {
		t.Errorf("even BFPRT median = %d, want 2", m)
	}
}

func TestWeightedMedianBasic(t *testing.T) {
	// Values 10,20,30 with weights 1,1,1: median is 20.
	if m, _ := WeightedMedian([]int64{30, 10, 20}, []int64{1, 1, 1}); m != 20 {
		t.Errorf("uniform weighted median = %d", m)
	}
	// Weight concentrated on 30.
	if m, _ := WeightedMedian([]int64{10, 20, 30}, []int64{1, 1, 10}); m != 30 {
		t.Errorf("skewed weighted median = %d", m)
	}
	// Zero weights ignored.
	if m, _ := WeightedMedian([]int64{10, 20, 30}, []int64{0, 5, 0}); m != 20 {
		t.Errorf("zero-weight median = %d", m)
	}
}

// TestWeightedMedianProperty: expanding each value by its weight and taking
// the plain lower median must agree with WeightedMedian.
func TestWeightedMedianProperty(t *testing.T) {
	f := func(raw []int16, wraw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		weights := make([]int64, len(raw))
		var total int64
		for i, v := range raw {
			vals[i] = int64(v)
			if i < len(wraw) {
				weights[i] = int64(wraw[i] % 8)
			}
			total += weights[i]
		}
		if total == 0 {
			weights[0] = 1
			total = 1
		}
		got, _ := WeightedMedian(vals, weights)
		var expanded []int64
		for i, v := range vals {
			for j := int64(0); j < weights[i]; j++ {
				expanded = append(expanded, v)
			}
		}
		slices.Sort(expanded)
		want := expanded[MedianIndex(len(expanded))]
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWeightedMedianPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"mismatch": func() { WeightedMedian([]int64{1}, []int64{1, 2}) },
		"negative": func() { WeightedMedian([]int64{1}, []int64{-1}) },
		"zero":     func() { WeightedMedian([]int64{1}, []int64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBounds(t *testing.T) {
	a := []int64{1, 3, 3, 3, 7, 9}
	cases := []struct {
		x      int64
		lb, ub int
	}{{0, 0, 0}, {1, 0, 1}, {2, 1, 1}, {3, 1, 4}, {7, 4, 5}, {9, 5, 6}, {10, 6, 6}}
	for _, tc := range cases {
		if got, _ := LowerBound(a, tc.x); got != tc.lb {
			t.Errorf("LowerBound(%d) = %d, want %d", tc.x, got, tc.lb)
		}
		if got, _ := UpperBound(a, tc.x); got != tc.ub {
			t.Errorf("UpperBound(%d) = %d, want %d", tc.x, got, tc.ub)
		}
	}
}

func TestBoundsProperty(t *testing.T) {
	f := func(raw []int16, x int16) bool {
		a := make([]int64, len(raw))
		for i, v := range raw {
			a[i] = int64(v)
		}
		slices.Sort(a)
		lb, _ := LowerBound(a, int64(x))
		ub, _ := UpperBound(a, int64(x))
		for i, v := range a {
			if (i < lb) != (v < int64(x)) {
				return false
			}
			if (i < ub) != (v <= int64(x)) {
				return false
			}
		}
		return lb <= ub
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleWithReplacement(t *testing.T) {
	r := rng()
	a := []int64{10, 20, 30}
	s, ops := SampleAppend(nil, a, 100, r)
	if len(s) != 100 || ops != 100 {
		t.Fatalf("len=%d ops=%d", len(s), ops)
	}
	for _, v := range s {
		if v != 10 && v != 20 && v != 30 {
			t.Errorf("sampled foreign value %d", v)
		}
	}
	if s2, _ := SampleAppend(s, a, 0, r); len(s2) != 0 {
		t.Error("empty sample not empty")
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	r := rng()
	for _, n := range []int{0, 1, 2, 17, 100, 1000, 50000} {
		a := randomSlice(n, r, 64) // heavy duplicates stress 3-way path
		want := slices.Clone(a)
		slices.Sort(want)
		Sort(a)
		if !slices.Equal(a, want) {
			t.Errorf("n=%d mismatch", n)
		}
	}
}

func TestSortAdversarial(t *testing.T) {
	n := 30000
	asc := make([]int64, n)
	desc := make([]int64, n)
	organ := make([]int64, n)
	for i := range asc {
		asc[i] = int64(i)
		desc[i] = int64(n - i)
		if i < n/2 {
			organ[i] = int64(i)
		} else {
			organ[i] = int64(n - i)
		}
	}
	for name, a := range map[string][]int64{"asc": asc, "desc": desc, "organ": organ} {
		b := slices.Clone(a)
		want := slices.Clone(a)
		slices.Sort(want)
		ops := Sort(b)
		if !slices.Equal(b, want) {
			t.Errorf("%s: not sorted", name)
		}
		// Introsort must stay loglinear-ish even on adversarial inputs.
		if limit := int64(60 * n); ops > limit {
			t.Errorf("%s: ops %d exceed %d", name, ops, limit)
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(raw []int32) bool {
		a := make([]int64, len(raw))
		for i, v := range raw {
			a[i] = int64(v)
		}
		want := slices.Clone(a)
		slices.Sort(want)
		Sort(a)
		return slices.Equal(a, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeK(t *testing.T) {
	runs := [][]int64{
		{1, 4, 9},
		{},
		{2, 2, 2},
		{0},
		{5, 6},
	}
	got, _ := MergeKInto(nil, runs)
	want := []int64{0, 1, 2, 2, 2, 4, 5, 6, 9}
	if !slices.Equal(got, want) {
		t.Errorf("MergeKInto = %v, want %v", got, want)
	}
	if out, _ := MergeKInto[int64](got, nil); len(out) != 0 {
		t.Error("MergeKInto(nil runs) not empty")
	}
	if out, _ := MergeKInto(got, [][]int64{{}, {}}); len(out) != 0 {
		t.Error("MergeKInto(empty runs) not empty")
	}
}

func TestMergeKProperty(t *testing.T) {
	f := func(raw [][]int16) bool {
		runs := make([][]int64, len(raw))
		var all []int64
		for i, r := range raw {
			runs[i] = make([]int64, len(r))
			for j, v := range r {
				runs[i][j] = int64(v)
			}
			slices.Sort(runs[i])
			all = append(all, runs[i]...)
		}
		got, _ := MergeKInto(nil, runs)
		slices.Sort(all)
		return slices.Equal(got, all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSelectGenericString(t *testing.T) {
	words := []string{"pear", "apple", "fig", "date", "cherry"}
	got, _ := SelectBFPRT(slices.Clone(words), 2)
	if got != "date" {
		t.Errorf("string BFPRT = %q", got)
	}
	got2, _ := Quickselect(slices.Clone(words), 0, rng())
	if got2 != "apple" {
		t.Errorf("string Quickselect = %q", got2)
	}
}
