package seq

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// filterWindowCountRef is the three-comparison form of FilterWindowCount:
// one pass tests v < lo, v <= lo and v <= hi for every key. It is the
// reference the two-comparison kernel must match exactly.
func filterWindowCountRef[K cmp.Ordered](dst, a []K, lo, hi K) (mid []K, nLess, nMid int, ops int64) {
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

// filtersAgree runs FilterWindowCount and the reference on a and checks
// that they return the same (mid, nLess, nMid, ops), mid compared key by
// key in order, that a is left as it was, and that the two miss filters
// keep the tallied sides. Windows on which the
// reference's cursor would run below zero (a key in (hi, lo) when lo > hi)
// are outside both kernels' domain and are skipped. It returns a
// description of the first disagreement, or "".
func filtersAgree[K cmp.Ordered](a []K, lo, hi K, order func(a, b K) int) string {
	if slices.ContainsFunc(a, func(v K) bool { return v < lo && !(v <= hi) }) {
		return ""
	}
	orig := slices.Clone(a)
	refMid, refLess, refMidN, refOps := filterWindowCountRef(nil, a, lo, hi)
	mid, nLess, nMid, ops := FilterWindowCount(nil, a, lo, hi)
	if nLess != refLess || nMid != refMidN || ops != refOps {
		return "counts differ"
	}
	if slices.CompareFunc(mid, refMid, order) != 0 {
		return "survivors differ"
	}
	if slices.CompareFunc(a, orig, order) != 0 {
		return "input modified"
	}
	// The miss filters must keep exactly the keys the tally put on their
	// side, NaNs included, or the global population count drifts.
	if len(FilterLessInto(nil, a, lo)) != nLess {
		return "FilterLessInto disagrees with nLess"
	}
	if len(FilterGreaterInto(nil, a, hi)) != len(a)-nLess-nMid {
		return "FilterGreaterInto disagrees with the tally"
	}
	return ""
}

// checkFilterAllKinds runs the kernel differential on raw decoded as each
// key kind, with the window bounds taken from two codes of the kind's key
// alphabet (so they repeat in the data, as the engine's sample keys do).
// The bounds go in the order given: lo > hi and NaN bounds are exercised
// wherever the reference is defined.
func checkFilterAllKinds(raw []byte, lo, hi uint8) string {
	w := []byte{lo, hi}
	iw, fw, sw := int64Keys(w), float64Keys(w), stringKeys(w)
	if msg := filtersAgree(int64Keys(raw), iw[0], iw[1], cmp.Compare[int64]); msg != "" {
		return "int64: " + msg
	}
	if msg := filtersAgree(float64Keys(raw), fw[0], fw[1], floatOrder); msg != "" {
		return "float64: " + msg
	}
	if msg := filtersAgree(stringKeys(raw), sw[0], sw[1], cmp.Compare[string]); msg != "" {
		return "string: " + msg
	}
	return ""
}

func TestFilterWindowCountMatchesReference(t *testing.T) {
	f := func(raw []byte, lo, hi uint8) bool { return checkFilterAllKinds(raw, lo, hi) == "" }
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFilterWindowCountEdgeCases(t *testing.T) {
	r := rng()
	wide := make([]int64, 5000)
	for i := range wide {
		wide[i] = r.Int64N(1 << 40)
	}
	sorted := slices.Clone(wide)
	slices.Sort(sorted)
	cases := map[string][]int64{
		"empty":     {},
		"single":    {7},
		"all equal": {4, 4, 4, 4, 4, 4, 4, 4, 4},
		"random":    wide,
		"sorted":    sorted,
		"dup-heavy": randomSlice(3000, r, 3),
	}
	for name, a := range cases {
		bounds := []int64{-1 << 62, 0, 1 << 62}
		if len(a) > 0 {
			bounds = append(bounds, a[0], a[len(a)/3], a[len(a)/2], a[len(a)-1])
		}
		for _, lo := range bounds {
			for _, hi := range bounds {
				if msg := filtersAgree(a, lo, hi, cmp.Compare[int64]); msg != "" {
					t.Errorf("%s, window [%d, %d]: %s", name, lo, hi, msg)
				}
			}
		}
	}
	// Windows bounded by NaN, both zeros and both infinities, over data
	// holding all of them.
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	fa := []float64{nan, 0, negZero, 1, -1, nan, 0, inf, -inf, negZero, 2.5}
	special := []float64{nan, negZero, 0, -inf, inf, 1}
	for _, lo := range special {
		for _, hi := range special {
			if msg := filtersAgree(fa, lo, hi, floatOrder); msg != "" {
				t.Errorf("float window [%v, %v]: %s", lo, hi, msg)
			}
		}
	}
}

// FuzzFilterWindowCount cross-checks the two-comparison window kernel
// against the three-comparison reference on every key kind: int64 with
// heavy duplicates, float64 drawn from a palette of NaNs, signed zeros
// and infinities, and short strings.
func FuzzFilterWindowCount(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{5, 5, 5, 5}, uint8(5), uint8(5))
	f.Add([]byte{0, 1, 2, 0, 1, 2, 13}, uint8(1), uint8(2))
	f.Add([]byte{0, 1, 2, 3, 4}, uint8(0), uint8(4))
	f.Add([]byte("the quick brown fox jumps"), uint8('e'), uint8('q'))
	f.Fuzz(func(t *testing.T, raw []byte, lo, hi uint8) {
		if msg := checkFilterAllKinds(raw, lo, hi); msg != "" {
			t.Fatal(msg)
		}
	})
}

func TestAscending(t *testing.T) {
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	floats := []struct {
		a    []float64
		want bool
	}{
		{nil, true},
		{[]float64{}, true},
		{[]float64{3}, true},
		{[]float64{nan}, true},
		{[]float64{nan, nan}, false},
		{[]float64{nan, 1}, false},
		{[]float64{1, nan}, false},
		{[]float64{1, nan, 2}, false},
		{[]float64{-inf, 1, 2, nan}, false},
		{[]float64{negZero, 0, negZero, 0}, true},
		{[]float64{0, negZero}, true},
		{[]float64{-inf, negZero, 0, 1, 1, inf}, true},
		{[]float64{2, 1}, false},
	}
	for _, tc := range floats {
		if got := Ascending(tc.a); got != tc.want {
			t.Errorf("Ascending(%v) = %v, want %v", tc.a, got, tc.want)
		}
	}
	ints := []struct {
		a    []int64
		want bool
	}{
		{[]int64{}, true},
		{[]int64{1}, true},
		{[]int64{1, 1, 2, 9}, true},
		{[]int64{2, 1}, false},
		{[]int64{1, 2, 3, 2}, false},
		{[]int64{5, 1, 2, 3}, false},
	}
	for _, tc := range ints {
		if got := Ascending(tc.a); got != tc.want {
			t.Errorf("Ascending(%v) = %v, want %v", tc.a, got, tc.want)
		}
	}
	for _, tc := range []struct {
		a    []string
		want bool
	}{
		{[]string{"", "a", "a", "ab", "b"}, true},
		{[]string{"b", "a"}, false},
	} {
		if got := Ascending(tc.a); got != tc.want {
			t.Errorf("Ascending(%q) = %v, want %v", tc.a, got, tc.want)
		}
	}
}

// ascendingAgree runs WindowAscending and FilterWindowCount on the
// ascending a and checks that the index kernel's run a[c1:c3] equals the
// scan's survivors with the same counts (nLess = c1, nMid = c3 - c1) and
// charge, that the prefix and suffix the engine keeps on a window miss
// equal FilterLessInto's and FilterGreaterInto's survivors, and that a is
// left as it was. It returns a description of the first disagreement,
// or "".
func ascendingAgree[K cmp.Ordered](a []K, lo, hi K, order func(a, b K) int) string {
	orig := slices.Clone(a)
	refMid, refLess, refMidN, refOps := FilterWindowCount(nil, a, lo, hi)
	c1, c3, ops := WindowAscending(a, lo, hi)
	if c1 != refLess || c3-c1 != refMidN || ops != refOps {
		return "counts differ"
	}
	if slices.CompareFunc(a[c1:c3], refMid, order) != 0 {
		return "survivors differ"
	}
	if slices.CompareFunc(a[:c1], FilterLessInto(nil, a, lo), order) != 0 {
		return "prefix differs from FilterLessInto"
	}
	if slices.CompareFunc(a[c3:], FilterGreaterInto(nil, a, hi), order) != 0 {
		return "suffix differs from FilterGreaterInto"
	}
	if slices.CompareFunc(a, orig, order) != 0 {
		return "input modified"
	}
	return ""
}

// ascendingWindow sorts keys and draws a window lo <= hi from them, from
// values between neighbouring keys (between returns one, or reports that
// it has none), and from the zero key, which may lie outside them all.
// The picks index that candidate list.
func ascendingWindow[K cmp.Ordered](keys []K, pickLo, pickHi uint8, between func(a, b K) (K, bool)) (lo, hi K) {
	slices.Sort(keys)
	var zero K
	cands := append(slices.Clone(keys), zero)
	for i := 1; i < len(keys); i++ {
		if v, ok := between(keys[i-1], keys[i]); ok {
			cands = append(cands, v)
		}
	}
	lo, hi = cands[int(pickLo)%len(cands)], cands[int(pickHi)%len(cands)]
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo, hi
}

// checkAscendingAllKinds runs the ascending-kernel differential on raw
// decoded as each key kind and sorted: int64 with heavy duplicates,
// float64 from the palette with its NaNs dropped (an ascending slice of
// two or more keys holds none), so both zeros and both infinities remain,
// and short strings.
func checkAscendingAllKinds(raw []byte, pickLo, pickHi uint8) string {
	ia := int64Keys(raw)
	lo, hi := ascendingWindow(ia, pickLo, pickHi, func(a, b int64) (int64, bool) { return a + (b-a)/2, b-a > 1 })
	if msg := ascendingAgree(ia, lo, hi, cmp.Compare[int64]); msg != "" {
		return "int64: " + msg
	}
	fa := slices.DeleteFunc(float64Keys(raw), func(v float64) bool { return v != v })
	flo, fhi := ascendingWindow(fa, pickLo, pickHi, func(a, b float64) (float64, bool) {
		m := a/2 + b/2
		return m, m == m && a < m && m < b
	})
	if msg := ascendingAgree(fa, flo, fhi, floatOrder); msg != "" {
		return "float64: " + msg
	}
	sa := stringKeys(raw)
	slo, shi := ascendingWindow(sa, pickLo, pickHi, func(a, b string) (string, bool) {
		m := a + "\x00"
		return m, m < b
	})
	if msg := ascendingAgree(sa, slo, shi, cmp.Compare[string]); msg != "" {
		return "string: " + msg
	}
	return ""
}

// TestWindowAscendingMatchesScan checks that filtering an ascending
// slice by index (WindowAscending) agrees with the scanning filter.
func TestWindowAscendingMatchesScan(t *testing.T) {
	f := func(raw []byte, lo, hi uint8) bool { return checkAscendingAllKinds(raw, lo, hi) == "" }
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	// Windows over one NaN: a lone NaN is ascending, and the kernel files
	// it above every window, as the scan does.
	for _, w := range [][2]float64{{0, 0}, {-1, 1}, {math.Inf(-1), math.Inf(1)}} {
		if msg := ascendingAgree([]float64{math.NaN()}, w[0], w[1], floatOrder); msg != "" {
			t.Errorf("lone NaN, window %v: %s", w, msg)
		}
	}
}

// FuzzWindowAscending cross-checks the binary-search window kernel
// (WindowAscending) against the scanning kernel on sorted keys of every
// kind, with the window drawn from the keys and from values between them.
func FuzzWindowAscending(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{5, 5, 5, 5}, uint8(0), uint8(3))
	f.Add([]byte{0, 1, 2, 0, 1, 2, 13}, uint8(1), uint8(9))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, uint8(20), uint8(4))
	f.Add([]byte("the quick brown fox jumps"), uint8(7), uint8(30))
	f.Fuzz(func(t *testing.T, raw []byte, lo, hi uint8) {
		if msg := checkAscendingAllKinds(raw, lo, hi); msg != "" {
			t.Fatal(msg)
		}
	})
}

// appendAgree runs AppendAscending on dst and src and checks it against
// append followed by Ascending: the same keys bit for bit, the exact
// order flag when dst's order is given truly, with src's order given
// truly (the known-order copy when src is ascending) and as unknown,
// false when dst is given as unordered, and src left as it was. It
// returns a description of the first disagreement, or "".
func appendAgree[K cmp.Ordered](dst, src []K, order func(a, b K) int) string {
	orig := slices.Clone(src)
	want := append(slices.Clone(dst), src...)
	for _, srcAsc := range []bool{Ascending(src), false} {
		got, asc := AppendAscending(slices.Clone(dst), Ascending(dst), src, srcAsc)
		if slices.CompareFunc(got, want, order) != 0 {
			return fmt.Sprintf("src order %v: keys differ from append", srcAsc)
		}
		if asc != Ascending(want) {
			return fmt.Sprintf("src order %v: order flag differs from Ascending", srcAsc)
		}
		if got, asc := AppendAscending(slices.Clip(slices.Clone(dst)), false, src, srcAsc); asc || slices.CompareFunc(got, want, order) != 0 {
			return fmt.Sprintf("src order %v, unordered dst: flag set or keys differ", srcAsc)
		}
	}
	if slices.CompareFunc(src, orig, order) != 0 {
		return "src modified"
	}
	return ""
}

func TestAppendAscending(t *testing.T) {
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	for _, tc := range []struct{ dst, src []float64 }{
		{nil, nil},
		{nil, []float64{nan}},
		{[]float64{nan}, nil},
		{[]float64{nan}, []float64{1}},
		{[]float64{1}, []float64{nan}},
		{[]float64{-inf, negZero}, []float64{0, negZero, inf}},
		{[]float64{0}, []float64{negZero}},
		{[]float64{1, 2}, []float64{2, 3}},
		{[]float64{1, 3}, []float64{2}},
		{[]float64{2, 1}, []float64{3}},
		{[]float64{}, []float64{inf, -inf}},
	} {
		if msg := appendAgree(tc.dst, tc.src, floatOrder); msg != "" {
			t.Errorf("AppendAscending(%v, %v): %s", tc.dst, tc.src, msg)
		}
	}
	// Long runs cross the copy blocks: a single descent placed at and
	// around each block boundary, in dst's last key and at the very end.
	const n = 3*appendBlock + 7
	for _, at := range []int{-1, 0, 1, appendBlock - 1, appendBlock, appendBlock + 1, 2 * appendBlock, n - 1} {
		src := make([]int64, n)
		for i := range src {
			src[i] = int64(i)
		}
		dst := []int64{-5, -1}
		if at >= 0 {
			src[at] = -10
		} else {
			dst[1] = 7
		}
		if msg := appendAgree(dst, src, cmp.Compare[int64]); msg != "" {
			t.Errorf("descent at %d: %s", at, msg)
		}
		if msg := appendAgree(nil, src, cmp.Compare[int64]); msg != "" {
			t.Errorf("empty dst, descent at %d: %s", at, msg)
		}
	}
}

// splitSorted cuts keys at k into dst and src and sorts each when sort's
// low bit (dst) or second bit (src) is set.
func splitSorted[K cmp.Ordered](keys []K, k int, sort uint8) (dst, src []K) {
	dst, src = keys[:k:k], keys[k:]
	if sort&1 != 0 {
		slices.Sort(dst)
	}
	if sort&2 != 0 {
		slices.Sort(src)
	}
	return dst, src
}

// checkAppendAllKinds runs the AppendAscending differential on raw cut
// into dst and src, decoded as each key kind: int64 with heavy
// duplicates, float64 from the palette (NaNs, both zeros, both
// infinities) and short strings. Each byte is repeated stretch%4*400+1
// times, so short inputs cross the copy blocks, and sort picks which
// side is sorted (see splitSorted), so ascending runs are common.
func checkAppendAllKinds(raw []byte, cut, stretch, sort uint8) string {
	reps := int(stretch%4)*400 + 1
	long := make([]byte, 0, len(raw)*reps)
	for _, b := range raw {
		for range reps {
			long = append(long, b)
		}
	}
	k := int(cut) % (len(raw) + 1) * reps
	id, is := splitSorted(int64Keys(long), k, sort)
	if msg := appendAgree(id, is, cmp.Compare[int64]); msg != "" {
		return "int64: " + msg
	}
	fd, fs := splitSorted(float64Keys(long), k, sort)
	if msg := appendAgree(fd, fs, floatOrder); msg != "" {
		return "float64: " + msg
	}
	sd, ss := splitSorted(stringKeys(long), k, sort)
	if msg := appendAgree(sd, ss, cmp.Compare[string]); msg != "" {
		return "string: " + msg
	}
	return ""
}

func TestAppendAscendingMatchesAppend(t *testing.T) {
	f := func(raw []byte, cut, stretch, sort uint8) bool {
		return checkAppendAllKinds(raw, cut, stretch, sort) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzAppendAscending cross-checks the copy-and-check kernel
// (AppendAscending) against append followed by Ascending on every key
// kind, with dst or src or both empty, sorted or not, and src's order
// passed as seq.Ascending finds it (the known-order copy) and as
// unknown.
func FuzzAppendAscending(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint8(3), uint8(1), uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint8(0), uint8(2), uint8(2))
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint8(6), uint8(0), uint8(1))
	f.Add([]byte{9, 1, 2, 0, 13, 4, 7}, uint8(2), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, cut, stretch, sort uint8) {
		if msg := checkAppendAllKinds(raw, cut, stretch, sort); msg != "" {
			t.Fatal(msg)
		}
	})
}
