package seq

import (
	"cmp"
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
