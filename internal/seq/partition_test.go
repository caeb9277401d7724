package seq

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// floatOrder is a total order on float64 for multiset comparison: the
// key order of cmp.Compare, with ties (NaN payloads, -0 against +0)
// broken by bit pattern so that equal multisets sort identically.
func floatOrder(x, y float64) int {
	if c := cmp.Compare(x, y); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(x), math.Float64bits(y))
}

// sameMultiset reports whether x and y hold the same keys under order.
func sameMultiset[K any](x, y []K, order func(a, b K) int) bool {
	if len(x) != len(y) {
		return false
	}
	xs, ys := slices.Clone(x), slices.Clone(y)
	slices.SortFunc(xs, order)
	slices.SortFunc(ys, order)
	for i := range xs {
		if order(xs[i], ys[i]) != 0 {
			return false
		}
	}
	return true
}

// partitionsAgree runs Partition3 and Partition3Branchless on copies of a
// and checks that they agree on (lt, eq, ops) and on each region's
// multiset. It returns a description of the first disagreement, or "".
func partitionsAgree[K cmp.Ordered](a []K, pivot K, order func(a, b K) int) string {
	ref, got := slices.Clone(a), slices.Clone(a)
	lt0, eq0, ops0 := Partition3(ref, pivot)
	lt1, eq1, ops1 := Partition3Branchless(got, pivot)
	if lt0 != lt1 || eq0 != eq1 || ops0 != ops1 {
		return "counts differ"
	}
	bounds := [][2]int{{0, lt0}, {lt0, lt0 + eq0}, {lt0 + eq0, len(a)}}
	for _, b := range bounds {
		if !sameMultiset(ref[b[0]:b[1]], got[b[0]:b[1]], order) {
			return "region contents differ"
		}
	}
	return ""
}

// palette maps small codes onto float64 keys that stress the comparison
// classes: NaN, both zeros, infinities and ordinary values.
var palette = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1),
	-1.5, 1.5, 2, 2, 3, -7, 1e300, -1e-300, math.Float64frombits(0x7ff8000000000123)}

// Keys decoded from fuzz or quick-check bytes, one per byte.
func int64Keys(raw []byte) []int64 {
	a := make([]int64, len(raw))
	for i, b := range raw {
		a[i] = int64(b%16) - 8 // heavy duplicates, negatives
	}
	return a
}

func float64Keys(raw []byte) []float64 {
	a := make([]float64, len(raw))
	for i, b := range raw {
		a[i] = palette[int(b)%len(palette)]
	}
	return a
}

func stringKeys(raw []byte) []string {
	words := []string{"", "a", "ab", "b", "ba", "\x00", "zz", "a"}
	a := make([]string, len(raw))
	for i, b := range raw {
		a[i] = words[int(b)%len(words)]
	}
	return a
}

// checkAllKinds runs the differential check on raw decoded as each key
// kind, with the pivot taken at position pick (as the engines take
// pivots from the data), or an absent key when raw is empty.
func checkAllKinds(raw []byte, pick uint8) string {
	ia, fa, sa := int64Keys(raw), float64Keys(raw), stringKeys(raw)
	ip, fp, sp := int64(3), math.NaN(), "b"
	if len(raw) > 0 {
		k := int(pick) % len(raw)
		ip, fp, sp = ia[k], fa[k], sa[k]
	}
	if msg := partitionsAgree(ia, ip, cmp.Compare[int64]); msg != "" {
		return "int64: " + msg
	}
	if msg := partitionsAgree(fa, fp, floatOrder); msg != "" {
		return "float64: " + msg
	}
	if msg := partitionsAgree(sa, sp, cmp.Compare[string]); msg != "" {
		return "string: " + msg
	}
	return ""
}

func TestPartition3BranchlessMatchesPartition3(t *testing.T) {
	f := func(raw []byte, pick uint8) bool { return checkAllKinds(raw, pick) == "" }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPartition3BranchlessEdgeCases(t *testing.T) {
	r := rng()
	wide := make([]int64, 5000)
	for i := range wide {
		wide[i] = r.Int64N(1 << 40)
	}
	sorted := slices.Clone(wide)
	slices.Sort(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	cases := map[string][]int64{
		"empty":      {},
		"single":     {7},
		"all equal":  {4, 4, 4, 4, 4, 4, 4, 4, 4},
		"random":     wide,
		"sorted":     sorted,
		"reversed":   reversed,
		"dup-heavy":  randomSlice(3000, r, 3),
		"pivot-only": {1, 1},
	}
	for name, a := range cases {
		pivots := []int64{0, -1 << 62, 1 << 62}
		if len(a) > 0 {
			pivots = append(pivots, a[0], a[len(a)/2], a[len(a)-1])
		}
		for _, piv := range pivots {
			if msg := partitionsAgree(a, piv, cmp.Compare[int64]); msg != "" {
				t.Errorf("%s, pivot %d: %s", name, piv, msg)
			}
		}
	}
	// Float pivots that are NaN or a signed zero.
	fa := []float64{math.NaN(), 0, math.Copysign(0, -1), 1, -1, math.NaN(), 0}
	for _, piv := range []float64{math.NaN(), 0, math.Copysign(0, -1), 1} {
		if msg := partitionsAgree(fa, piv, floatOrder); msg != "" {
			t.Errorf("float pivot %v: %s", piv, msg)
		}
	}
}

// FuzzPartition3Branchless cross-checks the branch-free kernel against
// Partition3 on every key kind: int64 with heavy duplicates, float64
// drawn from a palette of NaNs, signed zeros and infinities, and short
// strings.
func FuzzPartition3Branchless(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{5, 5, 5, 5}, uint8(2))
	f.Add([]byte{0, 1, 2, 0, 1, 2, 13}, uint8(0))
	f.Add([]byte("the quick brown fox jumps"), uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, pick uint8) {
		if msg := checkAllKinds(raw, pick); msg != "" {
			t.Fatal(msg)
		}
	})
}
