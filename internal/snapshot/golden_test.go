package snapshot

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/*.golden instead of comparing against
// them: go test ./internal/snapshot -run TestFixedWidthGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden instead of comparing against them")

// goldenCase is one named snapshot whose Encode bytes are pinned.
type goldenCase[K FixedKey] struct {
	name    string
	options string
	shards  [][]K
}

// int64GoldenCases covers the shapes catalogue plus the edge layouts:
// one empty shard, a single key, the extreme values.
func int64GoldenCases() []goldenCase[int64] {
	cases := []goldenCase[int64]{
		{"empty-one-proc", "", [][]int64{{}}},
		{"single-key", "fp", [][]int64{{-7}}},
		{"extremes", "alg=rand bal=modomlb", [][]int64{{math.MinInt64, -1, 0}, {1, math.MaxInt64}}},
	}
	for i, sh := range testShapes {
		cases = append(cases, goldenCase[int64]{fmt.Sprintf("shape%d", i), "fp", sh})
	}
	return cases
}

// float64GoldenCases covers the same layouts as float64, plus the bit
// patterns a float decoder could normalise away: quiet and signalling
// NaNs with payloads, a negative NaN, ±0, ±Inf and subnormals.
func float64GoldenCases() []goldenCase[float64] {
	bits := math.Float64frombits
	cases := []goldenCase[float64]{
		{"empty-one-proc", "", [][]float64{{}}},
		{"single-key", "fp", [][]float64{{-7.25}}},
		{"special-bits", "alg=rand", [][]float64{
			{math.NaN(), bits(0x7ff0000000000001), bits(0xfff8000000000000), bits(0x7ff8dead0000beef)},
			{},
			{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)},
			{bits(1), -bits(1), math.MaxFloat64, -math.SmallestNonzeroFloat64},
		}},
	}
	for i, sh := range testShapes {
		fs := make([][]float64, len(sh))
		for p, s := range sh {
			fs[p] = make([]float64, len(s))
			for j, k := range s {
				fs[p][j] = float64(k) / 3
			}
		}
		cases = append(cases, goldenCase[float64]{fmt.Sprintf("shape%d", i), "fp", fs})
	}
	return cases
}

// TestFixedWidthGolden pins the int64 and float64 PSELSNAP bytes: Encode
// must write exactly the recorded bytes, and DecodeAs must give back the
// header and every key's bits unchanged.
func TestFixedWidthGolden(t *testing.T) {
	checkGolden(t, "int64.golden", int64GoldenCases(), func(k int64) uint64 { return uint64(k) })
	checkGolden(t, "float64.golden", float64GoldenCases(), math.Float64bits)
}

func checkGolden[K FixedKey](t *testing.T, file string, cases []goldenCase[K], keyBits func(K) uint64) {
	t.Helper()
	var b strings.Builder
	for _, c := range cases {
		data := Encode(Header{Options: c.options}, c.shards)
		fmt.Fprintf(&b, "%s\t%s\n", c.name, hex.EncodeToString(data))

		h, got, err := DecodeAs[K](data)
		if err != nil {
			t.Fatalf("%s/%s: decode: %v", file, c.name, err)
		}
		if h.KeyType != KeyTypeFor[K]() || h.Options != c.options || h.Procs != len(c.shards) {
			t.Errorf("%s/%s: header %+v", file, c.name, h)
		}
		if len(got) != len(c.shards) {
			t.Fatalf("%s/%s: %d shards, want %d", file, c.name, len(got), len(c.shards))
		}
		for p := range c.shards {
			if len(got[p]) != len(c.shards[p]) {
				t.Fatalf("%s/%s shard %d: %d keys, want %d", file, c.name, p, len(got[p]), len(c.shards[p]))
			}
			for i, k := range c.shards[p] {
				if keyBits(got[p][i]) != keyBits(k) {
					t.Errorf("%s/%s shard %d key %d: bits %016x, want %016x",
						file, c.name, p, i, keyBits(got[p][i]), keyBits(k))
				}
			}
		}
	}
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update-golden)", err)
	}
	if got := []byte(b.String()); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d differs:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
