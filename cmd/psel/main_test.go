package main

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parsel"
)

func TestQuantileRank(t *testing.T) {
	cases := []struct {
		n    int64
		q    float64
		want int64 // 0: rejected
	}{
		{2, 0.500000001, 2}, // just above 1/2: ceil(1.000000002)
		{2, 0.5, 1},
		{3, 0.5, 2},
		{100, 0, 1},
		{1, 0, 1},
		{100, 0.25, 25},
		{100, 0.9, 91}, // the float64 0.9 is a hair above 9/10
		{100, 1, 100},
		{1 << 62, math.Nextafter(0, 1), 1}, // subnormal q
		{1<<53 + 1, 0.5, 1<<52 + 1},
		{100, 1.5, 0},
		{100, math.Nextafter(1, 2), 0},
		{100, -0.1, 0},
		{100, math.NaN(), 0},
		{100, math.Inf(1), 0},
	}
	for _, c := range cases {
		got, err := quantileRank(c.n, c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("quantileRank(%d, %v) = %d, want an error", c.n, c.q, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("quantileRank(%d, %v) = %d, %v; want %d", c.n, c.q, got, err, c.want)
		}
		if c.n > 1000 {
			continue
		}
		// The keys 1..n make the value of each rank the rank itself, so
		// parsel.Quantile must answer the same rank.
		keys := make([]int64, c.n)
		for i := range keys {
			keys[i] = int64(i + 1)
		}
		res, err := parsel.Over([][]int64{keys}, parsel.Options{}).Quantile(context.Background(), c.q)
		if err != nil || res.Value != got {
			t.Errorf("parsel.Quantile(%v) over 1..%d = %d, %v; psel picks rank %d", c.q, c.n, res.Value, err, got)
		}
	}
}

// TestUsageListsSortedNames pins the name lists of the -alg, -bal and
// -dist usage text (and the unknown-name errors, which print the same
// lists) in sorted order, so the help text is the same on every run.
// Each list is built several times: map iteration order varies per
// range, so a single unsorted build could match by luck.
func TestUsageListsSortedNames(t *testing.T) {
	for _, c := range []struct {
		flag, want string
		list       func() string
	}{
		{"-alg", "bucket, bucket-hybrid, fastrand, mom, mom-hybrid, rand", func() string { return keys(algNames) }},
		{"-bal", "dimexch, globexch, modomlb, none, omlb", func() string { return keys(balNames) }},
		{"-dist", "fewdistinct, gaussian, random, revsorted, sorted, zipf", func() string { return keys(distNames) }},
	} {
		for range 20 {
			if got := c.list(); got != c.want {
				t.Fatalf("%s usage lists %q, want %q", c.flag, got, c.want)
			}
		}
	}
}

// updateGolden rewrites testdata/*.golden instead of comparing against
// them: go test ./cmd/psel -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden instead of comparing against them")

// TestSmokeGolden pins psel's output, byte for byte, for the two
// invocations make smoke runs: a traced randomized run with balancing
// and a default-algorithm quantile. The simulated time is deterministic
// per seed, so any difference is a change in what psel selects, how the
// engine prices it, or how psel prints it.
func TestSmokeGolden(t *testing.T) {
	for _, c := range []struct{ name, args string }{
		{"trace", "-n 65536 -p 8 -alg rand -bal modomlb -trace"},
		{"q09", "-n 65536 -p 8 -q 0.9"},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(c.args), &out); err != nil {
			t.Fatalf("psel %s: %v", c.args, err)
		}
		path := filepath.Join("testdata", c.name+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (rerun with -update-golden to record): %v", err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("psel %s:\n got:\n%s\nwant (%s):\n%s", c.args, out.Bytes(), path, want)
		}
	}
}

// TestRunRejectsBadArguments checks that run reports, rather than exits
// on, an unknown name, a quantile outside [0,1] and an out-of-range rank,
// and writes no report for them.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range []string{"-alg zz", "-bal zz", "-dist zz", "-q 1.5", "-n 10 -rank 11", "-p 0"} {
		var out bytes.Buffer
		if err := run(strings.Fields(args), &out); err == nil || out.Len() != 0 {
			t.Errorf("psel %s: err %v, output %q; want an error and no output", args, err, out.String())
		}
	}
}
