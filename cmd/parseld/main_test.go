package main

import "testing"

// TestUsageListsSortedNames pins the name lists of the -alg, -bal and
// -topo usage text (and the unknown-name errors, which print the same
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
		{"-topo", "crossbar, hypercube, mesh, ring", func() string { return keys(topoNames) }},
	} {
		for range 20 {
			if got := c.list(); got != c.want {
				t.Fatalf("%s usage lists %q, want %q", c.flag, got, c.want)
			}
		}
	}
}
