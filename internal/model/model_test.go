package model

import (
	"testing"

	"parsel/internal/balance"
	"parsel/internal/machine"
	"parsel/internal/selection"
	"parsel/internal/workload"
)

func predictParams(p int) machine.Params { return machine.DefaultParams(p) }

func TestPredictPositiveAndFinite(t *testing.T) {
	for _, alg := range selection.AllAlgorithms {
		for _, p := range []int{2, 8, 32, 128} {
			for _, n := range []int64{32 << 10, 2 << 20} {
				for _, wc := range []bool{false, true} {
					v := Predict(alg, n, predictParams(p), wc)
					if v <= 0 || v != v || v > 1e6 {
						t.Errorf("%v n=%d p=%d wc=%v: predict %g", alg, n, p, wc, v)
					}
				}
			}
		}
	}
}

func TestPredictMonotoneInN(t *testing.T) {
	for _, alg := range selection.Algorithms {
		prev := 0.0
		for _, n := range []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
			v := Predict(alg, n, predictParams(16), false)
			if v <= prev {
				t.Errorf("%v: predict not increasing in n at %d: %g <= %g", alg, n, v, prev)
			}
			prev = v
		}
	}
}

func TestPredictOrderingMatchesPaper(t *testing.T) {
	// At the paper's flagship point the model must order the algorithms
	// as the paper found: randomized < fast < bucket < mom... at n=2M,
	// p=32 the deterministic ones must trail both randomized ones.
	params := predictParams(32)
	n := int64(2 << 20)
	mom := Predict(selection.MedianOfMedians, n, params, false)
	bucket := Predict(selection.BucketBased, n, params, false)
	rand := Predict(selection.Randomized, n, params, false)
	fast := Predict(selection.FastRandomized, n, params, false)
	if rand >= mom || fast >= mom {
		t.Errorf("model orders randomized (%g, %g) above mom (%g)", rand, fast, mom)
	}
	if bucket >= mom {
		t.Errorf("model orders bucket (%g) above mom (%g)", bucket, mom)
	}
}

func TestWorstCaseCostlier(t *testing.T) {
	for _, alg := range selection.Algorithms {
		best := Predict(alg, 2<<20, predictParams(32), false)
		worst := Predict(alg, 2<<20, predictParams(32), true)
		if worst < best {
			t.Errorf("%v: worst case %g below balanced case %g", alg, worst, best)
		}
	}
}

// TestSpeedupReasonable checks the modelled speedup, the one-processor
// prediction over the eight-processor one.
func TestSpeedupReasonable(t *testing.T) {
	speedup := func(alg selection.Algorithm, n int64) float64 {
		return Predict(alg, n, predictParams(1), false) / Predict(alg, n, predictParams(8), false)
	}
	for _, alg := range selection.Algorithms {
		if s8 := speedup(alg, 2<<20); !(s8 > 1) {
			t.Errorf("%v: speedup %g", alg, s8)
		}
	}
	// Randomized selection at large n should achieve real speedup.
	if s := speedup(selection.Randomized, 8<<20); s < 2 {
		t.Errorf("randomized speedup at p=8 only %g", s)
	}
}

// TestPredictTracksSimulation is the fidelity check: across the grid the
// model's prediction must stay within a constant band of the simulated
// measurement (shape agreement, not exact equality).
func TestPredictTracksSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	type cfg struct {
		alg selection.Algorithm
		bal balance.Method
	}
	cfgs := []cfg{
		{selection.MedianOfMedians, balance.GlobalExchange},
		{selection.BucketBased, balance.None},
		{selection.Randomized, balance.None},
		{selection.FastRandomized, balance.None},
	}
	n := int64(512 << 10)
	for _, c := range cfgs {
		for _, p := range []int{4, 16, 64} {
			shards := workload.Generate(workload.Random, n, p, 3)
			params := machine.DefaultParams(p)
			sim, err := machine.Run(params, func(pr *machine.Proc) {
				selection.Select(pr, shards[pr.ID()], (n+1)/2, selection.Options{
					Algorithm: c.alg, Balancer: c.bal,
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			pred := Predict(c.alg, n, params, false)
			ratio := pred / sim
			if ratio < 0.25 || ratio > 4 {
				t.Errorf("%v p=%d: predicted %gs vs simulated %gs (ratio %.2f outside [0.25,4])",
					c.alg, p, pred, sim, ratio)
			}
		}
	}
}
