// Package model encodes the analytic running-time formulas of the
// paper's Table 1 (balanced iterations) and Table 2 (worst case, no load
// balancing) as executable predictions, calibrated to this repository's
// measured kernel constants. The harness prints predictions next to
// simulated measurements so that the tables can be checked as shapes, not
// just as asymptotic strings.
//
// The formulas (Table 1, with load-balanced iterations):
//
//	Median of Medians: O(n/p +  tau log p log n +  mu p log n)
//	Randomized:        O(n/p + (tau+mu) log p log n)
//	Fast Randomized:   O(n/p + (tau+mu) log p log log n)
//
// and Table 2 (worst case, without load balancing):
//
//	Median of Medians: O(n/p log n + tau log p log n + mu p log n)
//	Bucket-Based:      O(n/p (log log p + log n / log p) + tau log p log n + mu p log n)
//	Randomized:        O(n/p log n + (tau+mu) log p log n)
//	Fast Randomized:   O(n/p log log n + (tau+mu) log p log log n)
//
// Constants: the sequential kernels of this repository cost, per element,
// about 19 operations for deterministic (BFPRT) selection, 1.4 for
// Floyd–Rivest selection, 2.5 for a three-way partition pass, and the
// bucket preprocessing about 5.5 per element per level. Those constants,
// times machine.SecPerOp, turn the asymptotic forms into seconds.
package model

import (
	"math"

	"parsel/internal/machine"
	"parsel/internal/selection"
)

// Measured kernel constants (operations per element); see the kernel
// benchmarks in internal/seq.
const (
	opsBFPRT     = 19.0 // deterministic selection
	opsFR        = 1.4  // Floyd–Rivest selection
	opsPartition = 2.5  // one three-way partition pass
	opsBucketLvl = 5.5  // pseudo-median split, per element per level
)

// Predict returns the modelled simulated run time, in seconds, of one
// median selection under the paper's assumptions. worstCase selects the
// Table 2 (sorted input, no balancing) forms; otherwise the Table 1
// (balanced iterations) forms apply.
func Predict(alg selection.Algorithm, n int64, params machine.Params, worstCase bool) float64 {
	p := float64(params.Procs)
	N := float64(n)
	if N < 1 || p < 1 {
		return 0
	}
	logp := math.Max(1, math.Log2(p))
	// Iterations until the population falls to p^2.
	iters := math.Max(1, math.Log2(math.Max(2, N/(p*p))))
	loglogn := math.Max(1, math.Log2(math.Max(2, math.Log2(N))))
	op := machine.SecPerOp
	tau := machine.Tau
	word := float64(machine.WordBytes)
	mu := machine.Mu * word

	// Collective costs per iteration (§2.2): a handful of
	// O((tau+mu) log p) collectives, and for the deterministic
	// algorithms one gather of p medians, O(tau log p + mu p).
	small := (tau + 2*mu) * logp
	gather := tau*logp + 2*mu*p

	// Final sequential solve on p^2 gathered elements.
	finish := gather*p + opsFR*p*p*op

	// Local compute per iteration: with balanced halving the per-
	// processor population sums to ~2 n/p across iterations; in the
	// worst case (no balancing, sorted data) one processor keeps its
	// full n/p share for ~log p iterations before its range is split.
	computeSum := 2 * N / p
	if worstCase {
		computeSum = N / p * math.Min(iters, logp+1)
	}

	switch alg {
	case selection.MedianOfMedians, selection.MedianOfMediansHybrid:
		perElem := opsBFPRT + opsPartition
		if alg == selection.MedianOfMediansHybrid {
			perElem = opsFR + opsPartition
		}
		return computeSum*perElem*op + iters*(gather+3*small) + finish
	case selection.BucketBased, selection.BucketBasedHybrid:
		loglogp := math.Max(1, math.Log2(logp))
		build := N / p * opsBucketLvl * loglogp * op
		// Per-iteration local work touches ~one bucket of the
		// surviving population.
		perIter := (N / p / math.Max(2, logp)) * (opsBFPRT + opsPartition) * op
		if alg == selection.BucketBasedHybrid {
			perIter = (N / p / math.Max(2, logp)) * (opsFR + opsPartition) * op
		}
		// The surviving population halves, so the bucket work is a
		// geometric series ~2x the first term.
		return build + 2*perIter + iters*(gather+3*small) + finish
	case selection.Randomized:
		return computeSum*opsPartition*op + iters*4*small + finish
	case selection.FastRandomized:
		fIters := loglogn
		// Each iteration partitions against a window (two passes) and
		// sample-sorts n^0.6 keys.
		sample := math.Pow(N, 0.6)
		sortCost := sample / p * 46 * op // introsort constant
		return computeSum*2*opsPartition*op + fIters*(sortCost+10*small+gather) + finish
	default:
		return 0
	}
}
