package selection

import (
	"cmp"
	"fmt"
	"slices"

	"parsel/internal/machine"
)

// Prefix memoizes the rank-independent prefix of fast randomized
// selection over fixed shards, Options and machine parameters. The
// machine re-seeds its random streams and zeroes its clocks and counters
// on every run, so everything a run does before it first reads the rank
// is the same for every rank: the Combine of the population size, the
// first sample draw, its parallel sort (or its gather on processor 0)
// and the Combine of the sample size. A Prefix records each processor's
// state at that point, the first time, and lets every later run restore
// it instead of repeating the work.
//
// The restore replays the simulated charge rather than dropping it: each
// processor resumes with the clock, counters and random streams it had
// at the capture point, so answers, simulated seconds and counters are
// bit-identical to a run without the memo.
//
// A Prefix is filled by the one run it is first passed to (capture
// mode) and is read-only once Seal has accepted it: any number of
// concurrent runs may then replay it. It holds O(sample) keys: each
// processor's sorted sample run, or, when the sample is gathered,
// processor 0's gathered sample.
type Prefix[K cmp.Ordered] struct {
	mode  prefixMode
	n     int64 // global population, the first Combine's result
	procs []prefixProc[K]
}

// prefixProc is one processor's state at the end of the prefix.
type prefixProc[K cmp.Ordered] struct {
	state machine.State
	s     int64 // global sample size (where the processor reads it)
	keys  []K   // the keys the next step reads; owned by the memo
	taken bool
}

// prefixMode says what a run does with its Prefix.
type prefixMode int8

const (
	// prefixCapture: the run records its prefix into the memo.
	prefixCapture prefixMode = iota
	// prefixReplay: every processor was captured; runs restore.
	prefixReplay
	// prefixInert: the prefix never runs on these shards (the
	// population is at or below the sequential threshold, or no
	// iteration is allowed), so there is nothing to replay.
	prefixInert
)

// NewPrefix returns an empty memo for a machine of procs processors,
// ready to capture the prefix of the run it is passed to.
func NewPrefix[K cmp.Ordered](procs int) *Prefix[K] {
	return &Prefix[K]{procs: make([]prefixProc[K], procs)}
}

// Seal ends the capture of a run that succeeded and reports whether the
// memo may be published to later runs: true when every processor
// recorded its state, or when none did because the prefix never ran.
func (pf *Prefix[K]) Seal() bool {
	taken := 0
	for i := range pf.procs {
		if pf.procs[i].taken {
			taken++
		}
	}
	switch taken {
	case len(pf.procs):
		pf.mode = prefixReplay
	case 0:
		pf.mode = prefixInert
	default:
		return false
	}
	return true
}

// Replays reports whether runs given this memo skip the prefix.
func (pf *Prefix[K]) Replays() bool { return pf != nil && pf.mode == prefixReplay }

// capturing reports whether the run records into the memo.
func (pf *Prefix[K]) capturing() bool { return pf != nil && pf.mode == prefixCapture }

// capture records processor p's state at the end of the prefix, with the
// population n, the sample size s and the keys the next step reads
// (copied: they live in the processor's arena).
func (pf *Prefix[K]) capture(p *machine.Proc, n, s int64, keys []K) {
	pf.n = n
	pf.procs[p.ID()] = prefixProc[K]{state: p.State(), s: s, keys: slices.Clone(keys), taken: true}
}

// restore puts processor p back at the end of the prefix and returns the
// sample size and the keys the next step reads. The keys belong to the
// memo and must not be written.
func (pf *Prefix[K]) restore(p *machine.Proc) (s int64, keys []K) {
	if len(pf.procs) != p.Procs() {
		panic(fmt.Sprintf("selection: prefix memo of %d processors replayed on %d", len(pf.procs), p.Procs()))
	}
	pp := &pf.procs[p.ID()]
	p.SetState(pp.state)
	return pp.s, pp.keys
}
