package selection

import (
	"cmp"

	"parsel/internal/comm"
	"parsel/internal/machine"
	"parsel/internal/psort"
)

// ViaSort is the brute-force baseline the paper's premise implicitly
// compares against: parallel-sort the entire dataset (PSRS) and read off
// the element at the target rank. It is asymptotically and practically
// inferior to every §3 algorithm — the harness's "sortsel" experiment
// quantifies by how much — but is useful as an oracle and as a baseline
// for benchmarks. Unlike Select it consumes local: the sort permutes it
// in place.
func ViaSort[K cmp.Ordered](p *machine.Proc, local []K, rank int64, opts Options) (K, Stats) {
	opts = opts.withDefaults()
	st := &Stats{}
	n := comm.CombineInt64(p, int64(len(local)))
	if n == 0 {
		panic("selection: ViaSort on an empty population")
	}
	if rank < 1 || rank > n {
		panic("selection: ViaSort rank out of range")
	}
	run := psort.Sort(p, local, p.Procs(), nil)
	st.Iterations = 1
	return psort.RankElement(p, run, rank-1), *st
}
