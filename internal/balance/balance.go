// Package balance implements the paper's dynamic load-balancing
// algorithms (§4): the order-maintaining load balance, its modified
// variant (Alg. 5), the dimension exchange method (Alg. 6), and the
// global exchange (Alg. 7). All redistribute the elements held by the
// processors so that every processor ends with either floor(n/p) or
// ceil(n/p) of the n elements; they differ in how much communication they
// generate and whether they preserve the global element order.
package balance

import (
	"cmp"
	"fmt"

	"parsel/internal/comm"
	"parsel/internal/machine"
	"parsel/internal/seq"
)

// Method selects a load-balancing algorithm. The constants are numbered
// as parsel.Balancer numbers them, default first, so the two convert by
// a cast; Methods lists them in the paper's order.
type Method int

const (
	// ModifiedOMLB (Alg. 5, the paper's "O" series) lets every
	// processor retain min(ni, navg) of its own elements and moves only
	// the excess from sources to sinks, matched by prefix-sum intervals
	// in processor order. The default.
	ModifiedOMLB Method = iota
	// None performs no balancing (the paper's "N" series).
	None
	// OMLB is the order-maintaining load balance of §4.1: a parallel
	// prefix computes each element's global position and elements move
	// so that processor i holds positions [i*navg, (i+1)*navg). It can
	// generate much more communication than necessary but preserves
	// the global order of the data.
	OMLB
	// DimensionExchange (Alg. 6, "D") pairs processors that differ in
	// bit j of their rank for j = 0..log2(p)-1 and averages their loads
	// pairwise, converging to global balance on a hypercube.
	DimensionExchange
	// GlobalExchange (Alg. 7, "G") is ModifiedOMLB with sources and
	// sinks sorted by decreasing excess/need before interval matching,
	// pairing the fullest processors with the emptiest to reduce the
	// number of messages.
	GlobalExchange
)

// Methods lists every method including None.
var Methods = []Method{None, OMLB, ModifiedOMLB, DimensionExchange, GlobalExchange}

// Active lists the methods that actually move data.
var Active = []Method{OMLB, ModifiedOMLB, DimensionExchange, GlobalExchange}

// String returns the name used in harness output (matching the paper's
// figure legends).
func (m Method) String() string {
	switch m {
	case None:
		return "none"
	case OMLB:
		return "omlb"
	case ModifiedOMLB:
		return "modomlb"
	case DimensionExchange:
		return "dimexch"
	case GlobalExchange:
		return "globexch"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Tag bases for this package's point-to-point traffic (disjoint from the
// comm package's bases).
const (
	tagDimCount = 9 << 20
	tagDimData  = 10 << 20
)

// Scratch holds one processor's reusable balancing tables and staging
// blocks, so that the migrate paths of a long-lived machine allocate
// nothing in steady state. A zero Scratch is ready to use; buffers grow
// on demand and are retained between rounds.
//
// It holds no output keys. A processor that receives keys assembles its
// new shard in the buffer the caller passes to RunScratch, which the
// caller owns and must not back the input (the selection engine passes
// whichever arena window buffer does not hold its survivors): the input
// is read while the output is written, and the blocks it sources must
// stay intact until every receiver has copied them. One that receives
// nothing returns a capped view of its input. No balancer writes its
// input, so the input may be the caller's read-only shard or a view of
// it.
type Scratch[K any] struct {
	cbuf     []int64 // Bruck all-gather working space (2p)
	targ     []int64
	cumT     []int64
	inCounts []int64
	out      [][]K
	in       [][]K
	sources  []procExcess
	sinks    []procExcess
	dim      [][]K // per-round staging blocks for dimension exchange
}

// outBuf returns *buf emptied, with capacity for n keys: when it is short
// it is replaced by a larger array, which *buf then holds.
func outBuf[K any](buf *[]K, n int) []K {
	if cap(*buf) < n {
		*buf = make([]K, 0, n)
	}
	return (*buf)[:0]
}

// outSlices returns the per-destination block table, cleared.
func (s *Scratch[K]) outSlices(p int) [][]K {
	if cap(s.out) < p {
		s.out = make([][]K, p)
	}
	s.out = s.out[:p]
	for i := range s.out {
		s.out[i] = nil
	}
	return s.out
}

// int64Buf returns a zeroed int64 buffer of length p from the given slot.
func int64Buf(slot *[]int64, p int) []int64 {
	if cap(*slot) < p {
		*slot = make([]int64, p)
	}
	*slot = (*slot)[:p]
	for i := range *slot {
		(*slot)[i] = 0
	}
	return *slot
}

// dimBuf returns a staging buffer of length n for the given exchange round.
func (s *Scratch[K]) dimBuf(round, n int) []K {
	for len(s.dim) <= round {
		s.dim = append(s.dim, nil)
	}
	if cap(s.dim[round]) < n {
		s.dim[round] = make([]K, n)
	}
	s.dim[round] = s.dim[round][:n]
	return s.dim[round]
}

// Run redistributes local using the given method and returns the new local
// slice. It must be called by all processors collectively. Every key is
// one machine.WordBytes word on the wire.
func Run[K cmp.Ordered](p *machine.Proc, local []K, method Method) []K {
	out, _ := RunScratch(p, local, false, method, new([]K), nil)
	return out
}

// RunScratch is Run with per-processor reusable scratch (nil behaves like
// Run) and a caller-owned output buffer. asc reports that local is
// ascending; the second result reports the new local is. A processor
// that receives keys assembles them in *buf (grown as needed, and *buf
// then holds the larger array), which must not back local, and reports
// whether they are ascending exactly; one that receives nothing returns
// a view of local, capped so that no append can reach past it, and
// passes asc on. Simulated cost and traffic are identical to Run; only
// host-side work differs.
func RunScratch[K cmp.Ordered](p *machine.Proc, local []K, asc bool, method Method, buf *[]K, scr *Scratch[K]) ([]K, bool) {
	if scr == nil {
		scr = &Scratch[K]{}
	}
	switch method {
	case None:
		return local, asc
	case OMLB:
		return orderMaintaining(p, local, asc, buf, scr)
	case ModifiedOMLB:
		return sourceSink(p, local, asc, false, buf, scr)
	case DimensionExchange:
		return dimensionExchange(p, local, asc, buf, scr)
	case GlobalExchange:
		return sourceSink(p, local, asc, true, buf, scr)
	default:
		panic(fmt.Sprintf("balance: unknown method %d", int(method)))
	}
}

// targets fills the balanced shard sizes: the first n%p processors get
// ceil(n/p), the rest floor(n/p).
func targets(slot *[]int64, n int64, p int) []int64 {
	t := int64Buf(slot, p)
	base, rem := n/int64(p), n%int64(p)
	for i := range t {
		t[i] = base
		if int64(i) < rem {
			t[i]++
		}
	}
	return t
}

// orderMaintaining implements the unmodified OMLB: elements keep their
// global order; processor i ends with the elements whose global positions
// fall in its target interval.
func orderMaintaining[K cmp.Ordered](p *machine.Proc, local []K, asc bool, buf *[]K, scr *Scratch[K]) ([]K, bool) {
	size := p.Procs()
	counts, cbuf := comm.GlobalConcatInt64(p, int64(len(local)), scr.cbuf)
	scr.cbuf = cbuf
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 || size == 1 {
		return local, asc
	}
	targ := targets(&scr.targ, n, size)
	// Cumulative target starts: processor j owns [cumT[j], cumT[j+1]).
	cumT := int64Buf(&scr.cumT, size+1)
	for j := 0; j < size; j++ {
		cumT[j+1] = cumT[j] + targ[j]
	}
	// My elements occupy global positions [myStart, myStart+len).
	var myStart int64
	for j := 0; j < p.ID(); j++ {
		myStart += counts[j]
	}
	p.Charge(int64(2 * size)) // the two local prefix walks above

	out := scr.outSlices(size)
	for j := 0; j < size; j++ {
		lo := max64(myStart, cumT[j])
		hi := min64(myStart+int64(len(local)), cumT[j+1])
		if lo < hi {
			out[j] = local[lo-myStart : hi-myStart]
			p.Charge(hi - lo) // block assembly / copy-out
		}
	}
	// Incoming counts: intersect my target interval with source ranges.
	inCounts := int64Buf(&scr.inCounts, size)
	var srcStart int64
	for s := 0; s < size; s++ {
		lo := max64(srcStart, cumT[p.ID()])
		hi := min64(srcStart+counts[s], cumT[p.ID()+1])
		if lo < hi {
			inCounts[s] = hi - lo
		}
		srcStart += counts[s]
	}
	in := comm.TransportKnown(p, out, inCounts, machine.WordBytes, scr.in)
	scr.in = in
	p.Charge(targ[p.ID()]) // assemble the balanced shard
	if inCounts[p.ID()] == targ[p.ID()] {
		// Everything stays here: the shard is one run of local.
		own := in[p.ID()]
		return own[:len(own):len(own)], asc
	}
	res, rasc := outBuf(buf, int(targ[p.ID()])), true
	for s := 0; s < size; s++ {
		res, rasc = seq.AppendAscending(res, rasc, in[s])
	}
	return res, rasc
}

// procExcess is one processor's surplus (source) or deficit (sink) in the
// interval-matching schemes.
type procExcess struct {
	proc int
	amt  int64
}

// sourceSink implements both Modified OMLB (sorted=false: processor-index
// order) and Global Exchange (sorted=true: decreasing excess/need order).
func sourceSink[K cmp.Ordered](p *machine.Proc, local []K, asc, sorted bool, buf *[]K, scr *Scratch[K]) ([]K, bool) {
	size := p.Procs()
	counts, cbuf := comm.GlobalConcatInt64(p, int64(len(local)), scr.cbuf)
	scr.cbuf = cbuf
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 || size == 1 {
		return local, asc
	}
	targ := targets(&scr.targ, n, size)
	sources, sinks := scr.sources[:0], scr.sinks[:0]
	for j := 0; j < size; j++ {
		d := counts[j] - targ[j]
		if d > 0 {
			sources = append(sources, procExcess{j, d})
		} else if d < 0 {
			sinks = append(sinks, procExcess{j, -d})
		}
	}
	scr.sources, scr.sinks = sources, sinks
	p.Charge(int64(size))
	if sorted {
		// Global exchange: largest excess first, largest need first;
		// ties by processor index for determinism.
		sortByAmtDesc(sources)
		sortByAmtDesc(sinks)
		p.Charge(int64(len(sources) + len(sinks))) // cheap local sorts
	}

	me := p.ID()
	out := scr.outSlices(size)
	inCounts := int64Buf(&scr.inCounts, size)
	keep := min64(int64(len(local)), targ[me])

	if excess := unitStart(sources, me); excess >= 0 {
		// I am a source: my excess units occupy [excess, excess+amt);
		// send each overlap with a sink's unit interval to that sink.
		amt := counts[me] - targ[me]
		sent := int64(0)
		var sinkPos int64
		for _, snk := range sinks {
			lo := max64(excess, sinkPos)
			hi := min64(excess+amt, sinkPos+snk.amt)
			if lo < hi {
				cnt := hi - lo
				out[snk.proc] = local[keep+sent : keep+sent+cnt]
				p.Charge(cnt)
				sent += cnt
			}
			sinkPos += snk.amt
		}
	}
	need := unitStart(sinks, me)
	if need >= 0 {
		// I am a sink: my need units occupy [need, need+amt); receive
		// each overlap with a source's unit interval from that source.
		amt := targ[me] - counts[me]
		var srcPos int64
		for _, src := range sources {
			lo := max64(need, srcPos)
			hi := min64(need+amt, srcPos+src.amt)
			if lo < hi {
				inCounts[src.proc] = hi - lo
			}
			srcPos += src.amt
		}
	}
	in := comm.TransportKnown(p, out, inCounts, machine.WordBytes, scr.in)
	scr.in = in
	if need < 0 {
		// Not a sink, so nothing arrives: the shard is the kept prefix.
		p.Charge(keep)
		return local[:keep:keep], asc
	}
	final, fasc := seq.AppendAscending(outBuf(buf, int(targ[me])), true, local[:keep])
	for s := 0; s < size; s++ {
		if s != me {
			final, fasc = seq.AppendAscending(final, fasc, in[s])
		}
	}
	p.Charge(int64(len(final)))
	return final, fasc
}

// unitStart returns the cumulative unit rank at which proc's entry starts
// in the chosen ordering, or -1 when proc is not in the list.
func unitStart(list []procExcess, proc int) int64 {
	var cum int64
	for _, e := range list {
		if e.proc == proc {
			return cum
		}
		cum += e.amt
	}
	return -1
}

// sortByAmtDesc sorts by decreasing amount, breaking ties by processor
// index (insertion sort: the lists have at most p entries).
func sortByAmtDesc(a []procExcess) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && (a[j].amt < x.amt || (a[j].amt == x.amt && a[j].proc > x.proc)) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// dimensionExchange implements Alg. 6. In round j, processors whose ranks
// differ in bit j exchange element counts and the fuller half sends the
// surplus so both end with ceil/floor of their joint total. For
// non-power-of-two p a processor whose partner does not exist sits the
// round out (the standard generalization); balance is then approximate.
// A processor that receives assembles its keys in *buf; one that only
// sends returns a prefix of local.
func dimensionExchange[K cmp.Ordered](p *machine.Proc, local []K, asc bool, buf *[]K, scr *Scratch[K]) ([]K, bool) {
	size := p.Procs()
	me := p.ID()
	own, trimmed := false, false // local lives in *buf; a send shortened it since
	for pow, round := 1, 0; pow < size; pow, round = pow<<1, round+1 {
		partner := me ^ pow
		if partner >= size {
			continue
		}
		ni := int64(len(local))
		p.SendInt64Pair(partner, tagDimCount+round, ni, 0, machine.WordBytes)
		nl, _ := p.RecvInt64Pair(partner, tagDimCount+round)
		navg := (ni + nl + 1) / 2
		switch {
		case ni > navg:
			// Copy the surplus out: a later round may append into *buf,
			// where local may live, which must not alias the block the
			// partner received. The staging block is per-round scratch;
			// it is free for reuse once the collectives separating two
			// balancing rounds have synchronized every processor.
			give := ni - navg
			blk := scr.dimBuf(round, int(give))
			copy(blk, local[navg:ni])
			p.Send(partner, tagDimData+round, blk, int(give)*machine.WordBytes)
			local = local[:navg]
			trimmed = own
			p.Charge(give)
		case nl > navg:
			blk := p.Recv(partner, tagDimData+round).([]K)
			if !own {
				local, asc = seq.AppendAscending(outBuf(buf, int(navg)), true, local)
				own = true
			}
			local, asc = seq.AppendAscending(local, asc, blk)
			*buf = local
			p.Charge(int64(len(blk)))
		}
	}
	if !own {
		return local[:len(local):len(local)], asc
	}
	if trimmed && !asc {
		// A prefix of unordered keys may be ordered: keep the flag exact.
		asc = seq.Ascending(local)
	}
	return local, asc
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
