// Package comm implements the parallel communication primitives of the
// paper's §2.2 on top of the simulated machine's point-to-point layer:
//
//	Broadcast          O((tau+mu) log p)    binomial tree
//	Combine            O((tau+mu) log p)    binomial reduce + broadcast
//	Parallel Prefix    O((tau+mu) log p)    dissemination (Hillis–Steele)
//	Gather             O(tau log p + mu p)  binomial tree
//	Global Concatenate O(tau log p + mu p)  Bruck all-gather
//	Transportation     ~2 mu t              pairwise-scheduled all-to-all-v
//
// Each pattern is written once: Broadcast, BroadcastSlice and the int64
// forms walk one binomial broadcast tree (down), every Combine walks one
// binomial reduce tree (up) and then broadcasts, both Global Concatenate
// forms walk one Bruck schedule (bruck), and Transport is the Global
// Concatenate of the counts followed by TransportKnown. The parallel
// prefix exists as an int64 sum (PrefixSumInt64), the only form the
// algorithms use; Gather is a flat variable-length gather on processor 0
// (GatherFlatInto). Global Concatenate passes block headers for
// variable-length slices (GlobalConcatv), so its host memory does not
// grow with the payload, and copies a fixed-length int64 slice per
// processor into a reused flat buffer (GlobalConcatInt64Flat), so it
// allocates nothing.
//
// All primitives work for arbitrary processor counts, not only powers of
// two. Message costs (tau + mu*bytes) are charged by the machine layer;
// per the paper's model the primitives themselves charge no computation.
package comm

import "parsel/internal/machine"

// Tag bases keep the message streams of distinct primitives disjoint.
// Within a primitive, the round number is added to the base. Because each
// ordered processor pair has a FIFO link and SPMD programs invoke
// collectives in program order, bases may be reused across invocations.
const (
	tagBroadcast = 1 << 20
	tagReduce    = 2 << 20
	tagPrefix    = 3 << 20
	tagGather    = 4 << 20
	tagConcat    = 5 << 20
	tagTransport = 6 << 20
)

// Broadcast distributes the root's value to every processor and returns it.
// bytes is the on-the-wire size of the value.
func Broadcast[T any](p *machine.Proc, root int, val T, bytes int) T {
	down(p.ID(), root, p.Procs(),
		func(peer, mask int) { val = p.Recv(peer, tagBroadcast+mask).(T) },
		func(peer, mask int) { p.Send(peer, tagBroadcast+mask, val, bytes) })
	return val
}

// BroadcastSlice distributes the root's slice to every processor. Non-root
// inputs are ignored. The returned slice must not be mutated by receivers
// that share memory with the root in-process; callers that need ownership
// should copy.
func BroadcastSlice[T any](p *machine.Proc, root int, vals []T, elemBytes int) []T {
	down(p.ID(), root, p.Procs(),
		func(peer, mask int) { vals = p.Recv(peer, tagBroadcast+mask).([]T) },
		func(peer, mask int) { p.Send(peer, tagBroadcast+mask, vals, len(vals)*elemBytes) })
	return vals
}

// Combine is the paper's Combine primitive: an all-reduce. Every processor
// contributes val and receives op applied across all contributions.
func Combine[T any](p *machine.Proc, val T, bytes int, op func(T, T) T) T {
	up(p.ID(), p.Procs(),
		func(peer, mask int) { val = op(val, p.Recv(peer, tagReduce+mask).(T)) },
		func(peer, mask int) { p.Send(peer, tagReduce+mask, val, bytes) })
	return Broadcast(p, 0, val, bytes)
}

// down walks processor me's edges of the binomial broadcast tree rooted
// at root: recv(peer, mask) once from its parent (never on the root),
// then send(peer, mask) to each child, farthest first. mask is the
// tree level, which the callers add to their tag.
func down(me, root, size int, recv, send func(peer, mask int)) {
	rel := (me - root + size) % size
	mask := 1
	for ; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			recv((me-mask+size)%size, mask)
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < size {
			send((me+mask)%size, mask)
		}
	}
}

// up walks processor me's edges of the binomial reduce tree rooted at
// processor 0, the mirror of down's tree: recv(peer, mask) from each
// child, nearest first, then send(peer, mask) once to its parent,
// which ends the walk. It reports whether me is the root, the one
// processor that holds the full reduction.
func up(me, size int, recv, send func(peer, mask int)) (isRoot bool) {
	for mask := 1; mask < size; mask <<= 1 {
		if me&mask != 0 {
			send(me&^mask, mask)
			return false
		}
		if me|mask < size {
			recv(me|mask, mask)
		}
	}
	return true
}

// bruck walks processor me's rounds of the Bruck all-gather. Holding the
// blocks of processors me, me+1, ... (mod size) in that order, in round
// r (pow = 2^r) it sends its first cnt = min(pow, size-pow) blocks to
// dst = me-pow and receives cnt more, which follow them, from src =
// me+pow; step(dst, src, r, cnt) does one round, and the callers add r
// to their tag. After ceil(log2 size) rounds every block has arrived.
func bruck(me, size int, step func(dst, src, round, cnt int)) {
	for pow, round := 1, 0; pow < size; pow, round = pow<<1, round+1 {
		step((me-pow+size)%size, (me+pow)%size, round, min(pow, size-pow))
	}
}

// GlobalConcatv is the paper's Global Concatenate for variable-length
// slices: every processor receives all p slices, indexed by absolute
// rank, O(tau log p + mu p m). Messages carry block headers, not copies,
// so the result shares memory with the senders' slices.
func GlobalConcatv[T any](p *machine.Proc, vals []T, elemBytes int) [][]T {
	size := p.Procs()
	// have[i] holds the slice of processor (me+i) mod size.
	have := make([][]T, 1, size)
	have[0] = vals
	bruck(p.ID(), size, func(dst, src, round, cnt int) {
		bytes := 0
		for _, blk := range have[:cnt] {
			bytes += len(blk) * elemBytes
		}
		p.Send(dst, tagConcat+round, have[:cnt:cnt], bytes)
		have = append(have, p.Recv(src, tagConcat+round).([][]T)...)
	})
	out := make([][]T, size)
	for i, blk := range have {
		out[(p.ID()+i)%size] = blk
	}
	return out
}

// flatRun is a contiguous run of rank-order blocks already flattened
// into one slice, the payload of the gather tree.
type flatRun[T any] struct {
	data []T
}

// GatherFlatInto gathers variable-length slices on processor 0 and
// concatenates them in rank order, over a binomial tree: O(tau log p +
// mu * total). Every processor passes its own reusable buffer (dst may
// be nil), interior tree nodes flatten their subtree into it, and the
// root's buffer carries the final concatenation. It returns the
// gathered slice (nil on non-roots) and the possibly grown buffer,
// which the caller should retain for the next call.
func GatherFlatInto[T any](p *machine.Proc, vals []T, elemBytes int, dst []T) (out, buf []T) {
	size := p.Procs()
	me := p.ID()
	buf = append(dst[:0], vals...)
	bufBytes := len(vals) * elemBytes
	for mask := 1; mask < size; mask <<= 1 {
		if me&mask == 0 {
			if src := me + mask; src < size {
				in := p.Recv(src, tagGather+mask).(flatRun[T])
				buf = append(buf, in.data...)
				bufBytes += len(in.data) * elemBytes
			}
		} else {
			p.Send(me-mask, tagGather+mask, flatRun[T]{buf}, bufBytes)
			return nil, buf
		}
	}
	return buf, buf
}

// TransportScratch holds one processor's reusable Transport buffers. A
// zero value is ready; buffers grow on demand.
type TransportScratch[T any] struct {
	counts    []int64
	concat    []int64
	in        [][]T
	inOrdered []bool // every block goes as unknown; kept only for reuse
}

// Transport is the transportation primitive: many-to-many personalized
// communication with possibly high variance in message sizes. out[j] holds
// the elements destined for processor j (out[me] is delivered locally).
// The result is indexed by source processor and is a view into scr, valid
// until the next call that reuses it. Counts are exchanged first with a
// Global Concatenate; use TransportKnown when receivers already know
// their incoming counts (the load balancers do).
func Transport[T any](p *machine.Proc, out [][]T, elemBytes int, scr *TransportScratch[T]) [][]T {
	size := p.Procs()
	if len(out) != size {
		panic("comm: Transport requires exactly one out slice per processor")
	}
	counts := scr.counts
	if cap(counts) < size {
		counts = make([]int64, size)
	}
	counts = counts[:size]
	for j, block := range out {
		counts[j] = int64(len(block))
	}
	all, concat := GlobalConcatInt64Flat(p, counts, scr.concat)
	for src := range counts {
		counts[src] = all[src*size+p.ID()]
	}
	in, inOrdered := TransportKnown(p, out, false, counts, elemBytes, scr.in, scr.inOrdered)
	scr.counts, scr.concat, scr.in, scr.inOrdered = counts, concat, in, inOrdered
	return in
}

// orderedBlock is one TransportKnown message: a block and its sender's
// order bit. The message is priced at the block's bytes alone.
type orderedBlock[T any] struct {
	keys    []T
	ordered bool
}

// TransportKnown performs the transportation primitive when every receiver
// already knows how many elements arrive from each source (inCounts[src]).
// Only non-empty messages are sent. Communication is scheduled pairwise
// (step k exchanges with ranks me±k) to avoid hot spots, giving the
// ~2*mu*t behaviour the paper cites for bounded in/out traffic t. The p
// incoming block headers are returned in in, grown as needed (in may be
// nil).
//
// ordered is one bit the sender attaches to each of its blocks: for the
// load balancers, that the block is known to be ascending (false means
// unknown). It travels with the block unpriced, so messages, bytes and
// simulated time do not depend on it, and inOrdered[src] (grown like in;
// false for an empty block) reports the bit of the block from src.
func TransportKnown[T any](p *machine.Proc, out [][]T, ordered bool, inCounts []int64, elemBytes int, in [][]T, inOrdered []bool) ([][]T, []bool) {
	size := p.Procs()
	me := p.ID()
	if len(out) != size || len(inCounts) != size {
		panic("comm: TransportKnown requires p outgoing blocks and p incoming counts")
	}
	if cap(in) < size {
		in = make([][]T, size)
	}
	if cap(inOrdered) < size {
		inOrdered = make([]bool, size)
	}
	in, inOrdered = in[:size], inOrdered[:size]
	for i := range in {
		in[i], inOrdered[i] = nil, false
	}
	if len(out[me]) > 0 {
		in[me], inOrdered[me] = out[me], ordered
	}
	for k := 1; k < size; k++ {
		dst := (me + k) % size
		src := (me - k + size) % size
		if len(out[dst]) > 0 {
			p.Send(dst, tagTransport+k, orderedBlock[T]{out[dst], ordered}, len(out[dst])*elemBytes)
		}
		if inCounts[src] > 0 {
			blk := p.Recv(src, tagTransport+k).(orderedBlock[T])
			if int64(len(blk.keys)) != inCounts[src] {
				panic("comm: TransportKnown received unexpected element count")
			}
			in[src], inOrdered[src] = blk.keys, blk.ordered
		}
	}
	return in, inOrdered
}
