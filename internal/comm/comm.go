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
// The parallel prefix exists as an int64 sum (PrefixSumInt64), the only
// form the algorithms use; Gather and Global Concatenate come in
// variable-length (Gatherv, GatherFlat, GlobalConcatv) and int64
// (GlobalConcatInt64) forms.
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
	tagCounts    = 8 << 20
)

// Broadcast distributes the root's value to every processor and returns it.
// bytes is the on-the-wire size of the value.
func Broadcast[T any](p *machine.Proc, root int, val T, bytes int) T {
	size := p.Procs()
	if size == 1 {
		return val
	}
	rel := relRank(p.ID(), root, size)
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := absRank(rel-mask, root, size)
			val = p.Recv(src, tagBroadcast+mask).(T)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel&(mask-1) == 0 && rel&mask == 0 && rel+mask < size {
			dst := absRank(rel+mask, root, size)
			p.Send(dst, tagBroadcast+mask, val, bytes)
		}
	}
	return val
}

// BroadcastSlice distributes the root's slice to every processor. Non-root
// inputs are ignored. The returned slice must not be mutated by receivers
// that share memory with the root in-process; callers that need ownership
// should copy.
func BroadcastSlice[T any](p *machine.Proc, root int, vals []T, elemBytes int) []T {
	size := p.Procs()
	if size == 1 {
		return vals
	}
	rel := relRank(p.ID(), root, size)
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := absRank(rel-mask, root, size)
			vals = p.Recv(src, tagBroadcast+mask).([]T)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel&(mask-1) == 0 && rel&mask == 0 && rel+mask < size {
			dst := absRank(rel+mask, root, size)
			p.Send(dst, tagBroadcast+mask, vals, len(vals)*elemBytes)
		}
	}
	return vals
}

// Reduce combines one value per processor with a commutative, associative
// op and leaves the result on root. The second return is true only on root.
func Reduce[T any](p *machine.Proc, root int, val T, bytes int, op func(T, T) T) (T, bool) {
	size := p.Procs()
	if size == 1 {
		return val, true
	}
	rel := relRank(p.ID(), root, size)
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < size {
				src := absRank(srcRel, root, size)
				other := p.Recv(src, tagReduce+mask).(T)
				val = op(val, other)
			}
		} else {
			dst := absRank(rel&^mask, root, size)
			p.Send(dst, tagReduce+mask, val, bytes)
			var zero T
			return zero, false
		}
	}
	return val, true
}

// Combine is the paper's Combine primitive: an all-reduce. Every processor
// contributes val and receives op applied across all contributions.
func Combine[T any](p *machine.Proc, val T, bytes int, op func(T, T) T) T {
	res, ok := Reduce(p, 0, val, bytes, op)
	if p.Procs() == 1 {
		return res
	}
	if !ok {
		var zero T
		res = zero
	}
	return Broadcast(p, 0, res, bytes)
}

// gatherBlock is a contiguous run of per-processor slices in relative-rank
// order, used internally by the binomial gather tree.
type gatherBlock[T any] struct {
	start int // relative rank of the first slice
	parts [][]T
}

// Gatherv collects a variable-length slice from every processor on root.
// On root the result has one entry per processor (indexed by absolute
// rank); on other processors it is nil. Cost O(tau log p + mu * total).
func Gatherv[T any](p *machine.Proc, root int, vals []T, elemBytes int) [][]T {
	size := p.Procs()
	if size == 1 {
		return [][]T{vals}
	}
	me := p.ID()
	rel := relRank(me, root, size)
	block := gatherBlock[T]{start: rel, parts: [][]T{vals}}
	blockBytes := len(vals) * elemBytes
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask == 0 {
			srcRel := rel + mask
			if srcRel < size {
				src := absRank(srcRel, root, size)
				in := p.Recv(src, tagGather+mask).(gatherBlock[T])
				block.parts = append(block.parts, in.parts...)
				for _, part := range in.parts {
					blockBytes += len(part) * elemBytes
				}
			}
		} else {
			dst := absRank(rel-mask, root, size)
			p.Send(dst, tagGather+mask, block, blockBytes)
			return nil
		}
	}
	// Root: block.parts[i] is the slice of relative rank i; unrotate.
	out := make([][]T, size)
	for i, part := range block.parts {
		out[(i+root)%size] = part
	}
	return out
}

// GatherFlat gathers variable-length slices on root and concatenates them
// in absolute-rank order. Non-roots receive nil.
func GatherFlat[T any](p *machine.Proc, root int, vals []T, elemBytes int) []T {
	parts := Gatherv(p, root, vals, elemBytes)
	if parts == nil {
		return nil
	}
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	out := make([]T, 0, total)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// flatRun is a contiguous run of relative-rank blocks already flattened
// into one slice, the payload of the allocation-light gather tree.
type flatRun[T any] struct {
	data []T
}

// GatherFlatInto is GatherFlat with caller-provided storage: every
// processor passes its own reusable buffer (dst may be nil), interior tree
// nodes flatten their subtree into it, and the root's buffer carries the
// final concatenation. It returns the gathered slice (nil on non-roots)
// and the possibly grown buffer, which the caller should retain for the
// next call. Tree shape, tags and byte counts are identical to GatherFlat;
// only host-side allocation differs. Requires root 0 (all hot callers
// gather on processor 0); other roots fall back to GatherFlat.
func GatherFlatInto[T any](p *machine.Proc, root int, vals []T, elemBytes int, dst []T) (out, buf []T) {
	size := p.Procs()
	if root != 0 {
		// The flat representation loses per-processor boundaries, which
		// the rank rotation of a non-zero root would need.
		flat := GatherFlat(p, root, vals, elemBytes)
		if flat == nil {
			return nil, dst
		}
		buf = append(dst[:0], flat...)
		return buf, buf
	}
	if size == 1 {
		buf = append(dst[:0], vals...)
		return buf, buf
	}
	rel := p.ID()
	buf = append(dst[:0], vals...)
	bufBytes := len(vals) * elemBytes
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask == 0 {
			srcRel := rel + mask
			if srcRel < size {
				in := p.Recv(srcRel, tagGather+mask).(flatRun[T])
				buf = append(buf, in.data...)
				bufBytes += len(in.data) * elemBytes
			}
		} else {
			p.Send(rel-mask, tagGather+mask, flatRun[T]{buf}, bufBytes)
			return nil, buf
		}
	}
	return buf, buf
}

// GlobalConcatv is the paper's Global Concatenate for variable-length
// slices: every processor receives all p slices, indexed by absolute rank.
// Implemented with the Bruck all-gather: ceil(log2 p) rounds, total data
// moved per processor O(sum of slice sizes), so O(tau log p + mu p m).
func GlobalConcatv[T any](p *machine.Proc, vals []T, elemBytes int) [][]T {
	size := p.Procs()
	if size == 1 {
		return [][]T{vals}
	}
	me := p.ID()
	// have[i] holds the slice of processor (me+i) mod size.
	have := make([][]T, 1, size)
	have[0] = vals
	for pow, round := 1, 0; pow < size; pow, round = pow<<1, round+1 {
		cnt := pow
		if size-pow < cnt {
			cnt = size - pow
		}
		dst := (me - pow + size) % size
		src := (me + pow) % size
		bytes := 0
		for _, blk := range have[:cnt] {
			bytes += len(blk) * elemBytes
		}
		p.Send(dst, tagConcat+round, have[:cnt:cnt], bytes)
		in := p.Recv(src, tagConcat+round).([][]T)
		have = append(have, in...)
	}
	out := make([][]T, size)
	for i := 0; i < size; i++ {
		out[(me+i)%size] = have[i]
	}
	return out
}

// Transport is the transportation primitive: many-to-many personalized
// communication with possibly high variance in message sizes. out[j] holds
// the elements destined for processor j (out[me] is delivered locally).
// The result is indexed by source processor. Counts are exchanged first
// with a Global Concatenate; use TransportKnown when receivers already
// know their incoming counts (the load balancers do).
func Transport[T any](p *machine.Proc, out [][]T, elemBytes int) [][]T {
	size := p.Procs()
	if len(out) != size {
		panic("comm: Transport requires exactly one out slice per processor")
	}
	myCounts := make([]int64, size)
	for j, block := range out {
		myCounts[j] = int64(len(block))
	}
	all, _ := GlobalConcatInt64Flat(p, myCounts, nil)
	inCounts := myCounts
	for src := 0; src < size; src++ {
		inCounts[src] = all[src*size+p.ID()]
	}
	return TransportKnown(p, out, inCounts, elemBytes)
}

// TransportKnown performs the transportation primitive when every receiver
// already knows how many elements arrive from each source (inCounts[src]).
// Only non-empty messages are sent. Communication is scheduled pairwise
// (step k exchanges with ranks me±k) to avoid hot spots, giving the
// ~2*mu*t behaviour the paper cites for bounded in/out traffic t.
func TransportKnown[T any](p *machine.Proc, out [][]T, inCounts []int64, elemBytes int) [][]T {
	return TransportKnownInto(p, out, inCounts, elemBytes, nil)
}

// TransportKnownInto is TransportKnown with a caller-provided result
// buffer for the p incoming block headers (grown as needed).
func TransportKnownInto[T any](p *machine.Proc, out [][]T, inCounts []int64, elemBytes int, in [][]T) [][]T {
	size := p.Procs()
	me := p.ID()
	if len(out) != size || len(inCounts) != size {
		panic("comm: TransportKnown requires p outgoing blocks and p incoming counts")
	}
	if cap(in) < size {
		in = make([][]T, size)
	}
	in = in[:size]
	for i := range in {
		in[i] = nil
	}
	if len(out[me]) > 0 {
		in[me] = out[me]
	}
	for k := 1; k < size; k++ {
		dst := (me + k) % size
		src := (me - k + size) % size
		if len(out[dst]) > 0 {
			p.Send(dst, tagTransport+k, out[dst], len(out[dst])*elemBytes)
		}
		if inCounts[src] > 0 {
			blk := p.Recv(src, tagTransport+k).([]T)
			if int64(len(blk)) != inCounts[src] {
				panic("comm: TransportKnown received unexpected element count")
			}
			in[src] = blk
		}
	}
	return in
}

// relRank maps an absolute rank to its rank relative to root.
func relRank(id, root, size int) int { return (id - root + size) % size }

// absRank maps a root-relative rank back to an absolute rank.
func absRank(rel, root, size int) int { return (rel + root) % size }
