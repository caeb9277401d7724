// Package machine simulates a coarse-grained distributed-memory parallel
// computer of the kind the paper targets (CM-5, SP-2, Paragon, T3D): p
// relatively powerful processors connected by an interconnection network
// that behaves like a virtual crossbar.
//
// Each simulated processor runs the same SPMD program as a coroutine.
// Point-to-point messages travel over plain FIFO links, one per ordered
// processor pair: a send appends and never blocks, and a receive from an
// empty link yields until a peer has sent. Run drives the coroutines on
// the caller's goroutine in an order fixed by processor ids and link
// contents, so one run uses one host thread and many runs on separate
// machines run in parallel. Every processor carries a simulated clock
// advanced according to the paper's two-level model of computation:
//
//   - sending a message of b bytes costs tau + mu*b on the sender,
//   - the message arrives at the sender's post-send time, and the receiver
//     pays a further mu*b to drain it off its node interface,
//   - local computation costs ops*cyclesPerOp/clockHz, where ops are
//     operation counts reported by the sequential kernels.
//
// Simulated time is deterministic for a fixed seed and processor count,
// independent of the host machine and of how the host moves a message,
// which is what lets a laptop reproduce the shape of 128-processor CM-5
// curves.
//
// Two contracts follow from the cooperative design. SPMD bodies must not
// synchronise with each other except through the fabric: a processor
// blocked on anything else blocks the whole run. And the processors of
// one run never execute at the same instant, so the race detector cannot
// see one processor touching memory another still owns (payloads are
// passed by reference); the zero-copy aliasing tests are the guard for
// that (TestBorrowedShards* in package parsel, TestFastRandomizedBorrowed*
// in internal/selection).
package machine

import (
	"fmt"
	"iter"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync/atomic"
)

// WordBytes is the size of one data element (int64 keys) on the wire.
const WordBytes = 8

// The CM-5 prices of the paper's two-level model (§2.1–2.2), the same on
// every machine.
const (
	// Tau is the communication start-up overhead in seconds (the
	// paper's tau). CM-5 CMMD start-up is on the order of 100 us.
	Tau = 100e-6
	// Mu is the inverse data-transfer rate in seconds per byte (the
	// paper's mu = 1/rate). CM-5 per-node bandwidth is ~8 MB/s.
	Mu = 0.125e-6
	// SecPerOp is the simulated cost of one element-level operation
	// (comparison, move, arithmetic step) as counted by the sequential
	// kernels: ~10 cycles per counted op on a 33 MHz SPARC. Selection
	// kernels stream multi-hundred-KB working sets that do not fit the
	// node cache, so loads dominate.
	SecPerOp = 10.0 / 33e6
)

// Params describes the simulated machine. The zero value is not useful;
// use DefaultParams or fill in Procs and Seed.
type Params struct {
	// Procs is the number of simulated processors (p >= 1).
	Procs int
	// Seed feeds all deterministic random streams on the machine.
	Seed uint64
	// Topology prices messages with a per-hop latency on top of the
	// two-level model: cost = Tau + PerHopSec*(hops-1) + Mu*bytes. The
	// zero value (Crossbar) is the paper's distance-independent model.
	Topology Topology
	// PerHopSec is the extra latency per hop beyond the first. Zero
	// with a non-crossbar topology defaults to Tau/20, a
	// wormhole-routing-like small per-hop cost.
	PerHopSec float64
}

// DefaultParams returns a p-processor crossbar machine with seed 1.
func DefaultParams(p int) Params {
	return Params{Procs: p, Seed: 1}
}

// Validate reports whether the parameters describe a runnable machine.
func (pr Params) Validate() error {
	switch {
	case pr.Procs < 1:
		return fmt.Errorf("machine: Procs must be >= 1, got %d", pr.Procs)
	case pr.PerHopSec < 0:
		return fmt.Errorf("machine: PerHopSec must be >= 0, got %g", pr.PerHopSec)
	case pr.Topology < Crossbar || pr.Topology > Ring:
		return fmt.Errorf("machine: unknown topology %d", int(pr.Topology))
	}
	return nil
}

// hopCost returns the extra latency of a message from src to dst beyond
// the first hop.
func (pr Params) hopCost(src, dst int) float64 {
	if pr.Topology == Crossbar {
		return 0
	}
	h := pr.Topology.Hops(src, dst, pr.Procs)
	if h <= 1 {
		return 0
	}
	return pr.PerHop() * float64(h-1)
}

// PerHop returns the per-hop latency non-crossbar topologies charge:
// PerHopSec, or Tau/20 when it is zero.
func (pr Params) PerHop() float64 {
	if pr.PerHopSec == 0 {
		return Tau / 20
	}
	return pr.PerHopSec
}

// message is a point-to-point payload with simulated arrival time. Small
// integer payloads travel in the inline i64 array and int64 slices in the
// typed i64s field, so the hot collectives (counts, prefix sums, tallies)
// never box values into the payload interface.
type message struct {
	tag     int
	payload any
	i64     [2]int64
	i64s    []int64
	bytes   int
	arrive  float64 // simulated time at which the message is available
}

// link is the FIFO queue of one ordered processor pair. Sends append and
// never block; receives pop from head. The backing array is kept across
// runs, so a warm machine moves messages without allocating.
type link struct {
	q    []message
	head int
}

// pop dequeues the oldest message. The slot is cleared so a drained link
// keeps no payload alive, and an emptied link rewinds to reuse its array.
func (l *link) pop() message {
	msg := l.q[l.head]
	l.q[l.head] = message{}
	l.head++
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	return msg
}

// poison is the panic value with which a blocked receive unwinds when its
// run has failed elsewhere (see Machine.abort).
type poison struct{}

// fiber is one processor's persistent coroutine. Between runs it is parked
// at the end of its loop holding no job, so it keeps nothing of the
// machine reachable and a runtime cleanup can stop it once the machine
// is dropped.
type fiber struct {
	id    int
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// The current run's job; nil between runs.
	proc *Proc
	body func(*Proc)
	// wait is the link the processor is blocked on; nil while runnable.
	wait *link

	done     bool
	panicVal any  // the body's panic, if it failed
	exited   bool // the body called runtime.Goexit, ending the coroutine
}

// newFiber parks a fresh coroutine for processor id, ready for its first
// job.
func newFiber(id int) *fiber {
	f := &fiber{id: id}
	f.next, f.stop = iter.Pull(f.loop)
	return f
}

// loop is the coroutine body: run the current job, then yield to the
// driver until the next run resumes it. It returns when the coroutine is
// stopped.
func (f *fiber) loop(yield func(struct{}) bool) {
	f.yield = yield
	for {
		f.runJob()
		if !yield(struct{}{}) {
			return
		}
	}
}

// runJob runs the body to completion, trapping its panic, and drops the
// job so an idle fiber references nothing of the machine.
func (f *fiber) runJob() {
	returned := false
	defer func() {
		r := recover()
		if _, unwound := r.(poison); r != nil && !unwound {
			f.panicVal = r
		}
		f.exited = r == nil && !returned
		f.proc, f.body, f.wait, f.done = nil, nil, nil, true
	}()
	f.body(f.proc)
	returned = true
}

// fibers is the set of a machine's coroutines. It is a separate allocation
// holding no reference back to the Machine, so a runtime cleanup can stop
// the coroutines once the machine itself becomes unreachable (callers that
// forget Close do not leak goroutines).
type fibers []*fiber

// shutdown stops every coroutine; it is idempotent.
func (fs fibers) shutdown() {
	for _, f := range fs {
		f.stop()
	}
}

// Machine owns the simulated fabric: one FIFO link per ordered processor
// pair and one persistent coroutine per processor. Run drives the
// coroutines on the caller's goroutine, so one run uses one host thread;
// concurrent runs on separate machines run in parallel. Constructing a
// Machine once and calling Run repeatedly amortizes the fabric, the
// coroutines and (through Proc.Scratch) all per-processor scratch memory
// across calls.
type Machine struct {
	params Params
	// links[src*p+dst] carries messages from src to dst in FIFO order,
	// which models the virtual crossbar: one dedicated, uncongested
	// link per ordered processor pair.
	links   []link
	procs   []*Proc
	fibers  fibers
	cleanup runtime.Cleanup
	// poisoned is set while a failed run unwinds its blocked processors.
	poisoned bool
	closed   bool
	// running asserts single-flight ownership: a machine serves one Run
	// at a time, and a second concurrent Run is reported as an error
	// instead of corrupting the fabric.
	running atomic.Bool
}

// New allocates the fabric for a machine with the given parameters and
// parks one coroutine per processor. Call Close when done with the
// machine; a runtime cleanup stops the coroutines of machines that are
// dropped without Close.
func New(params Params) (*Machine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	p := params.Procs
	m := &Machine{
		params: params,
		links:  make([]link, p*p),
		procs:  make([]*Proc, p),
		fibers: make(fibers, p),
	}
	seed := params.Seed
	for id := 0; id < p; id++ {
		m.fibers[id] = newFiber(id)
		m.procs[id] = &Proc{
			m:         m,
			f:         m.fibers[id],
			id:        id,
			p:         p,
			sharedSrc: rand.NewPCG(seed, sharedStream),
			localSrc:  rand.NewPCG(seed, uint64(id)+1),
		}
		// Shared stream: identical on every processor (same seed), used
		// where the paper requires all processors to draw the same
		// random number (Alg. 3 step 2). Local stream: unique per
		// processor, used for local sampling (Alg. 4 step 1).
		m.procs[id].Shared = rand.New(m.procs[id].sharedSrc)
		m.procs[id].Local = rand.New(m.procs[id].localSrc)
	}
	m.cleanup = runtime.AddCleanup(m, fibers.shutdown, m.fibers)
	return m, nil
}

// sharedStream is the PCG stream selector of the machine-wide shared RNG.
const sharedStream = 0x9e3779b97f4a7c15

// Params returns the machine's parameters.
func (m *Machine) Params() Params { return m.params }

// Close stops the machine's coroutines. The machine must not be used
// after Close, nor closed while a Run is in flight. Closing is optional —
// unreachable machines are cleaned up by the runtime — but deterministic
// release is cheaper.
func (m *Machine) Close() {
	m.closed = true
	// Stopping the cleanup first makes this the coroutines' only stop.
	m.cleanup.Stop()
	m.fibers.shutdown()
}

// Run executes body as an SPMD program on a fresh machine, one simulated
// processor per coroutine, each receiving its own *Proc. Run returns once
// every processor has finished. It returns the maximum simulated
// completion time across processors, which corresponds to the parallel
// running time the paper reports.
func Run(params Params, body func(*Proc)) (simSeconds float64, err error) {
	m, err := New(params)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	return m.Run(body)
}

// Run executes body on each simulated processor of m and returns the
// maximum simulated completion time. The processors run as coroutines on
// the calling goroutine: Run resumes each in processor order until it
// finishes or blocks on an empty link, and repeats until all have
// finished. The order depends only on processor ids and link contents,
// never on host scheduling. Bodies must therefore not synchronise with
// each other except through the fabric: a processor blocked on anything
// else blocks the whole run.
//
// A processor's panic, or a pass in which every unfinished processor is
// blocked (a deadlock), fails the run: the blocked processors unwind, the
// links are emptied, and Run returns the error. A machine may be reused
// for multiple consecutive runs, failed or not, but not concurrently.
// Each run starts from a pristine simulated state: clocks at zero,
// counters cleared, and random streams re-seeded, so repeated runs are
// bit-identical to one-shot runs.
func (m *Machine) Run(body func(*Proc)) (simSeconds float64, err error) {
	if !m.running.CompareAndSwap(false, true) {
		return 0, fmt.Errorf("machine: concurrent Run on one machine")
	}
	defer m.running.Store(false)
	if m.closed {
		return 0, fmt.Errorf("machine: Run on closed machine")
	}
	for id, proc := range m.procs {
		proc.reset(m.params.Seed)
		f := m.fibers[id]
		f.proc, f.body, f.done, f.panicVal = proc, body, false, nil
	}
	// Every way out but a clean finish unwinds the run, including a
	// processor's runtime.Goexit, which ends its coroutine and makes the
	// driver's goroutine exit with it.
	clean := false
	defer func() {
		if !clean {
			m.abort()
		}
	}()
	if err := m.drive(); err != nil {
		return 0, err
	}
	// Cheap reset audit: a clean SPMD run matches every send with a
	// receive, so residual messages in the fabric mean a protocol bug
	// (mismatched tags or counts) that would corrupt the next run.
	if left := m.residualMessages(); left > 0 {
		return 0, fmt.Errorf("machine: %d residual message(s) left in the fabric after a run", left)
	}
	clean = true
	var max float64
	for _, proc := range m.procs {
		if proc.now > max {
			max = proc.now
		}
	}
	return max, nil
}

// drive resumes the processors in id order, skipping finished ones and
// those blocked on a still-empty link, until every processor has
// finished, one has panicked, or a whole pass makes no progress.
func (m *Machine) drive() error {
	live := len(m.fibers)
	for live > 0 {
		progressed := false
		for _, f := range m.fibers {
			if f.done || f.wait != nil && f.wait.head == len(f.wait.q) {
				continue
			}
			f.wait = nil
			f.next()
			progressed = true
			if f.done {
				if f.panicVal != nil {
					return fmt.Errorf("machine: processor %d panicked: %v", f.id, f.panicVal)
				}
				live--
			}
		}
		if !progressed {
			return m.deadlock()
		}
	}
	return nil
}

// deadlock describes a pass in which every unfinished processor waits on
// an empty link.
func (m *Machine) deadlock() error {
	var waits []string
	for _, f := range m.fibers {
		for i := range m.links {
			if !f.done && f.wait == &m.links[i] {
				waits = append(waits, fmt.Sprintf("%d<-%d", f.id, i/m.params.Procs))
			}
		}
	}
	return fmt.Errorf("machine: deadlock: every unfinished processor waits on an empty link (receiver<-sender: %s)",
		strings.Join(waits, " "))
}

// abort unwinds a failed run: each blocked processor is resumed once, and
// its receive panics with poison, running the body's deferred calls.
// Processors the run never started are dropped, the links are emptied,
// and a coroutine that ended through runtime.Goexit is replaced, so the
// machine is ready for the next run.
func (m *Machine) abort() {
	m.poisoned = true
	for id, f := range m.fibers {
		switch {
		case f.exited:
			f.stop()
			m.fibers[id] = newFiber(id)
			m.procs[id].f = m.fibers[id]
		case !f.done && f.wait != nil:
			f.next()
		}
		f.proc, f.body, f.wait = nil, nil, nil
	}
	m.poisoned = false
	for i := range m.links {
		l := &m.links[i]
		clear(l.q)
		l.q, l.head = l.q[:0], 0
	}
}

// residualMessages counts messages still queued in the links.
func (m *Machine) residualMessages() int {
	left := 0
	for i := range m.links {
		left += len(m.links[i].q) - m.links[i].head
	}
	return left
}

// Proc is a simulated processor's view of the machine: its identity, its
// clock, its random streams, and its communication endpoints. All methods
// are for use only by that processor's SPMD body.
type Proc struct {
	m  *Machine
	f  *fiber
	id int
	p  int

	now float64 // simulated clock, seconds

	// Shared draws the same sequence on every processor (common seed);
	// Local draws an independent per-processor sequence.
	Shared *rand.Rand
	Local  *rand.Rand

	// Counters accumulates message/byte/op statistics for reporting.
	Counters Counters

	// Scratch is an arbitrary per-processor scratch slot that survives
	// across runs of a reused machine. Higher layers park reusable
	// buffers (arenas) here so repeated runs allocate nothing; the
	// machine itself never touches it beyond keeping it alive.
	Scratch any

	// sharedSrc and localSrc are the retained RNG sources, re-seeded on
	// every run so reused machines replay the exact random streams of a
	// fresh one.
	sharedSrc *rand.PCG
	localSrc  *rand.PCG
}

// reset returns the processor to its pristine pre-run state. Scratch is
// deliberately preserved: it holds cross-run arenas.
func (p *Proc) reset(seed uint64) {
	p.now = 0
	p.Counters = Counters{}
	p.sharedSrc.Seed(seed, sharedStream)
	p.localSrc.Seed(seed, uint64(p.id)+1)
}

// State is a checkpoint of a processor's simulated state: its clock, its
// counters and the positions of both random streams. It holds no
// payload and no fabric state, so it is meaningful only at a point of
// the SPMD program where every message sent so far has been received.
type State struct {
	Now      float64
	Counters Counters
	shared   rand.PCG
	local    rand.PCG
}

// State returns a checkpoint of the processor's simulated state.
func (p *Proc) State() State {
	return State{Now: p.now, Counters: p.Counters, shared: *p.sharedSrc, local: *p.localSrc}
}

// SetState restores a checkpoint taken by State, on this or any
// processor of the same id and machine parameters: the clock, the
// counters and both random streams continue exactly as they did after
// the checkpoint. The caller skips the work between the checkpoint's
// start of run and its capture point on every processor, so every
// message of the skipped part is also skipped.
func (p *Proc) SetState(s State) {
	p.now, p.Counters = s.Now, s.Counters
	*p.sharedSrc, *p.localSrc = s.shared, s.local
}

// Counters records communication and computation volume on one processor.
type Counters struct {
	MsgsSent      int64
	BytesSent     int64
	MsgsReceived  int64
	BytesReceived int64
	Ops           int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.MsgsSent += other.MsgsSent
	c.BytesSent += other.BytesSent
	c.MsgsReceived += other.MsgsReceived
	c.BytesReceived += other.BytesReceived
	c.Ops += other.Ops
}

// ID returns the processor's rank in [0, Procs).
func (p *Proc) ID() int { return p.id }

// Procs returns the machine size.
func (p *Proc) Procs() int { return p.p }

// Params returns the machine parameters.
func (p *Proc) Params() Params { return p.m.params }

// Now returns the processor's current simulated time in seconds.
func (p *Proc) Now() float64 { return p.now }

// AdvanceTo moves the clock forward to t (no-op if t is in the past).
func (p *Proc) AdvanceTo(t float64) {
	if t > p.now {
		p.now = t
	}
}

// Charge advances the clock by the cost of ops counted element operations.
func (p *Proc) Charge(ops int64) {
	if ops < 0 {
		panic(fmt.Sprintf("machine: negative op charge %d", ops))
	}
	p.Counters.Ops += ops
	p.now += float64(ops) * SecPerOp
}

// post prices an outgoing message (tau + mu*bytes for remote sends,
// nothing for self-sends), stamps its arrival time, and enqueues it.
func (p *Proc) post(dst int, msg message) {
	if dst < 0 || dst >= p.p {
		panic(fmt.Sprintf("machine: Send to invalid processor %d of %d", dst, p.p))
	}
	if msg.bytes < 0 {
		panic(fmt.Sprintf("machine: Send with negative byte count %d", msg.bytes))
	}
	if dst != p.id {
		p.now += Tau + p.m.params.hopCost(p.id, dst) + Mu*float64(msg.bytes)
		p.Counters.MsgsSent++
		p.Counters.BytesSent += int64(msg.bytes)
	}
	msg.arrive = p.now
	l := &p.m.links[p.id*p.p+dst]
	l.q = append(l.q, msg)
}

// take dequeues the next message from src, checks its tag, and advances
// the receiver's clock to the arrival time plus the mu*bytes drain cost.
// While the link is empty it yields to the driver; it unwinds with poison
// if the run fails meanwhile.
func (p *Proc) take(src, tag int) message {
	if src < 0 || src >= p.p {
		panic(fmt.Sprintf("machine: Recv from invalid processor %d of %d", src, p.p))
	}
	l := &p.m.links[src*p.p+p.id]
	for l.head == len(l.q) {
		p.f.wait = l
		if !p.f.yield(struct{}{}) || p.m.poisoned {
			panic(poison{})
		}
	}
	msg := l.pop()
	if msg.tag != tag {
		panic(fmt.Sprintf("machine: processor %d expected tag %d from %d, got %d",
			p.id, tag, src, msg.tag))
	}
	if src != p.id {
		p.AdvanceTo(msg.arrive)
		p.now += Mu * float64(msg.bytes)
		p.Counters.MsgsReceived++
		p.Counters.BytesReceived += int64(msg.bytes)
	}
	return msg
}

// Send transmits payload (bytes long on the wire) to processor dst with the
// given tag. Per the two-level model the sender pays tau + mu*bytes; the
// message becomes available to dst at the sender's post-send clock.
// Sending to self is allowed and costs nothing (local move is charged by
// the caller as computation, as the paper's analysis does).
func (p *Proc) Send(dst, tag int, payload any, bytes int) {
	p.post(dst, message{tag: tag, payload: payload, bytes: bytes})
}

// Recv blocks until the next message from src arrives, checks its tag, and
// returns the payload. The receiver's clock advances to the message arrival
// time plus the mu*bytes cost of draining it off the node interface.
func (p *Proc) Recv(src, tag int) any {
	return p.take(src, tag).payload
}

// SendInt64Pair transmits up to two int64 values without boxing them into
// an interface: the values ride inline in the message struct, so the send
// allocates nothing on the host. Pricing and counters are identical to
// Send with the same bytes.
func (p *Proc) SendInt64Pair(dst, tag int, a, b int64, bytes int) {
	p.post(dst, message{tag: tag, i64: [2]int64{a, b}, bytes: bytes})
}

// RecvInt64Pair receives a message sent with SendInt64Pair.
func (p *Proc) RecvInt64Pair(src, tag int) (int64, int64) {
	msg := p.take(src, tag)
	return msg.i64[0], msg.i64[1]
}

// SendInt64Slice transmits an int64 slice through the typed slice field of
// the message, avoiding the interface boxing of Send. The receiver sees
// the sender's backing array (as with Send of a slice); the usual SPMD
// synchronization rules make that safe.
func (p *Proc) SendInt64Slice(dst, tag int, v []int64, bytes int) {
	p.post(dst, message{tag: tag, i64s: v, bytes: bytes})
}

// RecvInt64Slice receives a message sent with SendInt64Slice.
func (p *Proc) RecvInt64Slice(src, tag int) []int64 {
	return p.take(src, tag).i64s
}
