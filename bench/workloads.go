package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/big"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"parsel"
	"parsel/internal/serve"
	"parsel/internal/snapshot"
	gen "parsel/internal/workload"
	"parsel/parselclient"
)

const (
	// procs is the simulated machine size of every dataset (the
	// parsel.Options default).
	procs = 8
	// machines bounds every pool and every HTTP transport: one machine
	// and one connection per client of the 2-client phase.
	machines = 2
	// checkQueries is the length of each repetition's untimed check
	// pass: its slice of the seeded query sequence, which sim_s prices.
	checkQueries = 64

	servePointN = 1 << 14
	rankSetsN   = 1 << 18
	sortedN     = 1 << 20
	ingestN     = 1 << 18
	// ingestSlots datasets are resident at once (the first half int64,
	// the second float64), replaced round-robin from ingestVersions
	// pre-generated versions.
	ingestSlots    = 4
	ingestVersions = 8
	// ingestEvery makes every ingest client's ops one upload in this
	// many.
	ingestEvery = 5
)

// workload is one named input set of the benchmark.
type workload struct {
	name, why string
	// n is the key count of each queried dataset.
	n int64
	// prepare builds the seeded inputs of reps repetitions and their
	// sort oracle; tmp is where on-disk state may live.
	prepare func(seed uint64, reps int, tmp string) (*inputs, error)
}

// workloads are the benchmark's workloads; later changes refer to them
// by name. Each stresses a different part of the program, so that an
// optimisation of one layer has a workload that exercises it and one
// that bypasses it.
var workloads = []*workload{
	{
		name:    "serve_point",
		why:     "smallest engine run behind parselclient JSON and loopback HTTP: fixed per-query costs dominate",
		n:       servePointN,
		prepare: prepareServePoint,
	},
	{
		name:    "rank_sets",
		why:     "in-process Quantiles: nearly all time in the multi-rank engine path; no serving layer, no balancing",
		n:       rankSetsN,
		prepare: prepareRankSets,
	},
	{
		name:    "sorted_select",
		why:     "the paper's worst-case sorted layout in process: scan kernels and load balancing dominate",
		n:       sortedN,
		prepare: prepareSortedSelect,
	},
	{
		name:    "ingest_mixed",
		why:     "binary-frame uploads with fsync'd snapshots mixed into selects: the write path and its cost to reads",
		n:       ingestN,
		prepare: prepareIngest,
	},
}

// inputs are one workload's seeded data and oracle, built once per run
// outside every timed and memory-measured region.
type inputs struct {
	// start builds a fresh program instance for repetition rep: the
	// span timed as setup_s. wrap, when non-nil, wraps the instance's
	// HTTP transport.
	start func(rep int, wrap func(http.RoundTripper) http.RoundTripper) (*instance, error)
	// cleanup, when non-nil, removes on-disk state when the run is over.
	cleanup func()
}

// instance is one program instance under test.
type instance struct {
	// query runs query i of the workload's seeded sequence and checks
	// the answer against the oracle.
	query func(ctx context.Context, i int) (parsel.Report, error)
	// upload runs upload u of the workload's sequence; nil for
	// workloads without a write path.
	upload func(ctx context.Context, u int) error
	// uploadBytes is the raw key size of one upload.
	uploadBytes int64
	// poolStats sums the checkout counters of the instance's pools.
	poolStats func() parsel.PoolStats
	// lb is the loopback daemon, nil in process.
	lb *loopback
	// client is the instance's parselclient, nil in process.
	client *parselclient.Client
	// snapshotTimings times the snapshot layer out of band on the
	// instance's dataset.
	snapshotTimings func() (encode, decode, restore time.Duration, err error)
	// stop tears the instance down once it is measured.
	stop func() error
}

// settle waits for the instance's background work (snapshot persists)
// to finish, so memory is measured at rest.
func (in *instance) settle() {
	if in.lb != nil {
		in.lb.srv.FlushSnapshots()
	}
}

// wrongAnswer is a query result that disagrees with the sort oracle.
type wrongAnswer struct {
	what      string
	got, want any
}

func (e *wrongAnswer) Error() string {
	return fmt.Sprintf("wrong answer: %s = %v, oracle says %v", e.what, e.got, e.want)
}

func check[K comparable](what string, got, want K) error {
	if got != want {
		return &wrongAnswer{what: what, got: got, want: want}
	}
	return nil
}

// mix is the SplitMix64 finalizer over (seed, i): query i of a seed is
// a pure function of both, so concurrent clients drawing indices from
// one counter still walk one deterministic sequence.
func mix(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i)*0xd1b54a32d192ed03
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// rankAt is the 1-based rank of query i: uniform over [1, n].
func rankAt(seed uint64, i int, n int64) int64 {
	return 1 + int64(mix(seed, i)%uint64(n))
}

// quantileRank is the oracle's rank for quantile q of n keys: the exact
// ceiling of q*n over rationals, clamped to [1, n].
func quantileRank(n int64, q float64) int64 {
	if q <= 0 {
		return 1
	}
	if q >= 1 {
		return n
	}
	r := new(big.Rat).SetFloat64(q)
	r.Mul(r, new(big.Rat).SetInt64(n))
	c, m := new(big.Int).QuoRem(r.Num(), r.Denom(), new(big.Int))
	if m.Sign() != 0 {
		c.Add(c, big.NewInt(1))
	}
	return min(max(c.Int64(), 1), n)
}

// sortedKeys is the sort oracle: every key of shards in ascending order.
func sortedKeys(shards [][]int64) []int64 {
	s := gen.Flatten(shards)
	slices.Sort(s)
	return s
}

func newPool[K cmp.Ordered]() (*parsel.Pool[K], error) {
	return parsel.NewPool[K](parsel.Options{}, parsel.PoolOptions{MaxMachines: machines})
}

// sumStats adds up the checkout counters of several pools.
func sumStats(pools ...func() parsel.PoolStats) func() parsel.PoolStats {
	return func() parsel.PoolStats {
		var t parsel.PoolStats
		for _, f := range pools {
			s := f()
			t.Creates += s.Creates
			t.Hits += s.Hits
			t.Reshapes += s.Reshapes
			t.Waits += s.Waits
		}
		return t
	}
}

// snapshotTimings times the snapshot layer on one dataset, out of band:
// encoding to io.Discard, decoding from memory, and adopting the
// decoded shards into the pool.
func snapshotTimings[K snapshot.FixedKey](pool *parsel.Pool[K], shards [][]K) (encode, decode, restore time.Duration, err error) {
	t := time.Now()
	if _, err = snapshot.WriteTo(io.Discard, snapshot.Header{}, shards); err != nil {
		return
	}
	encode = time.Since(t)
	buf := snapshot.Encode(snapshot.Header{}, shards)
	t = time.Now()
	dec, err := snapshot.NewStreamDecoder(bytes.NewReader(buf), int64(len(buf)))
	if err != nil {
		return
	}
	got, err := snapshot.ReadDataAs[K](dec)
	if err != nil {
		return
	}
	decode = time.Since(t)
	t = time.Now()
	ds, err := pool.RestoreDataset(got)
	if err != nil {
		return
	}
	restore = time.Since(t)
	ds.Close()
	return
}

// loopback is an in-process daemon on a loopback listener with the
// client transport that reaches it.
type loopback struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
	url  string
	tr   *http.Transport
	hc   *http.Client
}

func startLoopback(opts serve.Options, wrap func(http.RoundTripper) http.RoundTripper) (*loopback, error) {
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	lb := &loopback{
		srv:  srv,
		hs:   &http.Server{Handler: srv},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		tr:   &http.Transport{MaxIdleConnsPerHost: machines, MaxConnsPerHost: machines},
	}
	go func() {
		defer close(lb.done)
		_ = lb.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	var rt http.RoundTripper = lb.tr
	if wrap != nil {
		rt = wrap(rt)
	}
	lb.hc = &http.Client{Transport: rt}
	return lb, nil
}

// stop drains the daemon (persisting its snapshots, if any), closes the
// listener and its connections, and waits for the server to exit.
func (lb *loopback) stop() {
	lb.srv.Drain()
	_ = lb.hs.Close() // Serve's exit, awaited below, is the outcome that matters
	<-lb.done
	lb.tr.CloseIdleConnections()
	lb.srv.FlushSnapshots()
	lb.srv.Close()
}

// oracleSet is one generated dataset with its sort oracle.
type oracleSet struct {
	shards [][]int64
	sorted []int64
}

// randomSets draws one random dataset of n keys per repetition from the
// seed, so a run's medians average over datasets as well as over host
// states.
func randomSets(seed uint64, reps int, n int64) []oracleSet {
	sets := make([]oracleSet, reps)
	for r := range sets {
		shards := gen.Generate(gen.Random, n, procs, mix(seed, r))
		sets[r] = oracleSet{shards: shards, sorted: sortedKeys(shards)}
	}
	return sets
}

func prepareServePoint(seed uint64, reps int, _ string) (*inputs, error) {
	sets := randomSets(seed, reps, servePointN)
	start := func(rep int, wrap func(http.RoundTripper) http.RoundTripper) (*instance, error) {
		d := sets[rep]
		pool, err := newPool[int64]()
		if err != nil {
			return nil, err
		}
		lb, err := startLoopback(serve.Options{Pool: pool}, wrap)
		if err != nil {
			pool.Close()
			return nil, err
		}
		stop := func() error { lb.stop(); pool.Close(); return nil }
		client := parselclient.New(lb.url, parselclient.WithHTTPClient(lb.hc))
		rd := client.Dataset("serve_point")
		if _, err := rd.Upload(context.Background(), d.shards); err != nil {
			stop()
			return nil, err
		}
		if err := pool.Warm(procs, machines); err != nil {
			stop()
			return nil, err
		}
		return &instance{
			query: func(ctx context.Context, i int) (parsel.Report, error) {
				rank := rankAt(seed, i, servePointN)
				res, err := rd.Select(ctx, rank)
				if err != nil {
					return parsel.Report{}, err
				}
				return res.Report, check(fmt.Sprintf("select(%d)", rank), res.Value, d.sorted[rank-1])
			},
			poolStats: pool.Stats,
			lb:        lb,
			client:    client,
			snapshotTimings: func() (time.Duration, time.Duration, time.Duration, error) {
				return snapshotTimings(pool, d.shards)
			},
			stop: stop,
		}, nil
	}
	return &inputs{start: start}, nil
}

// The rank_sets queries alternate these two quantile sets, each shifted
// by a seeded amount of at most rankSetJitter, cycling through
// rankSetVariants shifted sets. The shifts make the check passes price
// distinct rank sets instead of two, so sim_s averages over the engine's
// behaviour rather than resting on two runs.
var rankSets = [2][]float64{
	{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
	{0.5, 0.9, 0.99, 0.999},
}

const (
	rankSetVariants = 1024
	rankSetJitter   = 0.001
)

// rankSetsPerRep datasets are resident in each rank_sets instance, and
// its queries cycle through them: the engine's cost on a rank set
// varies by about a tenth from one random dataset to the next, so sim_s
// must average over many datasets to be steady across seeds.
const rankSetsPerRep = 4

func prepareRankSets(seed uint64, reps int, _ string) (*inputs, error) {
	qs := make([][]float64, rankSetVariants)
	for j := range qs {
		shift := (float64(mix(seed, j)>>11)/(1<<53)*2 - 1) * rankSetJitter
		for _, q := range rankSets[j%2] {
			qs[j] = append(qs[j], min(max(q+shift, 0), 1))
		}
	}
	// want[d][j] answers rank set j on dataset d; the sorted copies are
	// dropped once the answers are known.
	shards := make([][][]int64, reps*rankSetsPerRep)
	want := make([][][]int64, len(shards))
	for d := range shards {
		shards[d] = gen.Generate(gen.Random, rankSetsN, procs, mix(seed, d))
		sorted := sortedKeys(shards[d])
		want[d] = make([][]int64, rankSetVariants)
		for j := range qs {
			for _, q := range qs[j] {
				want[d][j] = append(want[d][j], sorted[quantileRank(rankSetsN, q)-1])
			}
		}
	}
	return inProcess(rankSetsPerRep, shards, func(ctx context.Context, ds *parsel.Dataset[int64], d, i int) (parsel.Report, error) {
		j := i % rankSetVariants
		vals, report, err := ds.QuantilesContext(ctx, qs[j])
		if err != nil {
			return report, err
		}
		if len(vals) != len(want[d][j]) {
			return report, &wrongAnswer{what: "quantiles length", got: len(vals), want: len(want[d][j])}
		}
		for k := range vals {
			if err := check(fmt.Sprintf("quantile(%g)", qs[j][k]), vals[k], want[d][j][k]); err != nil {
				return report, err
			}
		}
		return report, nil
	}), nil
}

func prepareSortedSelect(seed uint64, reps int, _ string) (*inputs, error) {
	// The sorted layout is fixed by n and p, so every repetition shares
	// one dataset; the seed picks the ranks.
	sorted := gen.Generate(gen.Sorted, sortedN, procs, seed)
	oracle := sortedKeys(sorted)
	shards := make([][][]int64, reps)
	for r := range shards {
		shards[r] = sorted
	}
	return inProcess(1, shards, func(ctx context.Context, ds *parsel.Dataset[int64], _, i int) (parsel.Report, error) {
		rank := rankAt(seed, i, sortedN)
		res, err := ds.SelectContext(ctx, rank)
		if err != nil {
			return res.Report, err
		}
		return res.Report, check(fmt.Sprintf("select(%d)", rank), res.Value, oracle[rank-1])
	}), nil
}

// inProcess builds the inputs of a workload that queries resident
// Datasets in process: repetition r holds datasets [r*perRep,
// (r+1)*perRep) of shards, and its query i runs on the (i mod perRep)-th.
func inProcess(perRep int, shards [][][]int64, query func(ctx context.Context, ds *parsel.Dataset[int64], d, i int) (parsel.Report, error)) *inputs {
	start := func(rep int, _ func(http.RoundTripper) http.RoundTripper) (*instance, error) {
		pool, err := newPool[int64]()
		if err != nil {
			return nil, err
		}
		dss := make([]*parsel.Dataset[int64], perRep)
		for k := range dss {
			if dss[k], err = pool.NewDataset(shards[rep*perRep+k]); err != nil {
				pool.Close()
				return nil, err
			}
		}
		if err := pool.Warm(procs, machines); err != nil {
			pool.Close()
			return nil, err
		}
		first := shards[rep*perRep]
		return &instance{
			query: func(ctx context.Context, i int) (parsel.Report, error) {
				k := i % perRep
				return query(ctx, dss[k], rep*perRep+k, i)
			},
			poolStats: pool.Stats,
			snapshotTimings: func() (time.Duration, time.Duration, time.Duration, error) {
				return snapshotTimings(pool, first)
			},
			stop: func() error {
				for _, ds := range dss {
					ds.Close()
				}
				pool.Close()
				return nil
			},
		}, nil
	}
	return &inputs{start: start}
}

// ingestState tracks the version each slot holds and keeps reads and
// writes of one slot apart: the daemon's replace drops the old dataset
// before the new one is resident, so a query overlapping the upload of
// its slot would read not-found. A query picks a slot no upload is
// replacing; an upload waits for the queries reading its slot.
type ingestState struct {
	mu      sync.Mutex
	idle    *sync.Cond // signalled when a slot's last reader or its writer leaves
	version [ingestSlots]int
	readers [ingestSlots]int
	writing [ingestSlots]bool
}

// read claims a slot for a query, preferring slot s, and returns it with
// the version it holds.
func (st *ingestState) read(s int) (slot, version int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.writing[s] {
		s = (s + 1) % ingestSlots
	}
	st.readers[s]++
	return s, st.version[s]
}

func (st *ingestState) doneReading(s int) {
	st.mu.Lock()
	st.readers[s]--
	if st.readers[s] == 0 {
		st.idle.Broadcast()
	}
	st.mu.Unlock()
}

// write claims slot s for an upload once no other upload holds it and
// no query reads it, and returns the version the slot holds.
func (st *ingestState) write(s int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.writing[s] {
		st.idle.Wait()
	}
	st.writing[s] = true
	for st.readers[s] > 0 {
		st.idle.Wait()
	}
	return st.version[s]
}

// doneWriting releases slot s; an acknowledged upload installed v.
func (st *ingestState) doneWriting(s, v int, ok bool) {
	st.mu.Lock()
	st.writing[s] = false
	if ok {
		st.version[s] = v
	}
	st.idle.Broadcast()
	st.mu.Unlock()
}

func prepareIngest(seed uint64, _ int, tmp string) (*inputs, error) {
	var (
		ints   [ingestVersions][][]int64
		floats [ingestVersions][][]float64
		sorted [ingestVersions][]int64
	)
	for v := range ints {
		ints[v] = gen.Generate(gen.Random, ingestN, procs, mix(seed, v))
		sorted[v] = sortedKeys(ints[v])
		// Keys stay below 2^40, so the float64 versions are exact and
		// order-preserving: the same oracle answers for both kinds.
		floats[v] = make([][]float64, len(ints[v]))
		for i, sh := range ints[v] {
			floats[v][i] = make([]float64, len(sh))
			for j, k := range sh {
				floats[v][i][j] = float64(k)
			}
		}
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "ingest_mixed-")
	if err != nil {
		return nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }

	// The c-th instance built on the directory starts with slot s
	// holding version home(c, s): the first four versions, then the other
	// four, alternating, so a run's check passes price eight datasets.
	// Instances are built one at a time; the seeding instance is number
	// -1.
	home := func(c, s int) int { return (s + ingestSlots*(c&1)) % ingestVersions }
	built := -1

	// start builds the next instance on the snapshot directory; restored
	// is how many datasets it must find there.
	start := func(wrap func(http.RoundTripper) http.RoundTripper, restored int64) (*instance, error) {
		c := built
		built++
		pi, err := newPool[int64]()
		if err != nil {
			return nil, err
		}
		pf, err := newPool[float64]()
		if err != nil {
			pi.Close()
			return nil, err
		}
		lb, err := startLoopback(serve.Options{Pool: pi, PoolFloat64: pf, SnapshotDir: dir}, wrap)
		if err != nil {
			pi.Close()
			pf.Close()
			return nil, err
		}
		stopAll := func() { lb.stop(); pi.Close(); pf.Close() }
		if got := lb.srv.Stats().Snapshots.Restored; got != restored {
			stopAll()
			return nil, fmt.Errorf("warm restart restored %d datasets, want %d", got, restored)
		}
		if err := pi.Warm(procs, machines); err == nil {
			err = pf.Warm(procs, machines)
		}
		if err != nil {
			stopAll()
			return nil, err
		}
		client := parselclient.New(lb.url, parselclient.WithHTTPClient(lb.hc), parselclient.WithBinary(true))
		state := &ingestState{}
		state.idle = sync.NewCond(&state.mu)
		for s := range state.version {
			state.version[s] = home(c, s)
		}
		dsI := parselclient.Keyed[int64](client)
		dsF := parselclient.Keyed[float64](client)
		id := func(s int) string { return fmt.Sprintf("slot%d", s) }
		// put replaces slot s with the version pick chooses from the one
		// it holds.
		put := func(ctx context.Context, s int, pick func(held int) int) error {
			v := pick(state.write(s))
			var err error
			if s < ingestSlots/2 {
				_, err = dsI.Dataset(id(s)).Upload(ctx, ints[v])
			} else {
				_, err = dsF.Dataset(id(s)).Upload(ctx, floats[v])
			}
			state.doneWriting(s, v, err == nil)
			return err
		}
		inst := &instance{
			// Upload u replaces slot u mod 4 with the other version of
			// its pair, so every upload changes the slot's contents.
			upload: func(ctx context.Context, u int) error {
				return put(ctx, u%ingestSlots, func(held int) int { return (held + ingestSlots) % ingestVersions })
			},
			uploadBytes: ingestN * 8,
			poolStats:   sumStats(pi.Stats, pf.Stats),
			lb:          lb,
			client:      client,
			snapshotTimings: func() (time.Duration, time.Duration, time.Duration, error) {
				return snapshotTimings(pi, ints[0])
			},
		}
		// Query i selects a seeded rank from a seeded slot.
		inst.query = func(ctx context.Context, i int) (parsel.Report, error) {
			m := mix(seed, i)
			s, v := state.read(int(m % ingestSlots))
			defer state.doneReading(s)
			rank := 1 + int64(m/ingestSlots%ingestN)
			what := fmt.Sprintf("%s select(%d)", id(s), rank)
			if s < ingestSlots/2 {
				res, err := dsI.Dataset(id(s)).Select(ctx, rank)
				if err != nil {
					return res.Report, err
				}
				return res.Report, check(what, res.Value, sorted[v][rank-1])
			}
			res, err := dsF.Dataset(id(s)).Select(ctx, rank)
			if err != nil {
				return res.Report, err
			}
			return res.Report, check(what, res.Value, float64(sorted[v][rank-1]))
		}
		// stop leaves the slots as the next instance starts them before
		// the drain persists them, so its warm restart and check pass see
		// known data.
		inst.stop = func() error {
			defer stopAll()
			for s := range ingestSlots {
				if err := put(context.Background(), s, func(int) int { return home(c+1, s) }); err != nil {
					return err
				}
			}
			return nil
		}
		return inst, nil
	}

	// Seed the directory with one cold instance: its stop uploads the
	// slots as the first repetition starts them.
	seedInst, err := start(nil, 0)
	if err == nil {
		err = seedInst.stop()
	}
	if err != nil {
		cleanup()
		return nil, err
	}
	return &inputs{
		// Every repetition restarts warm on the directory the previous
		// one drained.
		start: func(_ int, wrap func(http.RoundTripper) http.RoundTripper) (*instance, error) {
			return start(wrap, ingestSlots)
		},
		cleanup: cleanup,
	}, nil
}
