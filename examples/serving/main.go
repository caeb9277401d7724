// Serving: a resident selection service under concurrent load. A fleet
// of dashboard clients — each wanting exact latency quantiles, top-k
// outliers, or medians over freshly sharded data — hammers one
// parsel.Pool from separate goroutines. The pool keeps a bounded set of
// simulated machines resident, checks one out per query, and reuses
// them across clients, so no query ever pays machine construction and
// no two queries ever race on one machine. This is the serving posture
// a coarse-grained selection service runs in: the machine is long-lived,
// the queries stream past it.
//
// The second half runs the same workload over the network: the pool is
// wrapped in the parseld HTTP handler on a loopback listener and the
// queries go through parselclient — same results, same simulated
// metrics, plus deadlines and admission control in front. The finale is
// the resident-dataset path, the paper's actual operating model: the
// shards ship ONCE (PUT /v1/datasets/{id}) into per-processor resident
// storage, and every later query carries parameters only — on the
// standard 256k benchmark workload that turns ~90ms JSON-dominated
// round trips into ~1.5ms, bit-identical responses included (see
// BENCH_PR4.json). Datasets are TTL-evicted when idle and accounted
// against a resident-bytes budget; deleting one frees the budget
// immediately and later queries get the typed not-found.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"parsel"
	"parsel/internal/serve"
	"parsel/parselclient"
)

// nodeLatencies builds one node's heavy-tailed latency shard (in
// microseconds).
func nodeLatencies(node int, rng *rand.Rand) []int64 {
	out := make([]int64, 8000+1000*node)
	for i := range out {
		v := int64(150 + rng.ExpFloat64()*400)
		if rng.IntN(100) == 0 {
			v *= 20 // tail
		}
		out[i] = v
	}
	return out
}

func main() {
	// One fleet snapshot, sharded across 16 nodes.
	const nodes = 16
	shards := make([][]int64, nodes)
	for i := range shards {
		shards[i] = nodeLatencies(i, rand.New(rand.NewPCG(11, uint64(i))))
	}

	pool, err := parsel.NewPool[int64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()

	// Twelve concurrent clients issue mixed queries against the pool.
	ctx := context.Background()
	live := pool.Over(shards) // the named queries over the live shards
	type answer struct {
		client int
		text   string
	}
	answers := make([]answer, 0, 12)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 12; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var text string
			switch c % 3 {
			case 0:
				vals, _, err := live.Quantiles(ctx, []float64{0.5, 0.95, 0.99})
				if err != nil {
					log.Fatal(err)
				}
				text = fmt.Sprintf("p50/p95/p99 = %d/%d/%d us", vals[0], vals[1], vals[2])
			case 1:
				top, _, err := live.TopK(ctx, 3)
				if err != nil {
					log.Fatal(err)
				}
				text = fmt.Sprintf("3 slowest requests: %v us", top)
			case 2:
				res, err := live.Median(ctx)
				if err != nil {
					log.Fatal(err)
				}
				text = fmt.Sprintf("median = %d us (sim %.4f s, %d msgs)",
					res.Value, res.SimSeconds, res.Messages)
			}
			mu.Lock()
			answers = append(answers, answer{c, text})
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	for _, a := range answers {
		fmt.Printf("client %2d: %s\n", a.client, a.text)
	}

	// A batched sweep: one rank query per node count, fanned out across
	// the pool's machines with one goroutine per query over pool.Run.
	fleets := make([][][]int64, 5)
	sweep := make([]parsel.Answer[int64], len(fleets))
	errs := make([]error, len(fleets))
	for i := range fleets {
		fleets[i] = shards[:4+3*i]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sweep[i], errs[i] = pool.Run(ctx, fleets[i], parsel.Query{Op: parsel.OpSelect, Rank: 1000})
		}(i)
	}
	wg.Wait()
	fmt.Println("\nbatched sweep over growing fleets:")
	for i, a := range sweep {
		if errs[i] != nil {
			log.Fatal(errs[i])
		}
		fmt.Printf("  %2d nodes: rank-1000 latency = %d us\n", len(fleets[i]), a.Value)
	}

	st := pool.Stats()
	fmt.Printf("\npool: %d machines built, %d warm reuses, %d reshapes, %d waits\n",
		st.Creates, st.Hits, st.Reshapes, st.Waits)

	// Now as a network service: the same pool behind the parseld HTTP
	// handler, queried through the Go client. (In production you'd run
	// cmd/parseld; the handler is embeddable for exactly this kind of
	// in-process composition.)
	srv, err := serve.New(serve.Options{Pool: pool, DefaultTimeout: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()

	client := parselclient.New("http://" + ln.Addr().String())
	vals, rep, err := client.Over(shards).Quantiles(ctx, []float64{0.5, 0.95, 0.99})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nover HTTP: p50/p95/p99 = %d/%d/%d us (sim %.4f s, %d msgs — identical to in-process)\n",
		vals[0], vals[1], vals[2], rep.SimSeconds, rep.Messages)
	sum, _, err := client.Over(shards).Summary(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("over HTTP: five-number summary = %+v\n", sum)

	// Deadlines are first-class on the wire: a query that cannot get a
	// machine in time comes back as the library's typed ErrPoolTimeout.
	hurried := parselclient.New("http://"+ln.Addr().String(),
		parselclient.WithLimits(parselclient.ClientLimits{QueryTimeout: time.Nanosecond})) // absurd on purpose; rounds up to 1ms
	busy := make(chan struct{})
	go func() { // occupy all machines briefly
		defer close(busy)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); _, _ = live.Median(ctx) }()
		}
		wg.Wait()
	}()
	if _, err := hurried.Over(shards).Median(ctx); errors.Is(err, parsel.ErrPoolTimeout) {
		fmt.Println("over HTTP: hurried query got the typed pool-timeout, as designed")
	} else if err != nil {
		fmt.Printf("over HTTP: hurried query: %v\n", err)
	} else {
		fmt.Println("over HTTP: hurried query squeezed in before the machines got busy")
	}
	<-busy

	// Resident dataset: upload the fleet snapshot once, then query it
	// without ever re-shipping the keys. Responses — simulated metrics
	// included — are bit-identical to the shard-carrying queries above.
	fleet := client.Dataset("fleet-snapshot")
	info, err := fleet.Upload(ctx, shards)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nresident dataset %q: %d keys on %d procs, %d bytes resident, TTL %.0fs\n",
		info.ID, info.N, info.Procs, info.Bytes, float64(info.ExpiresInMS)/1000)
	dvals, drep, err := fleet.Quantiles(ctx, []float64{0.5, 0.95, 0.99})
	if err != nil {
		log.Fatal(err)
	}
	same := slices.Equal(dvals, vals) && drep.SimSeconds == rep.SimSeconds
	fmt.Printf("dataset query (no keys on the wire): p50/p95/p99 = %d/%d/%d us — bit-identical to shard-per-query: %v\n",
		dvals[0], dvals[1], dvals[2], same)
	dmed, err := fleet.Median(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset median = %d us (sim %.4f s)\n", dmed.Value, dmed.SimSeconds)

	// Delete frees the resident budget; the id is gone with a typed
	// error any client can match.
	if _, err := fleet.Delete(ctx); err != nil {
		log.Fatal(err)
	}
	if _, err := fleet.Median(ctx); errors.Is(err, parselclient.ErrDatasetNotFound) {
		fmt.Println("after DELETE: queries get the typed dataset-not-found, as designed")
	}

	wire, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("daemon: %d requests, %d ok, %d timeouts; latency observations: %d; dataset uploads/queries: %d/%d\n",
		wire.Server.Requests, wire.Server.OK, wire.Server.Timeouts, wire.Latency.Count,
		wire.Datasets.Uploads, wire.Datasets.Queries)
}
