// Command parseld is the selection daemon: an HTTP/JSON front-end over
// a shared pool of resident simulated machines, serving the library's
// full query surface (select, median, quantile(s), ranks, top/bottom-k,
// summary) with per-request admission deadlines, a bounded admission
// queue, and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	parseld -addr :7075 -machines 4 -queue 64
//	parseld -alg rand -bal none -seed 7 -timeout 2s
//
// Probe it:
//
//	curl -s localhost:7075/healthz
//	curl -s localhost:7075/v1/median -d '{"shards": [[9,1,5],[3,7,2]]}'
//	curl -s localhost:7075/v1/quantiles \
//	     -d '{"shards": [[9,1,5],[3,7,2]], "qs": [0.25,0.5,0.99], "timeout_ms": 250}'
//	curl -s localhost:7075/v1/stats
//
// Resident datasets — upload the shards once, query them many times
// (the query bodies carry no keys; see -dataset-ttl and
// -dataset-budget for the eviction policy):
//
//	curl -s -X PUT localhost:7075/v1/datasets/fleet -d '{"shards": [[9,1,5],[3,7,2]]}'
//	curl -s localhost:7075/v1/datasets/fleet/query -d '{"kind": "median"}'
//	curl -s localhost:7075/v1/datasets/fleet/query -d '{"kind": "quantiles", "qs": [0.5,0.99]}'
//	curl -s localhost:7075/v1/datasets/fleet/querymany \
//	     -d '{"queries": [{"kind": "median"}, {"kind": "select", "rank": 1}]}'
//	curl -s -X DELETE localhost:7075/v1/datasets/fleet
//
// Uploads may also be sent as length-prefixed binary frames
// (Content-Type: application/x-parsel-frame; same layout as the
// snapshot files) which stream into resident storage without a JSON
// materialization, and query responses come back as binary frames when
// the client sends Accept: application/x-parsel-frame. JSON remains
// the default and is always supported; see the parselclient package
// (WithBinary) for the framing.
//
// With -snapshot-dir the resident datasets are durable: uploads are
// persisted to crash-safe snapshot files in the background (and the
// final state synchronously on graceful drain), and a restarted
// daemon pointed at the same directory restores every live dataset —
// same ids, same TTL state, bit-identical query results — without a
// key crossing the wire again:
//
//	parseld -snapshot-dir /var/lib/parseld/snapshots
//
// Keys default to int64; uploads and queries may instead carry
// "key_kind": "float64" or "string" in the body (or the X-Parsel-Kind
// header on uploads) and are answered by a kind-matched pool. Every
// kind uploads as a binary frame, snapshots and ships the same way;
// string query results are answered as JSON.
//
// With -tenants the daemon is multi-tenant: every request except
// /healthz must present a configured bearer token, and each tenant
// gets its own resident-byte budget and dataset quota on top of the
// daemon-wide caps, accounted per tenant in /v1/stats:
//
//	parseld -tenants tenants.json
//
// Clients may stamp the remaining milliseconds of their own deadline
// into the X-Parsel-Deadline request header; the daemon bounds its
// admission wait by it (composed with timeout_ms and -timeout, capped
// by -max-timeout) so an abandoned request never occupies a machine.
//
// The wire format is documented in the parselclient package, which is
// also the Go client for this daemon.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parsel"
	"parsel/internal/balance"
	"parsel/internal/flagname"
	"parsel/internal/obs"
	"parsel/internal/selection"
	"parsel/internal/serve"
)

// The -alg and -bal names are the engine's, whose constants parsel's
// Algorithm and Balancer number the same way.
var (
	algNames = flagname.ByName[parsel.Algorithm](selection.AllAlgorithms)
	balNames = flagname.ByName[parsel.Balancer](balance.Methods)
)

// topoNames is spelled out: users type -topo mesh, while the engine
// names that topology mesh2d in the harness output.
var topoNames = map[string]parsel.Topology{
	"crossbar":  parsel.TopologyCrossbar,
	"hypercube": parsel.TopologyHypercube,
	"mesh":      parsel.TopologyMesh2D,
	"ring":      parsel.TopologyRing,
}

// keys lists a name table's names, sorted (see flagname.Keys).
func keys[V any](m map[string]V) string { return flagname.Keys(m) }

func main() {
	var (
		addr     = flag.String("addr", ":7075", "listen address")
		machines = flag.Int("machines", 4, "resident simulated machines (max concurrent queries)")
		queue    = flag.Int("queue", 64, "admission queue depth beyond -machines (excess is rejected with 429; 0 means the default)")
		timeout  = flag.Duration("timeout", 5*time.Second, "default admission deadline when a request has no timeout_ms")
		maxTO    = flag.Duration("max-timeout", 60*time.Second, "cap on any requested timeout_ms")
		maxBody  = flag.Int64("max-body", 64<<20, "request body byte limit")
		maxProcs = flag.Int("max-procs", 256, "shard (simulated processor) count limit per request")
		maxRanks = flag.Int("max-ranks", 4096, "rank/quantile count limit per request")
		maxBatch = flag.Int("max-batch", 256, "query count limit per querymany batch")
		dsTTL    = flag.Duration("dataset-ttl", 10*time.Minute, "resident datasets idle longer than this are evicted")
		dsBudget = flag.Int64("dataset-budget", 1<<30, "resident-bytes budget across all datasets (uploads beyond it get 413)")
		dsMax    = flag.Int("max-datasets", 1024, "resident dataset count limit")
		snapDir  = flag.String("snapshot-dir", "", "persist resident datasets to snapshots in this directory and restore them on startup (empty = datasets die with the process)")
		tenants  = flag.String("tenants", "", `JSON file of tenants: [{"name": ..., "token": ..., "max_resident_bytes": ..., "max_datasets": ...}]; when set, every request except /healthz needs Authorization: Bearer <token> (empty = open daemon)`)
		alg      = flag.String("alg", "fastrand", "algorithm: "+keys(algNames))
		bal      = flag.String("bal", "modomlb", "load balancer: "+keys(balNames))
		topo     = flag.String("topo", "crossbar", "interconnect topology: "+keys(topoNames))
		seed     = flag.Uint64("seed", 0, "machine seed (0 = library default)")
		warm     = flag.Int("warm", 0, "pre-build this many machines for -warm-procs shards before listening")
		warmP    = flag.Int("warm-procs", 8, "machine shape (shard count) -warm builds for")
		drainTO  = flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight queries")
		readTO   = flag.Duration("read-timeout", 60*time.Second, "connection read deadline: a request's headers+body must arrive within this (bounds how long a stalled upload can hold an admission slot)")
		writeTO  = flag.Duration("write-timeout", 3*time.Minute, "connection write deadline: a response must be fully written within this of the request being read (0 disables; must exceed -max-timeout or legitimate slow queries are cut off mid-response)")
		idleTO   = flag.Duration("idle-timeout", 2*time.Minute, "how long an idle keep-alive connection is kept open")
		logFmt   = flag.String("log-format", "text", "structured log format: text or json")
		logLvl   = flag.String("log-level", "info", "log level: debug, info, warn or error (debug includes a per-request access line)")
		pprofA   = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled; keep it off the service port)")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage: parseld [flags]\n\n")
		fmt.Fprintf(out, "parseld serves parallel selection queries over HTTP/JSON; see the\n")
		fmt.Fprintf(out, "parselclient package for the wire format.\n\n")
		fmt.Fprintf(out, "Clients may stamp the remaining milliseconds of their own deadline\n")
		fmt.Fprintf(out, "into the X-Parsel-Deadline request header; the daemon bounds the\n")
		fmt.Fprintf(out, "admission wait by min(header, timeout_ms, -timeout), capped by\n")
		fmt.Fprintf(out, "-max-timeout, so an abandoned request never occupies a machine.\n")
		fmt.Fprintf(out, "Every 429 carries a Retry-After hint.\n\n")
		fmt.Fprintf(out, "Flags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFmt, *logLvl)
	if err != nil {
		fail("%v", err)
	}
	slog.SetDefault(logger)

	a, ok := algNames[*alg]
	if !ok {
		fail("unknown -alg %q (want %s)", *alg, keys(algNames))
	}
	b, ok := balNames[*bal]
	if !ok {
		fail("unknown -bal %q (want %s)", *bal, keys(balNames))
	}
	tp, ok := topoNames[*topo]
	if !ok {
		fail("unknown -topo %q (want %s)", *topo, keys(topoNames))
	}
	if *machines < 1 {
		fail("need -machines >= 1")
	}
	if *queue < 0 {
		fail("need -queue >= 0")
	}
	if *writeTO > 0 && *writeTO <= *maxTO {
		logger.Warn("-write-timeout at or below -max-timeout; slow queries may be cut off mid-response",
			"write_timeout", (*writeTO).String(), "max_timeout", (*maxTO).String())
	}

	opts := parsel.Options{
		Algorithm: a,
		Balancer:  b,
		Machine:   parsel.Machine{Topology: tp, Seed: *seed},
	}
	pool, err := parsel.NewPool[int64](opts, parsel.PoolOptions{MaxMachines: *machines})
	if err != nil {
		fail("pool: %v", err)
	}
	defer pool.Close()
	if *warm > 0 {
		if err := pool.Warm(*warmP, *warm); err != nil {
			fail("warm: %v", err)
		}
		logger.Info("warmed machines", "machines", min(*warm, *machines), "procs", *warmP)
	}

	var tenantCfg []serve.Tenant
	var tenantSource func() ([]serve.Tenant, error)
	if *tenants != "" {
		tenantSource = func() ([]serve.Tenant, error) {
			raw, err := os.ReadFile(*tenants)
			if err != nil {
				return nil, err
			}
			var cfg []serve.Tenant
			if err := json.Unmarshal(raw, &cfg); err != nil {
				return nil, fmt.Errorf("decode %s: %w", *tenants, err)
			}
			if len(cfg) == 0 {
				return nil, fmt.Errorf("%s lists no tenants", *tenants)
			}
			return cfg, nil
		}
		var err error
		if tenantCfg, err = tenantSource(); err != nil {
			fail("tenants: %v", err)
		}
	}

	srv, err := serve.New(serve.Options{
		Pool:           pool,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTO,
		QueueDepth:     *queue,
		Limits: serve.Limits{
			MaxBodyBytes: *maxBody,
			MaxProcs:     *maxProcs,
			MaxRanks:     *maxRanks,
			MaxBatch:     *maxBatch,
		},
		DatasetTTL:       *dsTTL,
		MaxResidentBytes: *dsBudget,
		MaxDatasets:      *dsMax,
		SnapshotDir:      *snapDir,
		Tenants:          tenantCfg,
		TenantSource:     tenantSource,
		Logger:           logger,
	})
	if err != nil {
		fail("serve: %v", err)
	}
	defer srv.Close()
	if len(tenantCfg) > 0 {
		logger.Info("tenants configured; requests require Authorization: Bearer <token>", "tenants", len(tenantCfg))
	}
	if *snapDir != "" {
		ss := srv.Stats().Snapshots
		logger.Info("snapshots restored",
			"restored", ss.Restored, "dir", *snapDir, "disk_bytes", ss.SnapshotBytes,
			"skipped", ss.RestoreSkipped, "quarantined", ss.Quarantined)
	}

	// The profiler listens on its own address so it is never reachable
	// through the service port (or its load balancer), and a scrape or
	// heap dump cannot consume a service connection.
	if *pprofA != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps := &http.Server{Addr: *pprofA, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *pprofA)
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "err", err.Error())
			}
		}()
		defer ps.Close()
	}

	// Read deadlines keep stalled uploads from camping on admission
	// slots (the slot is taken before the body is read). The write
	// deadline defaults well above -max-timeout so a legitimate query
	// can wait its full admission deadline before responding, while a
	// dead client can't pin a connection forever.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
		IdleTimeout:       *idleTO,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	logger.Info("parseld listening",
		"addr", *addr, "alg", *alg, "bal", *bal, "topo", *topo,
		"machines", *machines, "queue", *queue)

	// SIGHUP rereads -tenants and swaps the tenant configuration in
	// place — token rotation and budget changes without a restart; the
	// authenticated POST /v1/admin/tenants/reload endpoint does the
	// same over the wire. Surviving tenants (matched by name) keep
	// their ledgers. Without -tenants the signal is acknowledged and
	// ignored (tenancy cannot be toggled at runtime).
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if tenantSource == nil {
				logger.Warn("SIGHUP: no -tenants file to reload")
				continue
			}
			cfg, err := tenantSource()
			if err != nil {
				logger.Error("SIGHUP: tenant reload failed; keeping the previous configuration", "err", err.Error())
				continue
			}
			if err := srv.ReloadTenants(cfg); err != nil {
				logger.Error("SIGHUP: tenant reload failed; keeping the previous configuration", "err", err.Error())
				continue
			}
			logger.Info("SIGHUP: tenant configuration reloaded", "tenants", len(cfg))
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fail("listen: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: refuse new queries, let in-flight ones finish,
	// then tear the machines down.
	logger.Info("draining", "timeout", (*drainTO).String())
	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown failed", "err", err.Error())
	}
	// Requests already admitted when Drain ran may have committed
	// uploads/deletes after its flush; now that Shutdown has waited
	// them out, flush once more so the snapshot store holds exactly
	// what the clients were acknowledged.
	srv.FlushSnapshots()
	pool.Close()
	st := srv.Stats()
	logger.Info("served",
		"requests", st.Server.Requests, "ok", st.Server.OK,
		"timeouts", st.Server.Timeouts, "rejected", st.Server.Rejected,
		"machines_built", st.Pool.Creates)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "parseld: "+format+"\n", args...)
	os.Exit(1)
}
