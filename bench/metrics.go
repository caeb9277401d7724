package main

// metric describes one reported number. The end-to-end and per-layer
// tables below are the benchmark's definition: BENCHMARK.json lists the
// same names, units, directions and bounds (bench_test.go keeps the two
// in step), -compare judges with these bounds, and the per-layer map
// records which end-to-end metric each layer number should move.
type metric struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// checkPass marks a metric priced by the check pass: its set value
	// is the mean over repetitions, which check different slices of the
	// seeded query sequence.
	checkPass bool
	// extra marks a number that is printed and recorded but is not in
	// BENCHMARK.json and gets no verdict from -compare: one that exists
	// only on the workloads that have the layer (it is absent, or
	// identically zero, elsewhere), or a wall time, which on a shared host
	// moves too much to bound.
	extra bool
	// layer and moves document a per-layer metric: the module measured,
	// and the end-to-end metric it should move on which workload.
	layer, moves string
}

// endToEnd are the metrics a user of parsel sees, measured with tracing
// off. Times are CPU times scaled to the reference host speed (clock.go):
// the latency and capacity a user would see on a quiet core. Their bounds
// are the largest a benchmark may set and at least three times their
// spread over seeds on a shared 2-vCPU host (bench/README.md has the
// measurements): scaling takes out most of that host's slow spells, not
// all. sim_s is deterministic per seed and mem_mb nearly so; their bounds
// are at least three times their spread across seeds.
var endToEnd = []metric{
	{name: "cpu_ms", unit: "ms", bound: 0.25},
	{name: "p90_cpu_ms", unit: "ms", bound: 0.25},
	{name: "qps_per_core", unit: "1/s", higher: true, bound: 0.25},
	{name: "sim_s", unit: "s", bound: 0.06, checkPass: true},
	{name: "mem_mb", unit: "MB", bound: 0.05},
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "p50_cpu_ms", unit: "ms", extra: true},
	{name: "p99_cpu_ms", unit: "ms", extra: true},
	{name: "qps", unit: "1/s", higher: true, extra: true},
	{name: "p50_ms", unit: "ms", extra: true},
	{name: "p99_ms", unit: "ms", extra: true},
	{name: "upload_mb_s", unit: "MB/s", higher: true, extra: true},
	{name: "upload_p50_ms", unit: "ms", extra: true},
}

const (
	httpOnly = "serve_point, ingest_mixed"
	cpuMoves = "qps_per_core on every workload: CPU share of the layer under 2-client load"
)

// perLayer are the traced run's numbers, each measured from outside the
// program by timing calls into the layer's public functions. A *_share
// is the layer's self time over the traced 1-client window (the shares
// and decomp.residual_frac sum to 1).
var perLayer = []metric{
	{name: "decomp.op_us", unit: "us", layer: "bench", moves: "the mean op time the layer self-times must sum to"},
	{name: "decomp.residual_frac", unit: "frac", layer: "bench", moves: "none: traced window time no layer accounts for; the traced run fails above 0.05"},
	{name: "trace.overhead_frac", unit: "frac", layer: "bench", moves: "none: traced p50_ms against untraced p50_ms in the same run"},

	{name: "parselclient.self_share", unit: "frac", layer: "parselclient", moves: "cpu_ms, qps_per_core on " + httpOnly},
	{name: "wire.residual_share", unit: "frac", layer: "net/http loopback", moves: "cpu_ms on " + httpOnly},
	{name: "serve.queue_share", unit: "frac", layer: "internal/serve", moves: "cpu_ms, qps_per_core on " + httpOnly},
	{name: "serve.checkout_share", unit: "frac", layer: "internal/serve", moves: "p50_ms (wall) on " + httpOnly},
	{name: "serve.encode_share", unit: "frac", layer: "internal/serve", moves: "cpu_ms, qps_per_core on " + httpOnly},
	{name: "dataset.glue_share", unit: "frac", layer: "parsel Dataset", moves: "cpu_ms on every workload"},
	{name: "engine.wall_share", unit: "frac", layer: "engine", moves: "cpu_ms on every workload"},
	{name: "upload.transport_share", unit: "frac", layer: "parselclient + internal/serve ingest", moves: "upload_p50_ms, cpu_ms on ingest_mixed"},

	{name: "parselclient.self_us", unit: "us", extra: true, layer: "parselclient", moves: "cpu_ms, qps_per_core on " + httpOnly},
	{name: "wire.residual_us", unit: "us", extra: true, layer: "net/http loopback", moves: "cpu_ms on " + httpOnly},
	{name: "serve.queue_us", unit: "us", extra: true, layer: "internal/serve", moves: "cpu_ms, qps_per_core on " + httpOnly},
	{name: "serve.checkout_us", unit: "us", extra: true, layer: "internal/serve", moves: "p50_ms (wall) on " + httpOnly},
	{name: "serve.encode_us", unit: "us", extra: true, layer: "internal/serve", moves: "cpu_ms, qps_per_core on " + httpOnly},
	{name: "upload.transport_ms", unit: "ms", extra: true, layer: "parselclient + internal/serve ingest", moves: "upload_p50_ms, upload_mb_s on ingest_mixed"},
	{name: "pool.checkout_us", unit: "us", extra: true, layer: "parsel Pool", moves: "qps (wall, 2-client phase) on serve_point, sorted_select; not cpu_ms"},
	{name: "dataset.glue_us", unit: "us", layer: "parsel Dataset", moves: "cpu_ms on every workload"},
	{name: "engine.wall_us", unit: "us", layer: "engine", moves: "cpu_ms on every workload: fixed cost on serve_point, kernels on rank_sets, sorted_select"},

	{name: "pool.wait_frac", unit: "frac", layer: "parsel Pool", moves: "qps (wall, 2-client phase) on serve_point, sorted_select; not cpu_ms"},
	{name: "pool.wait_share", unit: "frac", layer: "parsel Pool", moves: "qps (wall, 2-client phase) on serve_point, sorted_select; not cpu_ms"},
	{name: "parselclient.retries", unit: "count", layer: "parselclient", moves: "cpu_ms, qps_per_core on " + httpOnly},
	{name: "serve.rejected", unit: "count", layer: "internal/serve", moves: "qps_per_core on " + httpOnly},

	{name: "engine.iterations", unit: "count", checkPass: true, layer: "engine", moves: "sim_s on every workload"},
	{name: "engine.unsuccessful", unit: "count", checkPass: true, layer: "engine", moves: "sim_s on serve_point, sorted_select, ingest_mixed"},
	{name: "engine.messages", unit: "count", checkPass: true, layer: "engine", moves: "sim_s on every workload"},
	{name: "engine.bytes", unit: "B", checkPass: true, layer: "engine", moves: "sim_s on every workload"},
	{name: "engine.balance_sim_frac", unit: "frac", checkPass: true, layer: "internal/balance", moves: "sim_s, cpu_ms on sorted_select; 0 on rank_sets"},
	{name: "engine.model_ratio", unit: "ratio", checkPass: true, layer: "internal/model", moves: "checks Table 1: sim_s over the modelled single selection"},

	{name: "snapshot.encode_ms", unit: "ms", layer: "internal/snapshot", moves: "upload_mb_s, upload_p50_ms on ingest_mixed"},
	{name: "snapshot.decode_ms", unit: "ms", layer: "internal/snapshot", moves: "upload_mb_s, setup_s on ingest_mixed"},
	{name: "pool.restore_ms", unit: "ms", layer: "parsel Pool", moves: "upload_mb_s, setup_s on ingest_mixed"},
	{name: "snapshot.persists_per_upload", unit: "count", layer: "internal/serve snapshots", moves: "upload_mb_s, qps_per_core on ingest_mixed"},

	{name: "process.allocs_per_query", unit: "count", layer: "process", moves: "qps_per_core, mem_mb on every workload"},
	{name: "process.alloc_bytes_per_query", unit: "B", layer: "process", moves: "qps_per_core, mem_mb on every workload"},
	{name: "process.gc_cpu_frac", unit: "frac", layer: "runtime GC", moves: "qps_per_core on every workload"},

	{name: "cpu.seq", unit: "frac", layer: "internal/seq", moves: cpuMoves},
	{name: "cpu.selection", unit: "frac", layer: "internal/selection", moves: cpuMoves},
	{name: "cpu.balance", unit: "frac", layer: "internal/balance", moves: cpuMoves},
	{name: "cpu.comm", unit: "frac", layer: "internal/comm", moves: cpuMoves},
	{name: "cpu.machine", unit: "frac", layer: "internal/machine", moves: cpuMoves},
	{name: "cpu.parsel", unit: "frac", layer: "parsel", moves: cpuMoves},
	{name: "cpu.serve", unit: "frac", layer: "internal/serve", moves: cpuMoves},
	{name: "cpu.parselclient", unit: "frac", layer: "parselclient", moves: cpuMoves},
	{name: "cpu.snapshot", unit: "frac", layer: "internal/snapshot", moves: cpuMoves},
	{name: "cpu.json", unit: "frac", layer: "encoding/json", moves: cpuMoves},
	{name: "cpu.nethttp", unit: "frac", layer: "net, net/http", moves: cpuMoves},
	{name: "cpu.gc", unit: "frac", layer: "runtime GC", moves: cpuMoves},
	{name: "cpu.other", unit: "frac", layer: "runtime, bench", moves: cpuMoves},
}
