# CI entry points for the parsel repo (pure Go, no external deps).
#
#   make ci      - everything below, in order (what a PR must pass);
#                  .github/workflows/ci.yml runs exactly these targets,
#                  split across jobs so the race leg parallelizes
#   make vet     - static checks: go vet of this module and of the
#                  benchmark module (bench/ is a separate module, which
#                  `go vet ./...` does not reach) + gofmt (fails on
#                  unformatted files)
#   make build   - compile all packages, commands and examples
#   make test    - full test suite (includes the differential oracle suite)
#   make race    - full suite under the race detector (pool/selector/daemon/
#                  dataset stress)
#   make e2e     - the daemon end-to-end suite alone (httptest + parselclient,
#                  incl. the kill-and-restart snapshot harness, the multi-kind
#                  catalogues, the tenant admission/ledger suite, the chaos
#                  suite: differential replay through seeded fault injection,
#                  panic recovery, deadline propagation, and the multi-node
#                  cluster harness: routed catalogue replay with one of three
#                  nodes killed), uncached, for quick iteration on the
#                  serving layer
#   make fuzz    - short fuzz smoke: the 128-bit quantile-rank arithmetic, the
#                  daemon's HTTP request decoder, its resident dataset-query
#                  decoders (single and querymany), its JSON upload decoder
#                  (int64, float64 and string keys), the snapshot decoder
#                  (each input decoded under its header's key type: int64,
#                  float64 or string), the binary result-frame decoder, the
#                  branch-free three-way partition kernel (differential
#                  against Partition3),
#                  the fast randomized window-filter kernel (differential
#                  against its three-comparison reference) and the
#                  window's binary-search index on ascending slices
#                  (FuzzWindowAscending: seq.WindowAscending, differential
#                  against the scanning kernel)
#   make smoke   - metrics-scrape smoke: boot a daemon, run one query, pull
#                  /metrics and strictly validate the exposition; then the
#                  paper experiment CLI: list the experiments and run every
#                  one on the shrunk grid with one seed (~1 s, deterministic);
#                  then the single-selection CLI psel twice (a traced
#                  randomized run with balancing, and a -q quantile run);
#                  then every collective host benchmark in internal/comm,
#                  the snapshot encoder benchmarks (internal/snapshot:
#                  BenchmarkEncode over int64, float64 and string keys,
#                  BenchmarkFrameEncode over scalar and 2^16-value result
#                  frames of int64 and float64 values, with allocations),
#                  the daemon's frame upload-and-persist benchmark
#                  (BenchmarkFrameUploadPersist, internal/serve) and the
#                  resident sorted-select benchmark
#                  (BenchmarkDatasetSelectSorted: Pool.Over against a
#                  warmed Dataset replaying its first sample sort, with
#                  allocations per query reported) once
#                  (-benchtime 1x), so the benchmarks cannot rot; then
#                  every examples/* main (~2 s), failing on a non-zero exit
#   make bench-smoke - the benchmark module's own tests (every workload once,
#                  with short phases, plus its compare logic). bench/ is a
#                  separate module outside `go test ./...`, so this is what
#                  catches an engine API change that breaks it
#   make cover   - coverage profile over the core packages (engine, client,
#                  internal) with a hard threshold; writes cover.out

GO ?= go

# Core packages the coverage gate measures: the engine, the wire client
# and every internal package — commands and examples are thin mains and
# excluded.
COVER_PKGS = .,./parselclient,./parselclient/cluster,./internal/...
COVER_MIN ?= 85

.PHONY: ci vet build test race e2e fuzz smoke bench-smoke cover

ci: vet build test race e2e fuzz smoke bench-smoke cover

vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

e2e:
	$(GO) test -count=1 -run 'TestDaemon|TestDataset|TestSnapshot|TestTenant|TestCluster|TestObs' ./internal/serve .

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzQuantileRank -fuzztime=5s .
	$(GO) test -run='^$$' -fuzz=FuzzParseRequest -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzParseDatasetQuery -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzParseDatasetUpload -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=5s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=5s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzPartition3Branchless -fuzztime=5s ./internal/seq
	$(GO) test -run='^$$' -fuzz=FuzzFilterWindowCount -fuzztime=5s ./internal/seq
	$(GO) test -run='^$$' -fuzz=FuzzWindowAscending -fuzztime=5s ./internal/seq

smoke:
	$(GO) test -count=1 -run 'TestObsScrapeSmoke' ./internal/serve
	$(GO) run ./cmd/selectbench -list
	$(GO) run ./cmd/selectbench -exp all -quick -seeds 1
	$(GO) run ./cmd/psel -n 65536 -p 8 -alg rand -bal modomlb -trace
	$(GO) run ./cmd/psel -n 65536 -p 8 -q 0.9
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/comm
	$(GO) test -run '^$$' -bench 'BenchmarkEncode|BenchmarkFrameEncode' -benchmem -benchtime 1x ./internal/snapshot
	$(GO) test -run '^$$' -bench BenchmarkFrameUploadPersist -benchtime 1x ./internal/serve
	$(GO) test -run '^$$' -bench BenchmarkDatasetSelectSorted -benchtime 1x .
	@for ex in examples/*/; do \
		echo "$(GO) run ./$$ex"; \
		$(GO) run ./$$ex > /dev/null || exit 1; \
	done

bench-smoke:
	$(GO) -C bench test -count=1 ./...

cover:
	$(GO) test -count=1 -coverprofile=cover.out -coverpkg=$(COVER_PKGS) \
		. ./parselclient ./parselclient/cluster ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
		if (t+0 < min+0) { printf "coverage %.1f%% is below the %s%% threshold\n", t, min; exit 1 } \
		printf "coverage %.1f%% (threshold %s%%)\n", t, min }'
