GO ?= go

.PHONY: build test vet fmt race verify differential fuzz-smoke alloc-budget serve-smoke bench bench-smoke bench-diff clean

# BENCH is the JSON file the bench target writes and bench-diff compares
# against; point it at the next PR's file when cutting a new baseline.
BENCH ?= BENCH_PR28.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when any Go file is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

# race runs the suite under the race detector, skipping the 5k-SKU
# scale tier of the differential harness by name (differential runs it
# without the detector) so internal/core stays inside go test's
# ten-minute timeout. The harness's seed tier runs here.
race:
	$(GO) test -race -skip='^TestDifferential$$/^scale$$' ./...

# bench-smoke compiles and runs one iteration of the compile,
# enumeration and Pareto benchmarks so the bench suite can't bit-rot
# between full runs (BenchmarkPareto also checks its frontiers).
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkCompile|BenchmarkEnumerate|BenchmarkPareto' -benchtime=1x .

# bench runs the full root benchmark suite with allocation stats and
# renders the results to $(BENCH) (name -> ns/op, B/op, allocs/op)
# via the stdlib-only parser in cmd/benchjson. Commit the JSON to track
# the perf trajectory.
bench:
	$(GO) test -run=NONE -bench=. -benchmem -count=1 . | tee /tmp/netarch-bench.txt
	$(GO) run ./cmd/benchjson < /tmp/netarch-bench.txt > $(BENCH)

# bench-diff runs the bench suite and prints per-benchmark deltas against
# the newest committed BENCH_*.json instead of writing a new file — the
# quick "did my change move the needle" loop between baseline cuts.
bench-diff:
	$(GO) test -run=NONE -bench=. -benchmem -count=1 . | tee /tmp/netarch-bench.txt
	$(GO) run ./cmd/benchjson -diff "$$(ls BENCH_PR*.json | sort -V | tail -1)" < /tmp/netarch-bench.txt

# alloc-budget pins the hot-path allocation budgets (zero-alloc
# propagate, zero-alloc Simplify of a simplified formula, totalizers
# built without a heap slice per clause, bounded warm cache-hit queries,
# serve_warm-shaped queries and cost optimizations, bounded cold
# compiles) and the §5.1 base sizes (variable and clause counts) so
# allocation and base-growth regressions fail the gate even though
# `test` also covers them.
alloc-budget:
	$(GO) test -run='TestPropagateAllocFree|TestSimplifyAllocFree|TestTotalizerAllocs|TestWarmQueryAllocBudget|TestCloneAllocBudget|TestOptimizeAllocBudget|TestCompileAllocBudget|TestBaseSizeBudget|TestSearchEffortBudget' -count=1 ./internal/sat ./internal/logic ./internal/cardinality ./internal/core

# serve-smoke boots the query service on a random port, runs one query
# per mode, hits /healthz and /statsz, injects one fault, SIGTERMs the
# process, and asserts a clean drain — the full serve lifecycle under the
# race detector (see internal/serve TestServeSmoke).
serve-smoke:
	$(GO) test -race -run='TestServeSmoke' -count=1 ./internal/serve

# differential is the answer-invariance gate (DESIGN.md §8, §9, §11,
# §14, §15, §16). The differential harness answers the §5.1,
# brute-force-oracle and enumeration tables on a sequential, unsliced,
# uncached reference engine and under every configuration: compile
# worker counts (SetWorkers sizes only the compile's shard conversion;
# every query runs on one solver), cache miss and hit, query history,
# disk revival, delta update (byte-identical) and relevance slicing
# (equivalent), plus the 5k-SKU sliced sweep. Its gates are
# TestDifferential and the six focused tests that each run one catalog
# under a subset of its configurations; the root TestEnumerateParallel*
# pair repeats the §5.1 compile-worker check at the facade. Beside them run the tests the harness does not
# replace: compile and delta
# byte identity, the solver snapshot/clone and disk round trips (with
# the binary-heavy differential's frozen arm: a frozen solver, its clone,
# its snapshot and its DIMACS round trip agree, and clones of one frozen
# solver search identically over its shared implication table), the
# optimizer's metamorphic, objective-circuit and maxsat brute-force
# tests, the slicer edge cases and refusals, the 50k catalog smoke,
# and the reload-under-load pair under the race detector.
differential:
	$(GO) test -run='TestDifferential|TestCacheDifferential|TestDiskCacheDifferential|TestOptimizeDifferential|TestParetoDifferential|TestEnumerateWorkerCountInvariance|TestEnumerateCacheOffMatchesCacheOn|TestEnumerateParallel|TestParallelCompileByteIdentity|TestUpdateKBByteIdentity|TestKBMutationStalenessOrdering|TestDiskWarmSkipsCompile|TestProbedBaseDiskRoundTrip|TestMetamorphic|TestObjective|TestSlice|TestUpdateKBReslicesUnderNewWorkloads|TestEnumerateRefusesSlicedBase' -count=1 . ./internal/core
	$(GO) test -run='TestConvertShardsDelta' -count=1 ./internal/logic
	$(GO) test -run='TestSnapshotRestoreSolvesIdentically|TestCloneSearchesIdenticallyUnderRelocation|TestBinaryHeavyDifferential|TestConcurrentClonesOfFrozenSolver' -count=1 ./internal/sat
	$(GO) test -run='TestMinimize|TestLexicographic|TestPareto|TestBitDescent' -count=1 ./internal/maxsat
	$(GO) test -run='TestCatalogScale' -count=1 ./internal/extract
	$(GO) test -race -run='TestUpdateKBConcurrentQueries|TestServeReloadUnderLoad' -count=1 ./internal/core ./internal/serve

# fuzz-smoke runs the snapshot decoders' fuzz targets briefly so the
# untrusted-bytes contract (typed errors, no panics, no OOM) is
# exercised on every gate, not only in dedicated fuzz sessions, plus the
# MaxSAT bounds fuzzer (random weighted objectives must yield exact,
# witnessed, unbeatable optima), the Simplify fuzzer (idempotent,
# equivalent under every assignment, equal to the String()-keyed oracle),
# the arithmetic fuzzer (random sums and products over constant and
# free operands must evaluate to the integer result), the KB JSON
# fuzzer (kb.Load must decode and validate arbitrary bytes or return an
# error, never panic), the chaos-spec fuzzer (serve.ParseChaos must
# return an error or a profile whose rate lies in [0,1], never panic),
# the serve body fuzzers (every query-mode body and reload payload
# gets a 200 or a typed error body, never a 500 or a panic) and the DSL
# fuzzers (dsl.ParseString and dsl.ParseExpr must reject arbitrary text
# with an error or accept it and survive a Format/Parse round trip,
# never panic).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzSimplify -fuzztime=10s ./internal/logic
	$(GO) test -run=NONE -fuzz=FuzzArith -fuzztime=10s ./internal/intlin
	$(GO) test -run=NONE -fuzz=FuzzRestoreSnapshot -fuzztime=10s ./internal/sat
	$(GO) test -run=NONE -fuzz=FuzzDecodeBase -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzMaxSATBounds -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzLoadKB -fuzztime=10s ./internal/kb
	$(GO) test -run=NONE -fuzz=FuzzParseChaos -fuzztime=10s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzServeQuery -fuzztime=10s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzServeReload -fuzztime=10s -fuzzminimizetime=1s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzParseString -fuzztime=10s ./internal/dsl
	$(GO) test -run=NONE -fuzz=FuzzParseExpr -fuzztime=10s ./internal/dsl

# verify is the full pre-merge gate: tier-1 (build + test) plus static
# analysis, a gofmt check, the race detector over every package, the differential
# harness, the hot-path allocation budgets, the serve lifecycle smoke,
# a fuzz smoke over the untrusted-input decoders and the MaxSAT bounds,
# and a benchmark smoke run.
verify: build vet fmt test race differential alloc-budget serve-smoke fuzz-smoke bench-smoke

clean:
	$(GO) clean ./...
