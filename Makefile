GO ?= go

.PHONY: build test vet race verify parallel-diff snapshot-diff delta-diff optimize-diff scale-diff fuzz-smoke alloc-budget serve-smoke bench bench-smoke bench-diff clean

# BENCH is the JSON file the bench target writes and bench-diff compares
# against; point it at the next PR's file when cutting a new baseline.
BENCH ?= BENCH_PR28.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the suite under the race detector, skipping the 5k-SKU
# scale differential by name (scale-diff runs it without the detector)
# so internal/core stays inside go test's ten-minute timeout.
race:
	$(GO) test -race -skip='^TestScaleDifferential$$' ./...

# bench-smoke compiles and runs one benchmark iteration so the bench
# suite can't bit-rot between full runs.
bench-smoke:
	$(GO) test -run=NONE -bench=BenchmarkCompile -benchtime=1x .

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
# propagate, zero-alloc Simplify of a simplified formula, bounded warm
# cache-hit queries, serve_warm-shaped queries and cost optimizations,
# bounded cold compiles) and the §5.1 base sizes (variable and clause
# counts) so allocation and base-growth regressions fail the gate even
# though `test` also covers them.
alloc-budget:
	$(GO) test -run='TestPropagateAllocFree|TestSimplifyAllocFree|TestWarmQueryAllocBudget|TestCloneAllocBudget|TestOptimizeAllocBudget|TestCompileAllocBudget|TestBaseSizeBudget|TestSearchEffortBudget' -count=1 ./internal/sat ./internal/logic ./internal/core

# parallel-diff pins the parallel-vs-sequential differentials (the
# DESIGN.md §8 enumeration determinism contract and the §11 sharded
# compile byte-identity, both over the §5.1 queries) so the gate names
# them even though `test` also covers them.
parallel-diff:
	$(GO) test -run='TestEnumerateParallel|TestEnumerateWorkerCountInvariance|TestParallelCompileByteIdentity' -count=1 . ./internal/core

# snapshot-diff pins the disk-cache round-trip differential (the
# DESIGN.md §9 restore-equivalence contract): a solver revived from
# bytes answers identically to its in-process Clone (also after the
# clone's slabs outgrow the headroom Clone gives them, and on
# binary-heavy instances whose binary clauses live only in the watch
# lists, where proofs, assumption cores and DIMACS round trips are
# checked too), an engine revived from a cache directory answers the
# §5.1 queries identically to the warm in-process path, and a probed
# base revived from disk answers byte-identically, search effort
# included (DESIGN.md §13).
snapshot-diff:
	$(GO) test -run='TestSnapshotRestoreSolvesIdentically|TestCloneSearchesIdenticallyUnderRelocation|TestBinaryHeavyDifferential|TestDiskCacheDifferential|TestDiskWarmSkipsCompile|TestProbedBaseDiskRoundTrip' -count=1 . ./internal/sat ./internal/core

# serve-smoke boots the query service on a random port, runs one query
# per mode, hits /healthz and /statsz, injects one fault, SIGTERMs the
# process, and asserts a clean drain — the full serve lifecycle under the
# race detector (see internal/serve TestServeSmoke).
serve-smoke:
	$(GO) test -race -run='TestServeSmoke' -count=1 ./internal/serve

# delta-diff pins the incremental-compilation byte-identity contract
# (DESIGN.md §14): a delta recompile (shard diff + arena splice) of an
# add/remove/edit must produce solver state byte-identical to a
# from-scratch compile at 1/2/8 workers, at both the logic layer
# (ConvertShardsDelta vs ConvertShards) and the engine layer (UpdateKB
# vs cold compile), plus the live-reload staleness ordering.
delta-diff:
	$(GO) test -run='TestConvertShardsDelta|TestUpdateKBByteIdentity|TestKBMutationStalenessOrdering' -count=1 ./internal/logic ./internal/core
	$(GO) test -race -run='TestUpdateKBConcurrentQueries|TestServeReloadUnderLoad' -count=1 ./internal/core ./internal/serve

# optimize-diff pins the MaxSAT optimality differential (DESIGN.md §15):
# lexicographic optima and Pareto frontiers must equal the brute-force
# enumeration oracle's at 1/2/8 workers, warm and cold — plus the
# metamorphic invariants (cost scaling and translation, dominated-SKU
# insertion, bound tightening), the agreement of the power/port
# circuits with the design metrics, and the maxsat package's
# brute-force, budget-trip and bit-descent tests.
optimize-diff:
	$(GO) test -run='TestOptimizeDifferential|TestParetoDifferential|TestMetamorphic|TestObjective' -count=1 ./internal/core
	$(GO) test -run='TestMinimize|TestLexicographic|TestPareto|TestBitDescent' -count=1 ./internal/maxsat

# scale-diff pins the relevance-slicing soundness gate (DESIGN.md §16):
# on a 5k-SKU scaled catalog, every verdict, lexicographic optimum,
# Pareto frontier, design and explanation from the cone-of-influence
# slice must match the full encoding — over the §5.1 suite plus seeded
# randomized scenarios, at 1/2/8 workers, warm and cold — together with
# the slice edge cases and the 50k-SKU catalog generation smoke.
scale-diff:
	$(GO) test -run='TestScaleDifferential|TestSlice' -count=1 ./internal/core
	$(GO) test -run='TestCatalogScale' -count=1 ./internal/extract

# fuzz-smoke runs the snapshot decoders' fuzz targets briefly so the
# untrusted-bytes contract (typed errors, no panics, no OOM) is
# exercised on every gate, not only in dedicated fuzz sessions, plus the
# MaxSAT bounds fuzzer (random weighted objectives must yield exact,
# witnessed, unbeatable optima), the Simplify fuzzer (idempotent,
# equivalent under every assignment, equal to the String()-keyed oracle),
# the arithmetic fuzzer (random sums and products over constant and
# free operands must evaluate to the integer result) and the KB JSON
# fuzzer (kb.Load must decode and validate arbitrary bytes or return an
# error, never panic) and the chaos-spec fuzzer (serve.ParseChaos must
# return an error or a profile whose rate lies in [0,1], never panic).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzSimplify -fuzztime=10s ./internal/logic
	$(GO) test -run=NONE -fuzz=FuzzArith -fuzztime=10s ./internal/intlin
	$(GO) test -run=NONE -fuzz=FuzzRestoreSnapshot -fuzztime=10s ./internal/sat
	$(GO) test -run=NONE -fuzz=FuzzDecodeBase -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzMaxSATBounds -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzLoadKB -fuzztime=10s ./internal/kb
	$(GO) test -run=NONE -fuzz=FuzzParseChaos -fuzztime=10s ./internal/serve

# verify is the full pre-merge gate: tier-1 (build + test) plus static
# analysis, the race detector over every package, the enumeration,
# snapshot, optimality and relevance-slicing differentials, the hot-path
# allocation budgets, the serve lifecycle smoke, a fuzz smoke over the
# snapshot decoders and the MaxSAT bounds, and a benchmark smoke run.
verify: build vet test race parallel-diff snapshot-diff delta-diff optimize-diff scale-diff alloc-budget serve-smoke fuzz-smoke bench-smoke

clean:
	$(GO) clean ./...
