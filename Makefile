GO ?= go

.PHONY: build test vet fmt race verify gate-names differential fuzz-smoke alloc-budget serve-smoke bench bench-smoke bench-diff clean

# BENCH is the JSON file the bench target writes and bench-diff compares
# against; point it at the next PR's file when cutting a new baseline.
BENCH ?= BENCH_PR50.json

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

# bench-smoke compiles and runs one iteration of the compile, cold-start,
# optimization, enumeration, Pareto and serve read-mix benchmarks so the
# bench suite can't bit-rot between full runs (BenchmarkOptimize checks
# that its optima are certified, BenchmarkPareto its frontiers), plus
# internal/core's scaled-catalog cold starts, sliced and unsliced, and
# its optimizer-versus-oracle benchmark, whose MaxSAT row checks its
# optimum against the brute-force oracle. It also vets and tests the
# bench/ module (its own go.mod), so a core API change that breaks the
# end-to-end harness fails here, not only in the benchmark pipeline.
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkCompile|BenchmarkColdStart|BenchmarkOptimize|BenchmarkEnumerate|BenchmarkPareto|BenchmarkServeReadMix' -benchtime=1x .
	$(GO) test -run=NONE -bench='BenchmarkColdStart|BenchmarkOptimizeOracle' -benchtime=1x ./internal/core
	cd bench && $(GO) vet ./... && $(GO) test ./...

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
# propagate, totalizers built without a heap slice per clause, bounded warm cache-hit queries,
# serve_warm-shaped queries and cost optimizations, bounded cold
# compiles, compile-time probes that fit the room Bulk reserves,
# frozen bases with no spare capacity and a bounded case-study KB
# load) and the §5.1 base sizes
# (variable and clause counts) so
# allocation and base-growth regressions fail the gate even though
# `test` also covers them.
ALLOC_RUN = TestPropagateAllocFree|TestTotalizerAllocs|TestWarmQueryAllocBudget|TestCloneAllocBudget|TestOptimizeAllocBudget|TestCompileAllocBudget|TestProbeFitsRoom|TestBaseSizeBudget|TestSearchEffortBudget|TestKBLoadAllocBudget
ALLOC_PKGS = ./internal/sat ./internal/cardinality ./internal/core ./internal/kb
alloc-budget:
	$(GO) test -run='$(ALLOC_RUN)' -count=1 $(ALLOC_PKGS)

# serve-smoke boots the query service on a random port, runs one query
# per mode, hits /healthz and /statsz, injects one fault, SIGTERMs the
# process, and asserts a clean drain — the full serve lifecycle under the
# race detector (see internal/serve TestServeSmoke).
serve-smoke:
	$(GO) test -race -run='TestServeSmoke' -count=1 ./internal/serve

# differential is the answer-invariance gate (DESIGN.md §8, §9, §14,
# §15, §16). The differential harness answers the §5.1,
# brute-force-oracle and enumeration tables on an unsliced, uncached
# reference engine and under every configuration: cache miss and hit,
# query history, live KB update (byte-identical) and relevance slicing
# (equivalent; enumeration and disambiguation, which never slice,
# byte-identical), plus the 5k-SKU sliced sweep. Its
# gates are TestDifferential and the five focused tests that each run
# one catalog under a subset of its configurations. Beside them run the
# tests the harness does not replace: the compiled-base golden hashes
# (TestCompiledBaseGolden: bases byte-identical across commits), update
# byte identity and cache accounting, the solver clone tests (with the
# binary-heavy differential's frozen arm: a frozen solver, its clone and
# its DIMACS round trip agree, clones of one frozen solver search
# identically over its shared implication table, a clone that takes its
# additions as a load equals one that adds them one by one, and a
# solve's deferred final backtrack leaves every entry point's result
# as an eager one would), the CNF conversion's layout, the hw: atoms of
# rules over SKUs outside the candidates (pinned false, sliced and
# unsliced), a SKU allowed twice (a candidate once), the optimizer's
# metamorphic, objective-circuit and maxsat brute-force tests, the
# slicer edge cases, the slice-memo key regression, enumeration above
# the slicing threshold, the 50k catalog smoke, and the
# concurrent-update and reload-under-load tests under the race
# detector. Each -run list lives in a variable that gate-names checks.
DIFF_CORE_RUN = TestDifferential|TestCacheDifferential|TestOptimizeDifferential|TestParetoDifferential|TestEnumerateCacheOffMatchesCacheOn|TestCompiledBaseGolden|TestUpdateKBByteIdentity|TestUpdateKBInstallsCollapsedSlicesOnce|TestKBMutationStalenessOrdering|TestMetamorphic|TestObjective|TestSlice|TestSliceMemoKeyCollision|TestUpdateKBReslicesUnderNewWorkloads|TestEnumerateAboveSliceThreshold|TestRuleHardwareOutsideCandidates|TestSKUAllowedTwice
DIFF_CORE_PKGS = . ./internal/core
DIFF_LOGIC_RUN = TestConvertEquisatisfiable|TestConvertAuxBlocks|TestConvertMatchesOffsetConverters
DIFF_SAT_RUN = TestCloneSearchesIdenticallyUnderRelocation|TestBinaryHeavyDifferential|TestConcurrentClonesOfFrozenSolver|TestCloneLoadMatchesOneByOne|TestDeferredBacktrackTwins
DIFF_MAXSAT_RUN = TestMinimize|TestLexicographic|TestPareto|TestBitDescent
DIFF_EXTRACT_RUN = TestCatalogScale
DIFF_RACE_RUN = TestUpdateKBConcurrentQueries|TestUpdateKBConcurrentUpdates|TestServeReloadUnderLoad|TestQueryAnswersAtOneRevision|TestCacheStatsSnapshotHammer|TestCacheStatsSnapshotHammerSliced
DIFF_RACE_PKGS = ./internal/core ./internal/serve
differential:
	$(GO) test -run='$(DIFF_CORE_RUN)' -count=1 $(DIFF_CORE_PKGS)
	$(GO) test -run='$(DIFF_LOGIC_RUN)' -count=1 ./internal/logic
	$(GO) test -run='$(DIFF_SAT_RUN)' -count=1 ./internal/sat
	$(GO) test -run='$(DIFF_MAXSAT_RUN)' -count=1 ./internal/maxsat
	$(GO) test -run='$(DIFF_EXTRACT_RUN)' -count=1 ./internal/extract
	$(GO) test -race -run='$(DIFF_RACE_RUN)' -count=1 $(DIFF_RACE_PKGS)

# fuzz-smoke runs the fuzz targets briefly so each untrusted-input or
# property contract is exercised on every gate, not only in dedicated
# fuzz sessions: the MaxSAT bounds fuzzer (random weighted objectives
# must yield exact, witnessed, unbeatable optima), the CNF conversion
# fuzzer (under every assignment of a formula's atoms, Convert's clauses
# are satisfiable exactly when the formula is true), the arithmetic fuzzer (random sums and products over constant and
# free operands must evaluate to the integer result), the KB JSON
# fuzzer (kb.Load must decode and validate arbitrary bytes or return an
# error, never panic, and kb.Decode must agree with encoding/json), the
# chaos-spec fuzzer (serve.ParseChaos must
# return an error or a profile whose rate lies in [0,1], never panic),
# the serve body fuzzers (every query-mode body and reload payload
# gets a 200 or a typed error body, never a 500 or a panic) and the DSL
# fuzzers (dsl.ParseString and dsl.ParseExpr must reject arbitrary text
# with an error or accept it and survive a Format/Parse round trip,
# never panic).
FUZZ_SMOKE = ./internal/logic:FuzzConvert ./internal/intlin:FuzzArith ./internal/core:FuzzMaxSATBounds ./internal/kb:FuzzLoadKB ./internal/serve:FuzzParseChaos ./internal/serve:FuzzServeQuery ./internal/serve:FuzzServeReload ./internal/dsl:FuzzParseString ./internal/dsl:FuzzParseExpr
FUZZ_FLAGS_FuzzServeReload = -fuzzminimizetime=1s
FUZZ_FLAGS_FuzzLoadKB = -fuzzminimizetime=1s
fuzz-pkg = $(firstword $(subst :, ,$(1)))
fuzz-name = $(lastword $(subst :, ,$(1)))
define fuzz-run
$(GO) test -run=NONE -fuzz='^$(call fuzz-name,$(1))$$' -fuzztime=10s $(FUZZ_FLAGS_$(call fuzz-name,$(1))) $(call fuzz-pkg,$(1))

endef
fuzz-smoke:
	$(foreach t,$(FUZZ_SMOKE),$(call fuzz-run,$(t)))

# gate-names fails when a name the gates select matches nothing: each
# alternative of the differential and alloc-budget -run lists must
# match a test in the packages its line runs, and each fuzz-smoke target
# must exist in its package. A deleted or renamed test then fails here
# instead of silently dropping out of its gate.
check-run = names="$$($(GO) test -list . $(2) | grep -E '^(Test|Fuzz|Benchmark|Example)')" || exit 1; \
	for alt in $$(echo '$(1)' | tr '|' ' '); do \
		echo "$$names" | grep -Eq -- "$$alt" || { echo "gate-names: $$alt matches no test in $(2)"; exit 1; }; \
	done
gate-names:
	@$(call check-run,$(DIFF_CORE_RUN),$(DIFF_CORE_PKGS))
	@$(call check-run,$(DIFF_LOGIC_RUN),./internal/logic)
	@$(call check-run,$(DIFF_SAT_RUN),./internal/sat)
	@$(call check-run,$(DIFF_MAXSAT_RUN),./internal/maxsat)
	@$(call check-run,$(DIFF_EXTRACT_RUN),./internal/extract)
	@$(call check-run,$(DIFF_RACE_RUN),$(DIFF_RACE_PKGS))
	@$(call check-run,$(ALLOC_RUN),$(ALLOC_PKGS))
	@$(foreach t,$(FUZZ_SMOKE),$(call check-run,^$(call fuzz-name,$(t))$$,$(call fuzz-pkg,$(t)));)

# verify is the full pre-merge gate: tier-1 (build + test) plus static
# analysis, a gofmt check, the race detector over every package, the differential
# harness, the hot-path allocation budgets, the serve lifecycle smoke,
# a fuzz smoke over the untrusted-input parsers and the MaxSAT bounds,
# and a benchmark smoke run.
verify: build vet fmt gate-names test race differential alloc-budget serve-smoke fuzz-smoke bench-smoke

clean:
	$(GO) clean ./...
