GO ?= go

# Ratcheted coverage floors for the packages that carry the fault-
# injection and degradation contracts (measured 90.2% / 85.6% when the
# gate was introduced, 89.2% for dnn when the out-of-core executor
# landed; raise these as coverage grows, never lower them).
COVER_FLOOR_core   = 88.0
COVER_FLOOR_faults = 83.0
COVER_FLOOR_dnn    = 87.0

.PHONY: build test test-e2e bench bench-smoke bench-json benchdiff check cover-gate race fmt fma-arm64 fuzz-smoke smoke

# benchdiff compares BENCH_report.json (from bench-json) against the
# committed baseline. `make check` and CI run it strict
# (UCUDNN_BENCHDIFF_STRICT=1): a ns/op regression past a benchmark's
# max_regress slack (or any allocs/op increase) fails the build. The
# bare `make benchdiff` stays informational for ad-hoc runs on
# unknown hosts; the per-benchmark slack in BENCH_kernels.json absorbs
# the jitter of the noisy single-core box the gate usually runs on
# (see the host note there).
BENCHDIFF_FLAGS = -informational
ifdef UCUDNN_BENCHDIFF_STRICT
BENCHDIFF_FLAGS =
endif

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# test-e2e runs the full differential + golden end-to-end suite: every
# zoo network forward+backward, undivided vs micro-batched vs
# micro-batched-with-faults, asserting bitwise-identical outputs and
# gradients (see internal/testkit).
test-e2e:
	$(GO) test -count=1 -timeout 1200s ./internal/testkit/

bench:
	$(GO) test -bench=. -benchmem -run=NONE

# bench-smoke is a short pass over the convolution kernel, LRN and pooling
# layer and WD ILP micro-benchmarks (the BENCH_kernels.json baseline):
# enough iterations to catch a kernel that stopped running or started
# allocating, for a quick check by hand (make check runs bench-json, a
# superset of these benchmarks, instead). Like bench-json it runs at -cpu 1: the
# ledger records the engine's serial path, whose allocs/op must be zero
# on whatever host this is (a forked call allocates the closure each of
# its launches runs).
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkConvKernels$$|BenchmarkConvBackwardFilter|BenchmarkConvImplicit|BenchmarkConvPointwise|BenchmarkConvInception3x3|BenchmarkSgemm|BenchmarkLRN|BenchmarkPool' \
		-benchtime=3x -benchmem -cpu 1 ./internal/conv/ ./internal/blas/ ./internal/dnn/
	$(GO) test -run=NONE -bench='BenchmarkILP' -benchtime=20x -benchmem -cpu 1 .

# bench-json runs the kernel micro-benchmarks that back
# BENCH_kernels.json and emits a schema'd report for benchdiff. The raw
# bench output goes through a file, not a pipe, so a test failure is
# not masked by the emitter's exit status. Each benchmark runs three
# times and the emitter keeps the fastest: single 3x runs of the
# sub-millisecond kernels jump 40-60% on a busy host, past any slack.
# The WD ILP solves (the optimizer's entry in the ledger; root package)
# take 0.1-1 ms, so they run 200x: at 3x the first, cache-cold solve is
# a third of the sample and allocs/op rounds unevenly.
bench-json:
	@tmp=$$(mktemp); \
	$(GO) test -run=NONE -bench='BenchmarkConvKernels$$|BenchmarkConvKernelsBatch|BenchmarkConvBackwardFilter|BenchmarkConvImplicit|BenchmarkConvPointwise|BenchmarkConvInception3x3|BenchmarkConvMicroBatch|BenchmarkSgemm|BenchmarkLRN|BenchmarkPool' \
		-benchtime=3x -count 3 -benchmem -cpu 1 ./internal/conv/ ./internal/blas/ ./internal/dnn/ > $$tmp || { cat $$tmp; rm -f $$tmp; exit 1; }; \
	$(GO) test -run=NONE -bench='BenchmarkILP' -benchtime=200x -count 3 -benchmem -cpu 1 . >> $$tmp || { cat $$tmp; rm -f $$tmp; exit 1; }; \
	$(GO) run ./cmd/ucudnn-benchdiff -emit < $$tmp > BENCH_report.json; rm -f $$tmp
	@echo "wrote BENCH_report.json"

benchdiff: BENCH_report.json
	$(GO) run ./cmd/ucudnn-benchdiff $(BENCHDIFF_FLAGS) BENCH_kernels.json BENCH_report.json

BENCH_report.json:
	@$(MAKE) --no-print-directory bench-json

# smoke exercises both report pipelines end to end through the one
# runner command: a real-compute zoo run under -profile (single-column
# AlexNet kept as the PROF_report.json artifact, then Caffe's two-column
# AlexNet, whose grouped convolutions run on channel views) and a
# blob-budgeted traced run exporting the canonical causal timeline, each
# followed by -check (schema + invariants; for the timeline, that
# includes the device stream tiling every iteration with no gap).
# PROF_report.json and TRACE_timeline.json are kept as CI artifacts next
# to BENCH_report.json. It then builds and runs every example, from a
# temporary directory so the files they write stay out of the checkout.
EXAMPLES = quickstart training inception_wd pareto

smoke:
	$(GO) run ./cmd/ucudnn-time -net alexnet -batch 8 -iters 1 -mode wr -ws 64 -profile PROF_report.json
	$(GO) run ./cmd/ucudnn-time -check PROF_report.json
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/ucudnn-time -net caffe-alexnet -batch 4 -iters 1 -mode wr -ws 64 -profile $$tmp && \
		$(GO) run ./cmd/ucudnn-time -check $$tmp; st=$$?; rm -f $$tmp; exit $$st
	$(GO) run ./cmd/ucudnn-time -net alexnet -batch 16 -iters 1 -mode wd -total 256 -blob-budget 48 \
		-ws 64 -timeline TRACE_timeline.json
	$(GO) run ./cmd/ucudnn-time -check TRACE_timeline.json
	@tmp=$$(mktemp -d); \
	for ex in $(EXAMPLES); do \
		$(GO) build -o $$tmp/$$ex ./examples/$$ex && (cd $$tmp && ./$$ex > $$ex.out) || \
			{ echo "example $$ex failed"; cat $$tmp/$$ex.out 2>/dev/null; rm -rf $$tmp; exit 1; }; \
		echo "example $$ex: ok"; \
	done; \
	rm -rf $$tmp

# fuzz-smoke gives each committed fuzz target a short budget: long
# enough to replay the corpus and probe nearby inputs, short enough for
# the pre-commit gate.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzDescriptors -fuzztime=5s ./internal/cudnn/
	$(GO) test -run=NONE -fuzz=FuzzILP -fuzztime=5s ./internal/ilp/
	$(GO) test -run=NONE -fuzz=FuzzOOCSchedule -fuzztime=5s ./internal/dnn/

# cover-gate fails when internal/core or internal/faults coverage drops
# below its ratcheted floor, so the degradation ladder and fault registry
# cannot silently lose their tests.
cover-gate:
	@for spec in core:$(COVER_FLOOR_core) faults:$(COVER_FLOOR_faults) dnn:$(COVER_FLOOR_dnn); do \
		pkg=$${spec%%:*}; min=$${spec##*:}; prof=$$(mktemp); \
		$(GO) test -count=1 -coverprofile=$$prof ./internal/$$pkg/ >/dev/null || { rm -f $$prof; exit 1; }; \
		got=$$($(GO) tool cover -func=$$prof | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		rm -f $$prof; \
		echo "coverage internal/$$pkg: $$got% (floor $$min%)"; \
		if [ "$$(awk -v g=$$got -v m=$$min 'BEGIN{print (g+0 >= m+0)}')" != 1 ]; then \
			echo "coverage gate: internal/$$pkg fell below $$min%"; exit 1; fi; \
	done

# race runs the concurrency-sensitive packages (metrics registry, core
# handle, trace recorder, fault registry, profiler, plus the striped
# kernel engine and its BLAS and worker-pool layers) under the race
# detector; the e2e harness runs in -short mode (two networks) to keep
# the pass affordable.
race:
	$(GO) test -race ./internal/obs/... ./internal/core/... ./internal/trace/... \
		./internal/conv/... ./internal/blas/... ./internal/faults/... \
		./internal/prof/... ./internal/dnn/...
	$(GO) test -race -short -count=1 -timeout 1200s ./internal/testkit/

# fma-arm64 builds the arm64 test binary of each package in FMA_PKGS and
# fails if a non-test file of that package compiled to a fused
# multiply-add instruction: Go lets a compiler fuse x*y + z (the arm64
# backend does) wherever the source does not forbid it. The dnn layers
# multiply, round, then add, as their amd64 code does; blas's one fused
# operation is the correctly rounded float32 FMA its Go twins spell out
# in float64 (fma32), which must match VFMADD231PS bit for bit. Both
# packages therefore round every product explicitly, and this keeps any
# implicit fusion out.
FMA_PKGS = blas dnn

fma-arm64:
	@tmp=$$(mktemp); total=0; \
	for pkg in $(FMA_PKGS); do \
		GOARCH=arm64 $(GO) test -c -o $$tmp ./internal/$$pkg/ || { rm -f $$tmp; exit 1; }; \
		sites=$$($(GO) tool objdump -s "ucudnn/internal/$$pkg\." $$tmp | grep -E '[[:space:]]FN?M(ADD|SUB)' | grep -v '_test\.go:'); \
		n=$$(printf '%s' "$$sites" | grep -c .); \
		echo "fused multiply-adds in non-test arm64 $$pkg code: $$n"; \
		if [ "$$n" -ne 0 ]; then echo "$$sites"; total=$$((total + n)); fi; \
	done; \
	rm -f $$tmp; \
	[ "$$total" -eq 0 ]

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# check is the pre-commit gate: tier-1 build+test plus vet, formatting,
# the coverage gate, the race pass, the fuzz smoke run, the
# report-pipeline smoke run and the strict kernel benchdiff. bench-smoke
# is not a step: bench-json runs a superset of its benchmarks and fails
# on a benchmark failure the same way, and allocs/op is benchdiff's gate.
check: build
	$(GO) vet ./...
	@$(MAKE) --no-print-directory fmt
	$(GO) test ./...
	@$(MAKE) --no-print-directory cover-gate
	@$(MAKE) --no-print-directory race
	@$(MAKE) --no-print-directory fuzz-smoke
	@$(MAKE) --no-print-directory smoke
	@$(MAKE) --no-print-directory bench-json
	@$(MAKE) --no-print-directory benchdiff UCUDNN_BENCHDIFF_STRICT=1
