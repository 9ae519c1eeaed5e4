# busarb build targets. Everything is plain `go` — this file just names
# the common invocations.

GO ?= go

.PHONY: all build vet lint lint-stats test race bench bench-json bench-gate check cluster-smoke perfbench-check soak fuzz paper examples examples-smoke trace-demo clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The repository's own analyzers (internal/analysis, driven by
# cmd/arblint): determinism, nilprobe, validatecall, seedsrc, allocfree,
# syncguard, goroleak. They mechanically enforce the invariants every
# reproduced table rests on; see docs/LINT.md for the catalogue and
# docs/ARCHITECTURE.md ("Static analysis") for how the engine works.
lint:
	$(GO) run ./cmd/arblint ./...

# Like lint, but also print the per-analyzer finding/suppression table
# — a quick read on how many //arblint:allow escapes the tree carries.
lint-stats:
	$(GO) run ./cmd/arblint -stats ./...

# The worker pool in internal/experiment always runs under the race
# detector, even in the quick tier: it is the only concurrency in the
# repository and a data race there silently corrupts table results.
test:
	$(GO) test ./...
	$(GO) test -race ./internal/experiment/...

race:
	$(GO) test -race ./...

# The full gate: what CI (and a careful PR author) runs. gofmt -l
# prints nothing when the tree is clean; grep flips that into an exit
# status.
check: vet build lint race cluster-smoke examples-smoke perfbench-check
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then echo "gofmt needed:"; echo "$$fmt_out"; exit 1; fi

# Three in-process arbd nodes under the race detector: a fresh binary
# (not the cached `race` run) exercising ring ownership, cross-node
# forwarding, and relay correlation end to end. -count=1 forces the
# run even when the race tier already cached the package.
cluster-smoke:
	$(GO) test -race -run 'TestClusterSmoke|TestForwardingEquivalence|TestRoutedFlagOnWire' -count=1 ./internal/arbd/cluster/

# The benchmark (perfbench/, see BENCHMARK.json) is a module of its
# own that `go test ./...` never enters; vet and test it here so a
# change to arbd, client or the facade cannot break perfbench/run.sh
# unnoticed. Offline: the module only replaces busarb with ../.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Regenerate the sample event trace committed under docs/: a small
# fixed-seed RR1 run through the -trace JSONL exporter.
trace-demo:
	$(GO) run ./cmd/arbsim -n 4 -protocol RR1 -load 1.5 -seed 7 \
		-batches 2 -batchsize 25 -metrics-window 50 \
		-trace docs/trace-demo.jsonl

# One benchmark per paper table/figure plus ablations and micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# The benchmark suite as bench-json and bench-gate run it.
# GOMAXPROCS=1 pins the processor count the snapshots are taken at:
# the Table benches size their worker pool from GOMAXPROCS at package
# init, so allocs/op grows with the core count. It must be set in the
# environment — `-cpu 1` only takes effect after package init.
# -run '^$' runs benchmarks only (`make check` runs the tests): when a
# test fails, `go test` skips its package's benchmarks, and the snapshot
# or the gate would silently cover fewer of them. The output goes to a
# temporary file before benchjson reads it, so a failing `go test`
# fails the target; a pipe would drop its exit status.
BENCH_SUITE = GOMAXPROCS=1 $(GO) test -run '^$$' -bench=. -benchmem

# Archive today's benchmark suite as BENCH_<date>.json (the perf
# trajectory; commit the snapshot alongside perf-relevant PRs), stamped
# with the commit it ran on: commit the change first, then take the
# snapshot. Each benchmark runs three times and benchjson keeps the
# median ns/op and the largest allocs/op.
bench-json:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	{ $(BENCH_SUITE) -count=3 ./... >"$$out" || { cat "$$out"; exit 1; }; } && \
	$(GO) run ./cmd/benchjson -commit $$(git rev-parse --short HEAD) -o BENCH_$$(date +%Y-%m-%d).json <"$$out"

# The bench-regression gate: rerun the suite (short benchtime — only
# allocs/op is compared, and allocation counts don't depend on it) and
# diff against the newest committed snapshot. ns/op is not gated here
# because the hardware differs run to run; use
# `benchjson -compare -ns-threshold=0.25 old new` manually for timing.
BENCHTIME ?= 100ms
bench-gate:
	@out=$$(mktemp) && new=$$(mktemp) && trap 'rm -f "$$out" "$$new"' EXIT && \
	{ $(BENCH_SUITE) -benchtime=$(BENCHTIME) ./... >"$$out" || { cat "$$out"; exit 1; }; } && \
	$(GO) run ./cmd/benchjson -stamp=false -o "$$new" <"$$out" && \
	$(GO) run ./cmd/benchjson -compare -ns-threshold=-1 $$(ls BENCH_*.json | sort | tail -1) "$$new"

# Soak the wall-clock tests whose verdict depends on scheduling: run
# each SOAK times in one process and print how many runs failed. It is
# not part of check or CI; run it on a change and on its parent on the
# same machine to compare flake rates. The verbose output, whose log
# lines carry every run's bandwidth ratios, is kept in SOAK_LOG.
SOAK ?= 20
SOAK_LOG ?= /tmp/busarb-soak.log
soak:
	@: > $(SOAK_LOG)
	@for t in 'TestNetworkedFairness ./internal/arbd/' \
		'TestClusterCapstoneFairness ./internal/arbd/cluster/' \
		'TestRetriesExhausted ./client/'; do \
		set -- $$t; \
		$(GO) test -count=$(SOAK) -v -run "^$$1\$$" $$2 >>$(SOAK_LOG) 2>&1; \
		echo "$$1: $$(grep -c "^--- FAIL: $$1 " $(SOAK_LOG)) of $(SOAK) runs failed"; \
	done

# FUZZTIME is overridable so CI can run a quick smoke
# (`make fuzz FUZZTIME=10s`) while local runs default to 30s per target.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) ./internal/scenario/
	$(GO) test -fuzz=FuzzSettleFindsMax -fuzztime=$(FUZZTIME) ./internal/contention/
	$(GO) test -fuzz=FuzzKernelMatchesSettle -fuzztime=$(FUZZTIME) ./internal/contention/
	$(GO) test -fuzz=FuzzArrivalsMatchCounters -fuzztime=$(FUZZTIME) ./internal/bitarb/
	$(GO) test -fuzz=FuzzSoloMatchesHeap -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -fuzz=FuzzOrderMatchesModel -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -fuzz=FuzzReadJSONL -fuzztime=$(FUZZTIME) ./internal/obs/
	$(GO) test -fuzz=FuzzCodecRoundTrip -fuzztime=$(FUZZTIME) ./internal/arbd/codec/
	$(GO) test -fuzz=FuzzRingStability -fuzztime=$(FUZZTIME) ./internal/arbd/cluster/

# Full-effort reproduction of the paper's evaluation section, with the
# ablations and the priority, cost, robustness and memory-bus studies:
# the run docs/paper_reproduction.txt archives.
paper:
	$(GO) run ./cmd/paper -all -ablations -cost -robustness -priority -membus

examples:
	for d in examples/*/; do echo "=== $$d ==="; $(GO) run ./$$d; done

# The check-tier version of `examples`: run every example silently and
# fail on the first broken one. The examples are documented usage of the
# public API, so a runtime regression there is a break, not doc rot.
examples-smoke:
	@for d in examples/*/; do $(GO) run ./$$d >/dev/null || { echo "example $$d failed"; exit 1; }; done

clean:
	$(GO) clean ./...
