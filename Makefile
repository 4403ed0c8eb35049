# Tier-1 verification lives behind `make check`: vet, a full build, and
# the test suite under the race detector with a shuffled test order (the
# cycle-level simulator, the shared platform and the parallel
# experiment engine are the concurrency-sensitive parts).
#
#   make test        - quick gate: build + tests (the ROADMAP tier-1 command)
#   make check       - full gate: vet + staticcheck (if installed) + build
#                      + race-enabled shuffled tests + the bench/ module
#                      + every Go micro-benchmark once + HTTP serve
#                      smoke test (~3 min)
#   make chaos       - crash harness: build the real binary, SIGKILL a
#                      journaled `cryowire dse` mid-search, -resume it,
#                      assert byte-identical output (forks processes;
#                      kept out of `make check`)
#   make serve-smoke - boot `cryowire serve` on a random port, probe
#                      /healthz and /metrics, and diff the experiment
#                      endpoint's JSON against the CLI's -json output
#   make surrogate-smoke - screen-then-verify gate: grid the quick
#                      space, screen it against that journal as prior;
#                      screen must simulate >=3x fewer candidates, its
#                      journal entries must be a byte-identical subset
#                      of the grid's, and the frontiers must match
#   make bench-module - vet and race-test the benchmark harness module
#                      in bench/ (its own go.mod) against this tree
#   make bench-smoke - run every Go micro-benchmark for one iteration,
#                      so the benchmarks keep building and running
#                      (BenchmarkSystemStep steps past its run length)
#   make mutate      - mutation score of the NoC and simulator cycle
#                      loops: ~30 one-operator mutants of noc/router.go,
#                      bus.go, hybrid.go, loadlat.go and sim/engine.go,
#                      corewake.go and wheel.go,
#                      each run through `go test -overlay` on its package
#                      and the root golden tests (the tree is never
#                      written; ~15 min; kept out of `make check`)
#   make bench       - Go micro-benchmarks only (no unit tests); the
#                      end-to-end benchmark is `bash bench/run.sh run
#                      -all` (see bench/README.md)

GO ?= go

.PHONY: all build test vet staticcheck race check chaos mutate bench bench-module bench-smoke serve-smoke surrogate-smoke

all: check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when present, skip (loudly)
# when not, so `make check` works on a bare Go toolchain.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race -shuffle=on ./...

# bench/ is a separate module, so ./... above does not reach it; this
# keeps it compiling (and its own tests passing) against the library.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...

# One iteration of each benchmark: a gate that they build and run, not
# a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

serve-smoke: build
	sh scripts/serve_smoke.sh

surrogate-smoke: build
	sh scripts/surrogate_smoke.sh

# The chaos test forks a real `cryowire dse -journal` process and
# SIGKILLs it mid-search, so it lives behind a build tag and out of the
# -race gate.
chaos:
	$(GO) test -tags chaos -run TestChaos -v ./cmd/cryowire/

# Mutation testing runs the suites once per mutant, so it stays out of
# `make check` and CI.
mutate:
	$(GO) run ./scripts/mutate

check: vet staticcheck build race bench-module bench-smoke serve-smoke

bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...
	@echo "end-to-end benchmark: bash bench/run.sh run -all (see bench/README.md)"
