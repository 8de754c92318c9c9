# Tier-1 verification targets. `make check` is the full gate: vet,
# build, and the test suite under the race detector.

GO ?= go

.PHONY: check vet build test race bench soak prof

check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# The repository benchmark (perfbench, declared in BENCHMARK.json): each
# workload runs seeded episodes for 35 s and prints its end-to-end
# metrics as one JSON line (see perfbench/README.md; --trace 1 adds the
# per-layer metrics).
bench:
	for w in gups-hemem gups-mm fleet; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 35 --trace 0 || exit 1; \
	done

# Profile the whole experiment suite serially: CPU + allocation pprof
# profiles (see "Profiling the simulator" in EXPERIMENTS.md). Inspect
# with `go tool pprof cpu.pprof`.
prof:
	$(GO) run ./cmd/hemem-bench -exp all -jobs 1 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null

# Bounded chaos soak: the seeded chaos scheduler drives compound fault
# episodes, correctable-error storms, and CXL offline/online cycles
# through a GUPS run under the race detector, with the invariant
# auditor checking conservation every quantum. CHAOS_LOG names the
# replayable episode-log artifact.
CHAOS_LOG ?= chaos-episodes.log
soak:
	CHAOS_LOG=$(CHAOS_LOG) $(GO) test -race -run Chaos -timeout 10m -v ./internal/bench/
