# Verification entry points. `make check` is what CI should run.

GO ?= go

.PHONY: all build test fmt lint vet race check mc mc-smoke mc-por-smoke trace-smoke sweep-smoke swexd-smoke fuzz-smoke memtier-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt fails when any Go file in the tree is not gofmt-clean, listing it.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs the repository's own static-analysis suite (cmd/swexlint):
# determinism, exhaustive-enum, cycle-math, and panic-hygiene rules over
# every non-test package. See the "Determinism contract" in DESIGN.md.
lint:
	$(GO) run ./cmd/swexlint ./...

vet:
	$(GO) vet ./...

# race runs the race detector over the simulation engine and network
# model, the machine, the sweep orchestrator's worker pool and the
# distributed sweep service, plus the memory-model fuzzing layer whose
# runs ride the sweep worker pool, the memory-tier models that ride the
# mesh's server primitives, and the thread layers: proc's iter.Pull
# coroutines and the applications and runtime library whose thread bodies
# share Go state. The simulation itself is single-threaded by contract,
# so the interesting schedules are in the coroutine switch (a thread body
# must never run beside the engine or another body), the pool merge, and
# the coordinator's lease machinery.
race:
	$(GO) test -race ./internal/sim/... ./internal/mesh/... ./internal/machine/... ./internal/memtier/... ./internal/sweep/... ./internal/swexd/... ./internal/litmus/... ./internal/proc/... ./internal/apps/... ./internal/shm/...

# mc exhausts the model checker's full-depth configurations over the
# whole protocol spectrum, with sleep-set partial-order reduction on
# (each line prints the pruned-edge count; POR preserves every verdict
# and every quiescent state — TestPOREquivalence is the proof). The
# reduction is what makes the deep configurations (4 nodes x 2 blocks,
# 3 nodes x 3 blocks, 3 ops) exhaustible: unreduced, the software-only
# protocol at 3x3 blows through the default state bound. ~10 minutes of
# work; run before protocol changes.
mc:
	$(GO) run ./cmd/swexmc -por -nodes 2 -blocks 1 -ops 4
	$(GO) run ./cmd/swexmc -por -nodes 3 -blocks 1 -ops 3
	$(GO) run ./cmd/swexmc -por -nodes 2 -blocks 2 -ops 3
	$(GO) run ./cmd/swexmc -por -nodes 2 -blocks 2 -ops 3 -watch
	$(GO) run ./cmd/swexmc -por -nodes 4 -blocks 2 -ops 3
	$(GO) run ./cmd/swexmc -por -nodes 3 -blocks 3 -ops 3
	$(GO) run ./cmd/swexmc -por -nodes 3 -blocks 1 -ops 3 -mig -batch

# mc-smoke is the bounded model-checking run wired into `make check`: the
# 2-node spectrum sweep with golden reachable-state counts, POR off (the
# goldens pin the *unreduced* state space).
mc-smoke:
	$(GO) test ./internal/mc/

# mc-por-smoke pins the reduced runs: golden state/transition/slept
# counts for two fast POR configurations, plus the POR-vs-full
# equivalence sweep and the deliberately-unsound-relation fixture that
# proves the equivalence criteria have teeth.
mc-por-smoke:
	$(GO) test ./internal/mc/ -run 'TestPOR'

# sweep-smoke exercises the sweep orchestrator end to end: the determinism
# and crash-resume suites, then the swex CLI cold and warm over one cache
# directory — the warm run must execute zero simulations, before and after
# the journal is compacted.
sweep-smoke:
	$(GO) test ./internal/sweep/ -run 'TestCrashResume|TestCacheRoundTrip|TestCompact' -count=1
	$(GO) test . -run 'TestSweepOutputDeterministic|TestSharedBaselineComputedOnce' -count=1
	d=$$(mktemp -d) && \
	  $(GO) run ./cmd/swex -quick -workers 4 -cache $$d fig2 >/dev/null && \
	  $(GO) run ./cmd/swex -quick -workers 4 -cache $$d fig2 2>&1 >/dev/null | grep -q ' 0 executed' && \
	  $(GO) run ./cmd/swex -status -cache $$d >/dev/null && \
	  $(GO) run ./cmd/swex -cache $$d compact >/dev/null && \
	  $(GO) run ./cmd/swex -quick -workers 4 -cache $$d fig2 2>&1 >/dev/null | grep -q ' 0 executed' && \
	  rm -rf $$d

# swexd-smoke exercises the distributed sweep service end to end: the
# coordinator/worker suite (lease expiry, worker loss mid-lease, the
# HTTP/NDJSON front end, cross-process warm resubmission), then the
# acceptance check — a coordinator with three in-process workers renders
# the full quick exhibit matrix byte-identically to a serial run, and a
# warm resubmission executes zero simulations.
swexd-smoke:
	$(GO) test ./internal/swexd/ -count=1
	$(GO) test . -run 'TestDistributedExhibitsByteIdentical' -count=1

# fuzz-smoke exercises the memory-model fuzzing pipeline end to end: the
# litmus package's oracle suite (verdict tables, cross-validation of the
# two exact decision procedures), then a seeded swexfuzz campaign cold and
# warm over one cache directory — the warm run must execute zero
# simulations and print byte-identical stdout — and finally the negative
# control: a machine weakened to drop an invalidation must be flagged by
# the oracle, proving the pipeline can see a coherence bug.
fuzz-smoke:
	$(GO) test ./internal/litmus/ -count=1
	d=$$(mktemp -d) && \
	  $(GO) run ./cmd/swexfuzz -seed 1 -programs 50 -cache $$d >$$d/cold.out && \
	  $(GO) run ./cmd/swexfuzz -seed 1 -programs 50 -cache $$d 2>$$d/warm.err >$$d/warm.out && \
	  cmp $$d/cold.out $$d/warm.out && \
	  grep -q ' 0 simulation' $$d/warm.err && \
	  rm -rf $$d
	$(GO) run ./cmd/swexfuzz -weakened >/dev/null

# memtier-smoke exercises the memory-tier subsystem end to end: the model's
# unit suite, the model checker's cross-family equivalence and
# directoryless goldens, the litmus corpus under tiered timing with the
# sequential-consistency oracle, and the machine-spectrum exhibit through
# the CLI (all three families plus the directoryless machine in one sweep).
memtier-smoke:
	$(GO) test ./internal/memtier/ -count=1
	$(GO) test ./internal/mc/ -run 'MemTier|Directoryless' -count=1
	$(GO) test ./internal/litmus/ -run 'MemTier|WeakenedFixtureStillCaught' -count=1
	$(GO) run ./cmd/swex -quick tiers >/dev/null

# trace-smoke exercises the tracing pipeline end to end through swexrun:
# a traced run must export, export deterministically (two exports of one
# configuration compare byte for byte), and print the critical-path
# tables, and the directoryless machine (-protocol dls) must trace too.
# The per-package tests assert the details; this is the `make check`
# wiring.
trace-smoke:
	$(GO) test ./internal/trace/
	d=$$(mktemp -d) && \
	  $(GO) run ./cmd/swexrun -worker 4 -iters 2 -nodes 4 -protocol h2 -export $$d/h2.json >/dev/null && \
	  $(GO) run ./cmd/swexrun -worker 4 -iters 2 -nodes 4 -protocol h2 -export $$d/h2-again.json >/dev/null && \
	  cmp $$d/h2.json $$d/h2-again.json && \
	  $(GO) run ./cmd/swexrun -worker 4 -iters 2 -nodes 4 -protocol h2 -critpath >/dev/null && \
	  $(GO) run ./cmd/swexrun -worker 4 -iters 2 -nodes 4 -protocol dls -export $$d/dls.json >/dev/null && \
	  rm -rf $$d

check: fmt vet lint test race mc-smoke mc-por-smoke trace-smoke sweep-smoke swexd-smoke fuzz-smoke memtier-smoke
