# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-race race allocs perf-smoke bench cover fmt vet check loc experiments examples explore viz bench-profile bench-profile-test

all: build test

build:
	go build ./...

test:
	go test ./...

# The race detector matters most for the substrates with real
# concurrency — livenet's dispatcher/timer goroutines and tcpnet's
# socket read loops — but the whole tree runs under it.
test-race:
	go test -race ./...

race: test-race

# allocs runs every allocation pin on the message path: what a kernel
# event, a constant-delay timeout waiting in its FIFO
# (TestTimeoutsAllocBudget), a causal stamp (and held-back bursts within a
# channel's high-water mark, TestHeldBackBurstAllocBudget), a codec round trip (and a decode of a hostile
# list length, TestDecodeAllocBudgetHostileLength), a wired or radio hop, a
# windowed-radio frame, a server job, a station's self-send, a warm
# request round trip and a warm host's requests across a hand-off cycle
# (the server's reply each: TestRequestRoundTripAllocBudget, over the E10
# stack too, and TestWarmHostRequestCycleAllocBudget), a pref
# change in the aggregated table, the recovery stack's records (a full
# result cache's miss, Put and eviction, an offline journal rewrite, a
# hand-off timeout's timer), and a cross-region frame or script
# event of the partitioned engine may allocate once warm — that the
# kernel's heap and free lists let a drained burst go, and that its heap
# holds one wheel slot's events (HeapHolds). The pins use
# testing.AllocsPerRun, so they run without the race detector.
allocs:
	go test -count=1 -run 'Alloc|Budget|Shrink|HeapHolds' ./internal/sim ./internal/causal ./internal/msg \
		./internal/netsim ./internal/wtp ./internal/server ./internal/rdpcore ./internal/psim \
		./internal/dcache

# perf-smoke runs the yardstick itself for a second a workload, the way
# the benchmark driver does, and fails unless each run's result line says
# its outputs were correct and no operation failed: perf/ checks what the
# tests do not (every Stats counter equal across repetitions,
# CheckQuiescent clean), and a change should meet those checks before it
# is judged by them.
perf-smoke:
	@for w in cell_mobility lossy_radio fault_recovery region_scale; do \
		line=$$(bash perf/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		case "$$line" in \
		*'"correct":true,'*'"failed":0,'*) echo "perf-smoke: $$w ok" ;; \
		*) echo "perf-smoke: $$w: $$line"; exit 1 ;; \
		esac; \
	done

# check is the full pre-commit gate: formatting, vet, the station's doors
# (scripts/station-doors.sh: one timer door, one journal writer), the one
# driver (scripts/one-driver.sh: host scripts are generated and
# interpreted only in internal/workload), build, tests (among them
# design_test.go: every name DESIGN.md quotes is declared in the tree,
# §4's key types in their package), the allocation pins, the race sweep
# of everything that owns a free list (the E14 serial==parallel property
# harness, the kernel's event stock and the arena psim's workers share,
# the pooled frame records under psim regions and livenet's dispatcher —
# first, because a data race there invalidates the rest), and the
# whole-tree race sweep.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	sh scripts/station-doors.sh
	sh scripts/one-driver.sh
	go build ./...
	go test ./...
	$(MAKE) allocs
	go test -race ./internal/psim ./internal/sim ./internal/netsim ./internal/livenet
	go test -race -run TestChaosMHCrash ./internal/rdpcore
	go test -race ./...

# loc prints, per package, the non-test Go lines and how many of them are
# neither blank nor comment — the size figures CHANGES.md quotes.
loc:
	sh scripts/loc.sh

bench:
	go test -bench=. -benchmem .

# Profile a quick evaluation pass: writes cpu.pprof and mem.pprof in the
# repo root (gitignored) for `go tool pprof`. The script removes stale
# profiles up front and, via an EXIT trap, removes partial ones when the
# run errors or panics mid-experiment — a failed pass can't leave a
# profile masquerading as this run's.
bench-profile:
	sh scripts/bench-profile.sh

# Verify the bench-profile cleanup: a run that fails (unknown
# experiment) must exit nonzero and leave no .prof files behind.
bench-profile-test:
	@if sh scripts/bench-profile.sh -exp does-not-exist >/dev/null 2>&1; then \
		echo "bench-profile-test: failing run exited 0"; exit 1; fi
	@if [ -e cpu.pprof ] || [ -e mem.pprof ]; then \
		echo "bench-profile-test: stale profiles left behind"; exit 1; fi
	@echo "bench-profile-test: ok"

cover:
	go test -cover ./...

fmt:
	gofmt -w .

vet:
	go vet ./...

# Regenerate the full evaluation tables (the source of EXPERIMENTS.md).
experiments:
	go run ./cmd/rdpbench

# explore walks every adversary-gated scenario under 20 000 random
# delivery orders (about 25 s) and enumerates the tiny trees.
explore:
	go run ./cmd/rdpexplore -schedules 20000
	go run ./cmd/rdpexplore -exhaustive

# Draw the paper's Figures 3 and 4 as space-time diagrams.
viz:
	go run ./cmd/rdpviz -scenario fig3
	go run ./cmd/rdpviz -scenario fig4

examples:
	go run ./examples/quickstart
	go run ./examples/traffic
	go run ./examples/subscribe
	go run ./examples/loadbalance
	go run ./examples/groupchat
	go run ./examples/tcp
	go run ./examples/chaos
