# Standard developer entry points; everything is stdlib-only Go.

GO ?= go

.PHONY: all check build vet test race stress cover bench bench-e2e chaos partition-soak rebalance-soak crash-soak spill-soak fanout-soak fuzz examples experiments scale diffcheck diffcheck-race clean

all: build vet test

# Everything CI cares about: compile, vet, full tests, race on the
# concurrent packages, the repeated-run stress of the tests that have flaked,
# the seeded chaos soaks (single-instance and partitioned), the
# adaptive-repartitioning soak, the crash/recover soak, the
# budget-constrained out-of-core spill soak, the broadcast fan-out soak, a
# race-enabled differential sweep over the trimmed config grid, and every
# example run end to end.
check: build vet test race stress cover chaos partition-soak rebalance-soak crash-soak spill-soak fanout-soak diffcheck-race examples

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The pool and the server are the packages whose goroutines share state, so
# they run at several GOMAXPROCS: 1 serialises every interleaving the others
# allow.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -short -cpu 1,2,4 ./internal/partition/ ./internal/server/

# The tests that were red some runs in ten on a 2-CPU box before PR 13, many
# times over. Any failure is a bug in the code or the test: no retries.
stress:
	$(GO) test -count=50 -cpu 1,2,4 -run 'TestShardedMigrateMidStream|TestRebalanceSoak|TestSyncMigrateSlot|TestMigrateUnreadableSpillRun|TestCutDuringMigrations' ./internal/partition/
	$(GO) test -count=30 -run 'TestFanLoopEvictionDeadline|TestSubscriberResume|TestServerRebalancingBackend' ./internal/server/

# Coverage with enforced floors on the merge kernel, the telemetry layer,
# the wire codec (cursor log included), and the server (event-loop delivery
# plane included): the packages where a silent coverage regression would
# hurt the most.
COVER_FLOOR_CORE   ?= 85
COVER_FLOOR_OBS    ?= 85
COVER_FLOOR_WIRE   ?= 80
COVER_FLOOR_SERVER ?= 80
cover:
	$(GO) test -cover ./...
	@$(GO) test -coverprofile=/tmp/lmerge-core.cover ./internal/core/ > /dev/null
	@$(GO) test -coverprofile=/tmp/lmerge-obs.cover ./internal/obs/ > /dev/null
	@$(GO) test -coverprofile=/tmp/lmerge-wire.cover ./internal/wire/ > /dev/null
	@$(GO) test -coverprofile=/tmp/lmerge-server.cover ./internal/server/ > /dev/null
	@$(GO) tool cover -func=/tmp/lmerge-core.cover | awk -v floor=$(COVER_FLOOR_CORE) \
		'/^total:/ { sub(/%/, "", $$3); if ($$3+0 < floor) { printf "FAIL: internal/core coverage %s%% below floor %d%%\n", $$3, floor; exit 1 } \
		else printf "internal/core coverage %s%% (floor %d%%)\n", $$3, floor }'
	@$(GO) tool cover -func=/tmp/lmerge-obs.cover | awk -v floor=$(COVER_FLOOR_OBS) \
		'/^total:/ { sub(/%/, "", $$3); if ($$3+0 < floor) { printf "FAIL: internal/obs coverage %s%% below floor %d%%\n", $$3, floor; exit 1 } \
		else printf "internal/obs coverage %s%% (floor %d%%)\n", $$3, floor }'
	@$(GO) tool cover -func=/tmp/lmerge-wire.cover | awk -v floor=$(COVER_FLOOR_WIRE) \
		'/^total:/ { sub(/%/, "", $$3); if ($$3+0 < floor) { printf "FAIL: internal/wire coverage %s%% below floor %d%%\n", $$3, floor; exit 1 } \
		else printf "internal/wire coverage %s%% (floor %d%%)\n", $$3, floor }'
	@$(GO) tool cover -func=/tmp/lmerge-server.cover | awk -v floor=$(COVER_FLOOR_SERVER) \
		'/^total:/ { sub(/%/, "", $$3); if ($$3+0 < floor) { printf "FAIL: internal/server coverage %s%% below floor %d%%\n", $$3, floor; exit 1 } \
		else printf "internal/server coverage %s%% (floor %d%%)\n", $$3, floor }'

# Every Go benchmark, internal/spill's idle-budget pair included
# (BenchmarkSpillIdleBudget vs BenchmarkBareLiveState: what a budget that
# never binds costs per element).
bench:
	$(GO) test -bench=. -benchmem ./...

# One end-to-end run of one workload against a real lmserved child, as the
# acceptance driver invokes it (see benchmark/README.md):
#   make bench-e2e W=bigstate SEED=1 TRACE=0
W     ?= steady
SEED  ?= 1
TRACE ?= 0
bench-e2e:
	$(GO) run ./benchmark --workload $(W) --seed $(SEED) --seconds 16 --trace $(TRACE)

# Seeded end-to-end fault drill: chaos soak + failover-latency measurement
# (see DESIGN.md §6 and the failover section of EXPERIMENTS.md).
chaos:
	$(GO) test -race -v -run 'TestChaosSoak|TestFailoverLatency' ./internal/chaos/

# Race-enabled randomized soak of the partitioned execution subsystem:
# chaotic attach/detach/feedback over the Sharded pool, checked against
# the script oracle (see DESIGN.md §8).
partition-soak:
	$(GO) test -race -v -run TestPartitionedChaosSoak ./internal/partition/

# Race-enabled soak of slot migration: concurrent publishers vs forced slot
# migrations, plus the adaptive hot-slot controller at an aggressive cadence
# (see DESIGN.md §11).
rebalance-soak:
	$(GO) test -race -v -run 'TestShardedMigrateMidStream|TestRebalanceSoak' ./internal/partition/

# Race-enabled seeded crash/recover loop: kill -9 images (torn WAL tails,
# corrupted checkpoints) across backend shapes, each recovery checked
# against the no-crash oracle, plus the kill -9 e2e against a real child
# process (see DESIGN.md §12).
crash-soak:
	$(GO) test -race -v -run 'TestCrashSoak|TestCrashRestart' ./internal/server/
	$(GO) test -race -v -run TestKill9 ./cmd/lmserved/

# Race-enabled soak of the out-of-core tier: accumulating long-lived state
# against a 32 KiB resident budget, with the background run compactor racing
# the merge path (see DESIGN.md §13).
spill-soak:
	$(GO) test -race -v -run 'TestSpillSoak|TestSpillEquivalence' ./internal/spill/

# Race-enabled broadcast fan-out fault drill: 200 chaos-faulted binary+text
# subscribers plus an idle pause/resume cohort and an attach/abandon churn
# storm on one server, exact-TDB equivalence across both protocols (see
# DESIGN.md §14-15).
fanout-soak:
	$(GO) test -race -v -run TestFanoutSoak ./internal/chaos/

# Short fuzz sessions over the wire codec, reconstitution, the server
# handshake/frame parser, the v2 binary frame decoder, the credit/cursor
# control plane, and the WAL record and spill-run decoders.
fuzz:
	$(GO) test ./internal/temporal/ -fuzz FuzzUnmarshalElement -fuzztime 30s
	$(GO) test ./internal/temporal/ -fuzz FuzzReconstitute -fuzztime 30s
	$(GO) test ./internal/server/ -run FuzzParseFrame -fuzz FuzzParseFrame -fuzztime 30s
	$(GO) test ./internal/wire/ -run FuzzBinaryFrame -fuzz FuzzBinaryFrame -fuzztime 30s
	$(GO) test ./internal/wire/ -run FuzzCreditLedger -fuzz FuzzCreditLedger -fuzztime 30s
	$(GO) test ./internal/durable/ -run FuzzWALDecode -fuzz FuzzWALDecode -fuzztime 30s
	$(GO) test ./internal/durable/ -run FuzzRunDecode -fuzz FuzzRunDecode -fuzztime 30s

# Differential correctness sweep: every algorithm × executor × pipeline
# against the brute-force oracle (see DESIGN.md §7), the concurrent
# partition.Sharded pool under a migration sweep (sharded-3) among the
# executors. Any divergence is a bug; failures print a minimized
# ready-to-paste regression test.
diffcheck:
	$(GO) run ./cmd/lmcheck -seeds 500

# Short race-enabled sweep over the trimmed grid (every executor, sharded-3
# included), part of `make check`.
diffcheck-race:
	$(GO) run -race ./cmd/lmcheck -seeds 25 -quick

# Build and run every example; each exits non-zero when its merged output
# is not the logical result it checks against.
examples:
	@for e in examples/*/; do echo "== $$e"; $(GO) run ./$$e || exit 1; done

# Regenerate every paper figure/table at paper scale (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/lmbench

# Keyed scale-out curve: throughput vs partition count, uniform,
# hot-key-skewed and rebalanced (see EXPERIMENTS.md "Scaling"): the only
# measurement of -partitions > 2 and -rebalance.
scale:
	$(GO) run ./cmd/lmbench -exp scale -events 100000 -payload 64

clean:
	$(GO) clean ./...
