package diffcheck

import (
	"fmt"

	"lmerge/internal/core"
	"lmerge/internal/partition"
	"lmerge/internal/spill"
	"lmerge/internal/temporal"
)

// diffPartitions is the partition count of the partitioned executor axes —
// small enough to keep the grid cheap, large enough that routing, stable
// broadcast, and frontier reunification all carry real traffic.
const diffPartitions = 3

// Algo names one merge algorithm + policy point on the differential grid.
type Algo uint8

// The algorithm axis: the five restriction cases, the naive baseline, the R2
// multiset relaxation, and the R3 output-policy variants of Sec. V-A.
const (
	AlgoR0 Algo = iota
	AlgoR1
	AlgoR2
	AlgoR2Dup
	AlgoR3
	AlgoR3Eager
	AlgoR3HalfFrozen
	AlgoR3FullyFrozen
	AlgoR3Quorum2
	AlgoR3Leader
	AlgoR3Naive
	AlgoR4
	algoCount // sentinel
)

// String names the algorithm.
func (a Algo) String() string {
	switch a {
	case AlgoR0:
		return "R0"
	case AlgoR1:
		return "R1"
	case AlgoR2:
		return "R2"
	case AlgoR2Dup:
		return "R2dup"
	case AlgoR3:
		return "R3"
	case AlgoR3Eager:
		return "R3/eager"
	case AlgoR3HalfFrozen:
		return "R3/half-frozen"
	case AlgoR3FullyFrozen:
		return "R3/fully-frozen"
	case AlgoR3Quorum2:
		return "R3/quorum2"
	case AlgoR3Leader:
		return "R3/leader"
	case AlgoR3Naive:
		return "R3naive"
	case AlgoR4:
		return "R4"
	}
	return fmt.Sprintf("Algo(%d)", uint8(a))
}

// NewMerger constructs the algorithm's merger with output callback emit.
func (a Algo) NewMerger(emit core.Emit) core.Merger {
	switch a {
	case AlgoR0:
		return core.NewR0(emit)
	case AlgoR1:
		return core.NewR1(emit)
	case AlgoR2:
		return core.NewR2(emit)
	case AlgoR2Dup:
		return core.NewR2Dup(emit)
	case AlgoR3:
		return core.NewR3(emit)
	case AlgoR3Eager:
		return core.NewR3(emit, core.R3Options{Adjust: core.AdjustEager})
	case AlgoR3HalfFrozen:
		return core.NewR3(emit, core.R3Options{Insert: core.InsertHalfFrozen})
	case AlgoR3FullyFrozen:
		return core.NewR3(emit, core.R3Options{Insert: core.InsertFullyFrozen})
	case AlgoR3Quorum2:
		return core.NewR3(emit, core.R3Options{Insert: core.InsertQuorum, Quorum: 2})
	case AlgoR3Leader:
		return core.NewR3(emit, core.R3Options{Follow: core.FollowLeader})
	case AlgoR3Naive:
		return core.NewR3Naive(emit)
	case AlgoR4:
		return core.NewR4(emit)
	}
	panic(fmt.Sprintf("diffcheck: unknown algorithm %d", uint8(a)))
}

// NewPartitionedMerger constructs the algorithm behind the keyed scale-out
// wrapper: parts independent instances fed by payload-hash routing with
// stables broadcast, reunified at the minimum partition frontier. The wrapper
// satisfies core.Merger, so the differential harness drives it exactly like
// the single-instance mergers.
func (a Algo) NewPartitionedMerger(parts int, emit core.Emit) core.Merger {
	return partition.NewWith(parts, func(e core.Emit) core.Merger { return a.NewMerger(e) }, emit)
}

// handoffCapable reports whether the algorithm's merger supports live state
// handoff (core.Handoff) — the eligibility gate for the migration-forcing
// ExecPartitionedRebal axis.
func (a Algo) handoffCapable() bool {
	h, ok := a.NewMerger(func(temporal.Element) {}).(core.Handoff)
	return ok && h.HandoffCapable()
}

// snapshotCapable reports whether the algorithm's merger can checkpoint
// (core.Snapshotter) — the eligibility gate for the crash-recovery axis,
// matching the server's -data-dir gate.
func (a Algo) snapshotCapable() bool {
	_, ok := a.NewMerger(func(temporal.Element) {}).(core.Snapshotter)
	return ok
}

// spillCapable reports whether the algorithm's merger supports frozen-state
// extraction (core.FrozenExtractor) — the eligibility gate for the
// out-of-core spill axes, matching the server's -mem-budget gate.
func (a Algo) spillCapable() bool {
	return spill.Capable(a.NewMerger(func(temporal.Element) {}))
}

// Exec selects the execution substrate a configuration runs on.
type Exec uint8

const (
	// ExecDirect drives the core merger with direct Process calls in a
	// deterministic interleaving — no engine involved.
	ExecDirect Exec = iota
	// ExecSync drives an engine graph through the synchronous depth-first
	// executor (deterministic).
	ExecSync
	// ExecRuntime drives the same graph through the concurrent runtime with
	// the default dispatch batch size (one goroutine per stream, one per
	// node, nondeterministic interleaving).
	ExecRuntime
	// ExecRuntimeUnbatched is ExecRuntime with batch size 1 (the pre-batching
	// element-at-a-time channel protocol).
	ExecRuntimeUnbatched
	// ExecPartitioned drives the keyed-partitioned merger (diffPartitions
	// sub-mergers behind hash routing and frontier reunification) with direct
	// Process calls in a deterministic interleaving — the scale-out subsystem
	// in its synchronous core.Merger form, subject to the same oracle and
	// snapshot checks as ExecDirect.
	ExecPartitioned
	// ExecPartitionedRebal is ExecPartitioned with deterministic key-range
	// migrations forced between deliveries: every few elements a routing slot
	// is transplanted to another partition (core.Handoff), so the oracle,
	// snapshot, and frozen-surface checks all run against a merger whose
	// key→partition assignment churns mid-stream.
	ExecPartitionedRebal
	// ExecSharded drives the concurrent form, the partition.Sharded pool
	// lmserved runs: one goroutine per presentation calling ProcessBatch in
	// small batches against diffPartitions workers and, for handoff-capable
	// algorithms, one more goroutine sweeping MigrateSlot over (seed, step)-
	// derived slots for as long as the publishers run. The interleaving is
	// the scheduler's, so a divergence here may not replay.
	ExecSharded
	// ExecCrashRecover crashes the merger mid-sweep and rebuilds it through
	// the durability tier's own machinery: emissions are framed as WAL RecEmit
	// records (with a seed-derived torn tail that checksum truncation must
	// absorb), the snapshot is round-tripped through the checkpoint codec, and
	// the fresh merger is jumpstarted from snapshot + WAL tail before the full
	// streams are redelivered — the in-process twin of the server's kill -9
	// recovery, subject to the same oracle and frozen-surface checks.
	ExecCrashRecover
	// ExecSpill is ExecDirect with the merger wrapped in the out-of-core
	// spill layer (internal/spill) under a pathological 1-byte budget and
	// per-element probing, so every frozen-eligible node is forced through a
	// spill/consult/unspill round trip and the background run merger churns
	// constantly — the oracle, snapshot, and frozen-surface checks then cover
	// state that lives in runs rather than the resident index.
	ExecSpill
	// ExecSpillCrash is ExecCrashRecover with BOTH phases' mergers
	// spill-wrapped: the checkpoint snapshot must replay spilled runs, and the
	// jumpstarted merger re-spills under the same starvation budget while
	// absorbing redelivery.
	ExecSpillCrash
	execCount // sentinel
)

// partitioned reports whether the exec mode runs the keyed scale-out path.
func (x Exec) partitioned() bool {
	return x == ExecPartitioned || x == ExecPartitionedRebal || x == ExecSharded
}

// concurrent reports whether the exec mode's interleaving is left to the
// scheduler, so that a divergence may not reproduce on every run.
func (x Exec) concurrent() bool {
	return x == ExecRuntime || x == ExecRuntimeUnbatched || x == ExecSharded
}

// String names the execution mode.
func (x Exec) String() string {
	switch x {
	case ExecDirect:
		return "direct"
	case ExecSync:
		return "sync"
	case ExecRuntime:
		return "runtime"
	case ExecRuntimeUnbatched:
		return "runtime/unbatched"
	case ExecPartitioned:
		return fmt.Sprintf("partitioned-%d", diffPartitions)
	case ExecPartitionedRebal:
		return fmt.Sprintf("partitioned-%d/rebal", diffPartitions)
	case ExecSharded:
		return fmt.Sprintf("sharded-%d", diffPartitions)
	case ExecCrashRecover:
		return "crash-recover"
	case ExecSpill:
		return "spill"
	case ExecSpillCrash:
		return "spill-crash"
	}
	return fmt.Sprintf("Exec(%d)", uint8(x))
}

// Pipeline selects the downstream operator plan appended to the merge.
type Pipeline uint8

const (
	// PipeNone compares the raw merge output against the oracle.
	PipeNone Pipeline = iota
	// PipeUnion splits every presentation into two halves re-interleaved by a
	// per-input Union ahead of the merge (union→lmerge), exercising the
	// union's min-stable logic inside the differential loop. Output is still
	// oracle-comparable.
	PipeUnion
	// PipeCount appends a conservative tumbling-window count downstream of
	// the merge (lmerge→count); outputs are compared pairwise across
	// configurations.
	PipeCount
	// PipeCountAggressive appends the speculative count, whose corrections
	// exercise removal/re-insert handling downstream of every algorithm.
	PipeCountAggressive
	// PipeTopK appends the Top-K ranked aggregate (lmerge→topk).
	PipeTopK
	pipelineCount // sentinel
)

// String names the pipeline.
func (p Pipeline) String() string {
	switch p {
	case PipeNone:
		return "none"
	case PipeUnion:
		return "union"
	case PipeCount:
		return "count"
	case PipeCountAggressive:
		return "count/aggr"
	case PipeTopK:
		return "topk"
	}
	return fmt.Sprintf("Pipeline(%d)", uint8(p))
}

// Config is one cell of the differential grid.
type Config struct {
	Algo     Algo
	Exec     Exec
	Pipeline Pipeline
	// Order is the deterministic delivery interleaving for ExecDirect,
	// ExecPartitioned, ExecPartitionedRebal, and ExecSync: "roundrobin",
	// "sequential", or "random" (seed-driven).
	// Ignored by the concurrent runtimes, whose interleaving is scheduling.
	Order string
}

// String renders the cell compactly for reports.
func (c Config) String() string {
	s := fmt.Sprintf("%v/%v", c.Algo, c.Exec)
	if c.Pipeline != PipeNone {
		s += "/" + c.Pipeline.String()
	}
	if c.Order != "" && (c.Exec == ExecDirect || c.Exec == ExecSync ||
		c.Exec == ExecPartitioned || c.Exec == ExecPartitionedRebal ||
		c.Exec == ExecCrashRecover || c.Exec == ExecSpill ||
		c.Exec == ExecSpillCrash) {
		s += "/" + c.Order
	}
	return s
}

// oracleComparable reports whether the configuration's output stream should
// reconstitute to the oracle TDB itself (true for raw merges and the
// union-fronted merge; aggregate pipelines are compared pairwise instead).
func (c Config) oracleComparable() bool {
	return c.Pipeline == PipeNone || c.Pipeline == PipeUnion
}
