package server

import (
	"sync"
	"sync/atomic"

	"lmerge/internal/core"
	"lmerge/internal/obs"
	"lmerge/internal/partition"
	"lmerge/internal/temporal"
)

// backend is the merge engine behind the server: the classic single operator
// or the keyed scale-out pool (Options.Partitions). Implementations are
// internally synchronised — the server never holds its own locks across a
// backend call, so a backend may block (worker queues) or call back into the
// server (broadcast, fast-forward) without lock-ordering hazards.
type backend interface {
	Attach(joinTime temporal.Time) core.StreamID
	Detach(id core.StreamID)
	ProcessBatch(id core.StreamID, els []temporal.Element) error
	// MaxStable is safe from any goroutine without waiting on merge work
	// (both implementations keep it in an atomic), so the straggler
	// supervisor can read it while holding server state locks.
	MaxStable() temporal.Time
	Stats() core.Stats
	// PartitionStats returns per-partition load gauges; nil for the single
	// backend.
	PartitionStats() []partition.PartitionStat
	// SizeBytes estimates the merge state footprint. The mergers keep it as
	// a running total, so it is cheap enough for every /metrics scrape and
	// stats tick: the single backend reads it under its lock, the sharded
	// one sums per-worker atomics without touching the worker queues.
	SizeBytes() int
	Close() error
}

// singleBackend adapts one core.Operator to the backend interface, supplying
// the serialisation the server lock used to provide and tracking the stable
// point atomically so supervision never orders against the merge path.
type singleBackend struct {
	mu        sync.Mutex
	op        *core.Operator
	maxStable atomic.Int64
}

func newSingleBackend(c core.Case, emit core.Emit, fb core.FeedbackFunc, lag temporal.Time, tel *obs.Node, wrap func(part int, m core.Merger) core.Merger) *singleBackend {
	b := &singleBackend{}
	b.maxStable.Store(int64(temporal.MinTime))
	wrapped := func(e temporal.Element) {
		if e.Kind == temporal.KindStable {
			b.maxStable.Store(int64(e.T()))
		}
		emit(e)
	}
	var opOpts []core.OperatorOption
	if fb != nil {
		opOpts = append(opOpts, core.WithFeedback(fb, lag))
	}
	if tel != nil {
		opOpts = append(opOpts, core.WithObserver(tel))
	}
	m := core.New(c, wrapped)
	if wrap != nil {
		m = wrap(0, m)
	}
	b.op = core.NewOperator(m, opOpts...)
	return b
}

func (b *singleBackend) Attach(joinTime temporal.Time) core.StreamID {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.op.Attach(joinTime)
}

func (b *singleBackend) Detach(id core.StreamID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.op.Detach(id)
}

func (b *singleBackend) ProcessBatch(id core.StreamID, els []temporal.Element) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.op.ProcessBatch(id, els)
}

func (b *singleBackend) MaxStable() temporal.Time {
	return temporal.Time(b.maxStable.Load())
}

func (b *singleBackend) Stats() core.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return *b.op.Merger().Stats()
}

func (b *singleBackend) PartitionStats() []partition.PartitionStat { return nil }

// Snapshot returns the merger's checkpoint stream (durability tier), or
// ok=false when the algorithm cannot snapshot. The backend lock makes the cut
// exact: no ProcessBatch is mid-flight while it runs.
func (b *singleBackend) Snapshot() (temporal.Stream, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sn, ok := b.op.Merger().(core.Snapshotter)
	if !ok {
		return nil, false
	}
	return sn.Snapshot(), true
}

func (b *singleBackend) SizeBytes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.op.Merger().SizeBytes()
}

func (b *singleBackend) Close() error { return nil }
