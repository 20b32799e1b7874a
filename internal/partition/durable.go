package partition

import (
	"lmerge/internal/core"
	"lmerge/internal/temporal"
)

// Checkpoint support for the sharded backend: the server takes its checkpoint
// from Cut, and recovery rebuilds a pool and calls InstallRoute before
// replaying, so every key routes back to the partition whose snapshot carries
// its state.

// Cut is one consistent cut of a pool, taken with the world stopped.
type Cut struct {
	// Snapshots holds each worker's merger Snapshot() stream, in partition
	// order; entries are nil when the algorithm is not a core.Snapshotter. The
	// stable broadcast puts every partition at the same internal stable point.
	Snapshots []temporal.Stream
	// RouteEpoch and RouteOwner are the routing table the snapshots were taken
	// under: every key in Snapshots[p] hashes to a slot RouteOwner maps to p.
	RouteEpoch int64
	RouteOwner []int32
}

// Cut pauses the pool exactly as a migration does (see pause) — every element
// handed to ProcessBatch before the call has been merged and its emission has
// reached the pool's emit callback, and no migration is under way — and
// captures the per-partition snapshots and the routing table in that state.
// A closed pool yields a Cut with nil snapshots.
func (s *Sharded) Cut() Cut {
	c := Cut{Snapshots: make([]temporal.Stream, len(s.workers))}
	if s.closed.Load() {
		return c
	}
	s.pause()
	defer s.resume()
	for p, w := range s.workers {
		w.do(func() {
			if sn, ok := w.op.Merger().(core.Snapshotter); ok {
				c.Snapshots[p] = sn.Snapshot()
			}
		})
	}
	t := s.table.Load()
	c.RouteEpoch, c.RouteOwner = t.epoch, append([]int32(nil), t.owner[:]...)
	return c
}

// InstallRoute replaces the routing table with the given ownership map at the
// given epoch — recovery reinstalling the checkpointed assignment into a
// fresh pool before replay. Owners out of range for this pool (a checkpoint
// taken with more partitions) are remapped round-robin. Must run before any
// traffic; it does not migrate state between live workers.
func (s *Sharded) InstallRoute(epoch int64, owner []int32) {
	t := &routeTable{epoch: epoch}
	parts := int32(len(s.workers))
	for i := range t.owner {
		o := int32(i) % parts
		if i < len(owner) && owner[i] >= 0 && owner[i] < parts {
			o = owner[i]
		}
		t.owner[i] = o
	}
	s.routeMu.Lock()
	s.table.Store(t)
	s.routeMu.Unlock()
}
