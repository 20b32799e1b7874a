package diffcheck

import (
	"sync"

	"lmerge/internal/core"
	"lmerge/internal/partition"
	"lmerge/internal/temporal"
)

// runSharded executes one ExecSharded cell: every presentation is published
// to a partition.Sharded pool from its own goroutine, in batches of a (seed,
// stream)-derived size between 1 and 7, while — for handoff-capable
// algorithms — a sweeper goroutine migrates slots without pause. The
// publishers start only once the sweeper's first migration has returned, so
// migrations and traffic overlap however the scheduler behaves.
func runSharded(cfg Config, w *workload) result {
	var out temporal.Stream // appended under the pool's emit mutex
	pool := partition.NewSharded(diffPartitions,
		func(emit core.Emit) core.Merger { return cfg.Algo.NewMerger(emit) },
		func(e temporal.Element) { out = append(out, e) })
	ids := make([]core.StreamID, len(w.streams))
	for i := range ids {
		ids[i] = pool.Attach(temporal.MinTime)
	}

	gate := make(chan struct{})
	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	if cfg.Algo.handoffCapable() {
		sweeper.Add(1)
		go func() {
			defer sweeper.Done()
			for step := int64(0); ; step++ {
				slot := int(uint64(w.seed*13+step*7) % partition.Slots)
				pool.MigrateSlot(slot, int(uint64(w.seed+step)%diffPartitions))
				if step == 0 {
					close(gate)
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	} else {
		close(gate)
	}

	var pubs sync.WaitGroup
	for i, els := range w.streams {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			<-gate
			batch := 1 + int(uint64(w.seed+int64(i))%7)
			for lo := 0; lo < len(els); lo += batch {
				// The only error is the pool's sticky one, which Close returns.
				if pool.ProcessBatch(ids[i], els[lo:min(lo+batch, len(els))]) != nil {
					return
				}
			}
		}()
	}
	pubs.Wait()
	close(stop)
	sweeper.Wait()
	// Stats asks each worker at its next loop boundary, backlog or not; the
	// cut drains the pool first so the count is final.
	pool.Cut()
	res := result{warnings: pool.Stats().ConsistencyWarnings}
	// Close joins the workers, so every emission is in out when it returns.
	res.err = pool.Close()
	res.out = out
	return res
}
