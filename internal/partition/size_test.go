package partition

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"lmerge/internal/core"
	"lmerge/internal/gen"
	"lmerge/internal/obs"
	"lmerge/internal/spill"
	"lmerge/internal/temporal"
)

// settle waits until every routed element is merged and every worker has
// published the resulting size: a cut drains the rings and then makes two
// control-lane round trips per worker — a worker publishes at the end of the
// loop pass that answered the first, so it has by the time it answers the
// second.
func settle(pool *Sharded) { pool.Cut() }

// TestShardedSizeBytesConcurrent polls SizeBytes (the /metrics and stats-tick
// access pattern) from several goroutines while publishers keep every worker
// merging — run it with -race -cpu 1,2,4 — and then checks the published
// sum against the mergers themselves once ingest has stopped: exact, fresh,
// and with never-ending events still resident so the answer is not zero.
func TestShardedSizeBytesConcurrent(t *testing.T) {
	sc := gen.NewScript(gen.Config{Events: 1200, Seed: 9, PayloadBytes: 16, EventDuration: 1 << 30, MaxGap: 9})
	const pubs, parts = 3, 4
	reg := obs.NewRegistry()
	pool := NewSharded(parts, func(emit core.Emit) core.Merger { return core.NewR3(emit) }, nil,
		ShardObserve(reg, "merge"))
	defer pool.Close()

	stop := make(chan struct{})
	var polls sync.WaitGroup
	for i := 0; i < 3; i++ {
		polls.Add(1)
		go func() {
			defer polls.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if pool.SizeBytes() < 0 {
					t.Error("negative SizeBytes")
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	ids := make([]core.StreamID, pubs)
	for i := range ids {
		ids[i] = pool.Attach(temporal.MinTime)
	}
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			els := sc.Render(gen.RenderOptions{Seed: int64(70 + i), Disorder: 0.3, StableEvery: 12 + i})
			// Stop short of the closing stable(∞): the live events stay.
			for lo := 0; lo < len(els)-1; lo += 32 {
				if err := pool.ProcessBatch(ids[i], els[lo:min(lo+32, len(els)-1)]); err != nil {
					t.Errorf("publisher %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	settle(pool)
	close(stop)
	polls.Wait()

	want := 0
	for _, w := range pool.workers {
		want += w.op.Merger().SizeBytes()
	}
	if got := pool.SizeBytes(); got != want || want == 0 {
		t.Errorf("quiesced SizeBytes %d, workers' mergers hold %d (want equal, non-zero)", got, want)
	}
	for _, s := range reg.Snapshot() {
		if s.Name == "merge" && s.StateBytes != int64(want) {
			t.Errorf("merge node state gauge %d, want %d", s.StateBytes, want)
		}
	}
}

// TestMigrateUnreadableSpillRun: a spill-wrapped donor whose run file was
// damaged cannot reach all of its keys. Both Rebalancer implementations then
// refuse the move the same way: MigrateSlot reports false, the slot and its
// state stay with the donor, nothing is recorded as a fault, and a healthy
// partition still donates.
func TestMigrateUnreadableSpillRun(t *testing.T) {
	sc := gen.NewScript(gen.Config{Events: 300, Seed: 13, PayloadBytes: 8, EventDuration: 1 << 30, MaxGap: 9})
	els := sc.Render(gen.RenderOptions{Seed: 1, StableEvery: 10})
	els = els[:len(els)-1] // keep the state live: no closing stable(∞)
	// wrap gives each partition a starved disk-backed spill tier that never
	// compacts, so run files sit still once written.
	wrap := func(t *testing.T, root string) func(int, core.Merger) core.Merger {
		return func(part int, m core.Merger) core.Merger {
			sp, err := spill.Wrap(m, spill.Config{Budget: 1, Arity: 1 << 20, Dir: filepath.Join(root, string(rune('a'+part)))})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sp.Close)
			return sp
		}
	}
	// Each implementation is built over two wrapped partitions and fed els;
	// errOf is its asynchronous error state.
	impls := []struct {
		name  string
		build func(t *testing.T, w func(int, core.Merger) core.Merger) (reb Rebalancer, errOf func() error)
	}{
		{"sync", func(t *testing.T, w func(int, core.Merger) core.Merger) (Rebalancer, func() error) {
			part := 0
			pm := NewWith(2, func(emit core.Emit) core.Merger {
				m := w(part, core.NewR3(emit))
				part++
				return m
			}, nil)
			pm.Attach(0)
			for _, e := range els {
				if err := pm.Process(0, e); err != nil {
					t.Fatal(err)
				}
			}
			return pm.(Rebalancer), func() error { return nil }
		}},
		{"sharded", func(t *testing.T, w func(int, core.Merger) core.Merger) (Rebalancer, func() error) {
			pool := NewSharded(2, func(emit core.Emit) core.Merger { return core.NewR3(emit) }, nil, ShardWrap(w))
			t.Cleanup(func() { pool.Close() })
			if err := pool.ProcessBatch(pool.Attach(temporal.MinTime), els); err != nil {
				t.Fatal(err)
			}
			settle(pool)
			return pool, pool.Err
		}},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			root := t.TempDir()
			reb, errOf := impl.build(t, wrap(t, root))
			slot := 0
			for reb.SlotOwner(slot) != 0 {
				slot++
			}
			// Truncate every run file of partition 0.
			files, err := filepath.Glob(filepath.Join(root, "a", "*.lmrun"))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) == 0 {
				t.Fatal("setup: partition 0 spilled nothing")
			}
			for _, f := range files {
				if err := os.Truncate(f, 5); err != nil {
					t.Fatal(err)
				}
			}
			if reb.MigrateSlot(slot, 1) {
				t.Error("MigrateSlot succeeded over an unreadable run")
			}
			if reb.SlotOwner(slot) != 0 {
				t.Errorf("slot %d moved to %d despite the failed extraction", slot, reb.SlotOwner(slot))
			}
			if err := errOf(); err != nil {
				t.Errorf("refused move left an error behind: %v", err)
			}
			// The undamaged partition still donates: only the read error above
			// explains the refusal.
			for reb.SlotOwner(slot) != 1 {
				slot++
			}
			if !reb.MigrateSlot(slot, 0) {
				t.Error("MigrateSlot from the healthy partition refused")
			}
		})
	}
}
