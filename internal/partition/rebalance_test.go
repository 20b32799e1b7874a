package partition

import (
	"slices"
	"sync"
	"testing"
	"time"

	"lmerge/internal/core"
	"lmerge/internal/gen"
	"lmerge/internal/temporal"
)

// TestRingSPSC exercises the publisher→worker ring with a real producer and
// consumer goroutine pair: every pushed batch must come out exactly once, in
// order, contents intact, with the producer backpressured through full-ring
// laps (more batches than ringDepth).
func TestRingSPSC(t *testing.T) {
	const batches = ringDepth*3 + 17
	r := &spscRing{}
	var got []temporal.Element
	done := make(chan struct{})
	go func() {
		defer close(done)
		read := 0
		for read < batches {
			h := r.head.Load()
			if h == r.tail.Load() {
				continue
			}
			e := &r.slots[h%ringDepth]
			if e.kind != ringBatch {
				t.Errorf("entry %d: kind = %d, want ringBatch", read, e.kind)
			}
			got = append(got, e.els...)
			r.head.Store(h + 1)
			read++
		}
	}()
	var want []temporal.Element
	scratch := make([]temporal.Element, 0, 3)
	for i := 0; i < batches; i++ {
		scratch = scratch[:0]
		for j := 0; j <= i%3; j++ {
			e := temporal.Insert(temporal.Payload{ID: int64(i*3 + j)}, temporal.Time(i), temporal.Time(i+j+1))
			scratch = append(scratch, e)
			want = append(want, e)
		}
		r.push(ringBatch, 0, scratch)
	}
	<-done
	if len(got) != len(want) {
		t.Fatalf("consumed %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
	if r.pending() != 0 {
		t.Fatalf("pending = %d after drain", r.pending())
	}
}

// TestSyncMigrateSlot forces slot migrations between every element of a
// revision-heavy workload on the synchronous partitioned merger: ownership
// must follow the moves and the reunified output must stay a valid stream
// reconstituting to the script TDB — element-for-element equal to an
// undisturbed partitioned run's TDB at every stable point.
func TestSyncMigrateSlot(t *testing.T) {
	streams, want := testWorkload(t, 0)
	order := interleave(streams, 21)
	const parts = 3
	var out temporal.Stream
	pm := New(core.CaseR3, parts, func(e temporal.Element) { out = append(out, e) })
	reb, ok := pm.(Rebalancer)
	if !ok {
		t.Fatal("partitioned merger must implement Rebalancer")
	}
	step := 0
	migrated := 0
	drive(t, pm, streams, order, func() {
		step++
		if step%5 != 0 {
			return
		}
		slot := (step * 7) % Slots
		to := step % parts
		moved := reb.MigrateSlot(slot, to)
		if owner := reb.SlotOwner(slot); owner != to {
			t.Fatalf("step %d: SlotOwner(%d) = %d after migrate to %d", step, slot, owner, to)
		}
		if moved {
			migrated++
		}
	})
	if migrated == 0 {
		t.Fatal("no migration ever happened")
	}
	if got := temporal.MustReconstitute(out); !got.Equal(want) {
		t.Fatalf("TDB under forced migrations diverges from script TDB (%d vs %d events)", got.Len(), want.Len())
	}
	if !pm.MaxStable().IsInf() {
		t.Fatalf("MaxStable = %v, want ∞", pm.MaxStable())
	}
}

// TestSyncMigrateSlotRejectsFullyFrozen: the fully-frozen insert policy has a
// data-dependent output clock, so handoff must refuse it.
func TestSyncMigrateSlotRejectsFullyFrozen(t *testing.T) {
	pm := NewWith(2, func(emit core.Emit) core.Merger {
		return core.NewR3(emit, core.R3Options{Insert: core.InsertFullyFrozen})
	}, nil)
	reb := pm.(Rebalancer)
	slot := 0
	to := 1 - reb.SlotOwner(0)
	if reb.MigrateSlot(slot, to) {
		t.Fatal("MigrateSlot must refuse the fully-frozen policy")
	}
}

// sweepSlots migrates slots ring-around-the-rosy without rest until stop
// closes, reporting the duration of every MigrateSlot call that moved one.
func sweepSlots(pool *Sharded, stop <-chan struct{}, moved func(pause time.Duration)) {
	for step := 0; ; step++ {
		select {
		case <-stop:
			return
		default:
		}
		t0 := time.Now()
		if pool.MigrateSlot((step*11)%Slots, step%pool.Partitions()) {
			moved(time.Since(t0))
		}
	}
}

// TestShardedMigrateMidStream drives concurrent publishers against a Sharded
// pool while a controller goroutine sweeps slot ownership ring-around-the-
// rosy. The publishers hold at a gate until the first slot has moved, so
// migrations and traffic overlap on any scheduler. The reunified output must
// stay a valid stream and reconstitute to the script TDB. MigrateSlot blocks
// for the whole pause, so the logged call durations are the pause.
func TestShardedMigrateMidStream(t *testing.T) {
	events := 1500
	if testing.Short() {
		events = 300
	}
	sc := gen.NewScript(gen.Config{
		Events:       events,
		Seed:         31,
		Revisions:    0.35,
		RemoveProb:   0.15,
		PayloadBytes: 8,
		ValueRange:   80,
		KeySkew:      2,
	})
	const pubs = 3
	streams := make([]temporal.Stream, pubs)
	for i := range streams {
		streams[i] = sc.Render(gen.RenderOptions{Seed: int64(400 + i), Disorder: 0.3, StableEvery: 10 + i})
	}

	var outMu sync.Mutex
	tdb := temporal.NewTDB()
	var applyErr error
	const parts = 3
	pool := NewSharded(parts, func(emit core.Emit) core.Merger {
		return core.NewR3(emit)
	}, func(e temporal.Element) {
		outMu.Lock()
		if err := tdb.Apply(e); err != nil && applyErr == nil {
			applyErr = err
		}
		outMu.Unlock()
	})

	ids := make([]core.StreamID, pubs)
	for i := range ids {
		ids[i] = pool.Attach(temporal.MinTime)
	}
	stopMig := make(chan struct{})
	gate := make(chan struct{})
	var pauses []time.Duration // the sweeper's until migDone
	var migDone sync.WaitGroup
	migDone.Add(1)
	go func() {
		defer migDone.Done()
		sweepSlots(pool, stopMig, func(pause time.Duration) {
			if pauses = append(pauses, pause); len(pauses) == 1 {
				close(gate)
			}
		})
	}()

	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			els := streams[i]
			const batch = 48
			for lo := 0; lo < len(els); lo += batch {
				hi := min(lo+batch, len(els))
				if err := pool.ProcessBatch(ids[i], els[lo:hi]); err != nil {
					t.Errorf("publisher %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stopMig)
	migDone.Wait()

	slices.Sort(pauses)
	t.Logf("%d slots moved; MigrateSlot pause p50 %v, max %v", len(pauses), pauses[len(pauses)/2], pauses[len(pauses)-1])
	if err := pool.Close(); err != nil {
		t.Fatalf("pool error: %v", err)
	}
	if applyErr != nil {
		t.Fatalf("reunified output is not a valid stream: %v", applyErr)
	}
	if !pool.MaxStable().IsInf() {
		t.Fatalf("reunified stable = %v, want ∞", pool.MaxStable())
	}
	if !tdb.Equal(sc.TDB()) {
		t.Fatalf("reunified TDB diverges from script TDB (%d vs %d events)", tdb.Len(), sc.TDB().Len())
	}
}

// TestRebalanceSoak is the race-enabled adaptive-repartitioning soak of the
// CI gate (`make rebalance-soak`): a hot-key workload drives a pool with the
// ShardRebalance controller at an aggressive cadence, and the reunified
// output must reconstitute to the script TDB with at least one adaptive
// migration having fired along the way.
func TestRebalanceSoak(t *testing.T) {
	events := 4000
	if testing.Short() {
		events = 800
	}
	sc := gen.NewScript(gen.Config{
		Events:       events,
		Seed:         67,
		Revisions:    0.3,
		RemoveProb:   0.1,
		PayloadBytes: 8,
		ValueRange:   200,
		KeySkew:      2,
	})
	const pubs = 3
	streams := make([]temporal.Stream, pubs)
	for i := range streams {
		streams[i] = sc.Render(gen.RenderOptions{Seed: int64(700 + i), Disorder: 0.25, StableEvery: 12})
	}

	var outMu sync.Mutex
	tdb := temporal.NewTDB()
	var applyErr error
	pool := NewSharded(4, func(emit core.Emit) core.Merger {
		return core.NewR3(emit)
	}, func(e temporal.Element) {
		outMu.Lock()
		if err := tdb.Apply(e); err != nil && applyErr == nil {
			applyErr = err
		}
		outMu.Unlock()
	}, ShardRebalance(RebalanceConfig{
		Interval:  1e6, // 1ms: aggressive so short runs still trigger
		Threshold: 1.05,
		MinSample: 64,
	}))

	ids := make([]core.StreamID, pubs)
	for i := range ids {
		ids[i] = pool.Attach(temporal.MinTime)
	}
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			els := streams[i]
			const batch = 32
			for lo := 0; lo < len(els); lo += batch {
				hi := min(lo+batch, len(els))
				if err := pool.ProcessBatch(ids[i], els[lo:hi]); err != nil {
					t.Errorf("publisher %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	migs := pool.Migrations()
	if err := pool.Close(); err != nil {
		t.Fatalf("pool error: %v", err)
	}
	if applyErr != nil {
		t.Fatalf("reunified output is not a valid stream: %v", applyErr)
	}
	if !pool.MaxStable().IsInf() {
		t.Fatalf("reunified stable = %v, want ∞", pool.MaxStable())
	}
	if !tdb.Equal(sc.TDB()) {
		t.Fatalf("reunified TDB diverges from script TDB (%d vs %d events)", tdb.Len(), sc.TDB().Len())
	}
	if migs == 0 {
		t.Log("note: adaptive controller never triggered in this run (timing-dependent)")
	}
}

// TestCutDuringMigrations takes cuts the way the server's checkpoint does —
// publishers excluded by a barrier the cutter holds, the slot mover not — while
// a sweeper migrates without pause and publishers load the pool between cuts.
// Every cut must be consistent on its own: each snapshot key sits in the
// partition that owns its slot in the cut's table, and the snapshots together
// hold exactly the live events of the output emitted so far.
func TestCutDuringMigrations(t *testing.T) {
	sc := gen.NewScript(gen.Config{Events: 1500, Seed: 41, Revisions: 0.3, RemoveProb: 0.1,
		PayloadBytes: 8, EventDuration: 4000, MaxGap: 9, KeySkew: 2})
	const pubs, parts = 3, 3
	outTDB := temporal.NewTDB() // written under the pool's emit mutex
	var applyErr error
	pool := NewSharded(parts, func(emit core.Emit) core.Merger { return core.NewR3(emit) },
		func(e temporal.Element) {
			if err := outTDB.Apply(e); err != nil && applyErr == nil {
				applyErr = err
			}
		})
	defer pool.Close()
	ids := make([]core.StreamID, pubs)
	for i := range ids {
		ids[i] = pool.Attach(temporal.MinTime)
	}

	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		sweepSlots(pool, stop, func(time.Duration) {})
	}()
	var barrier sync.RWMutex // the server's cpMu
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			els := sc.Render(gen.RenderOptions{Seed: int64(90 + i), Disorder: 0.3, StableEvery: 10 + i})
			for lo := 0; lo < len(els); lo += 16 {
				barrier.RLock()
				err := pool.ProcessBatch(ids[i], els[lo:min(lo+16, len(els))])
				barrier.RUnlock()
				if err != nil {
					t.Errorf("publisher %d: %v", i, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	cuts, keys := 0, 0
	for running := true; running; {
		select {
		case <-done:
			running = false // one last cut, of the final state
		default:
		}
		barrier.Lock()
		cut := pool.Cut()
		var got []temporal.Event
		for p, snap := range cut.Snapshots {
			for _, e := range snap {
				if e.Kind != temporal.KindInsert {
					continue
				}
				if owner := cut.RouteOwner[slotOf(DefaultKey(e.Payload))]; int(owner) != p {
					t.Fatalf("cut %d (epoch %d): %v is in partition %d's snapshot, its slot belongs to %d",
						cuts, cut.RouteEpoch, e, p, owner)
				}
				got = append(got, temporal.Event{Payload: e.Payload, Vs: e.Vs, Ve: e.Ve})
			}
		}
		var want []temporal.Event
		for _, ev := range outTDB.Events() {
			if ev.Ve >= outTDB.Stable() {
				want = append(want, ev)
			}
		}
		barrier.Unlock()
		// Events() comes in key order; R3 holds one event per key.
		slices.SortFunc(got, func(a, b temporal.Event) int { return a.Key().Compare(b.Key()) })
		if !slices.Equal(got, want) {
			t.Fatalf("cut %d (epoch %d): snapshots hold %d live events, the output so far has %d", cuts, cut.RouteEpoch, len(got), len(want))
		}
		cuts++
		keys += len(got)
	}
	close(stop)
	sweeper.Wait()
	if applyErr != nil {
		t.Fatalf("reunified output is not a valid stream: %v", applyErr)
	}
	if keys == 0 || pool.Migrations() == 0 {
		t.Fatalf("vacuous run: %d cuts saw %d keys across %d migrations", cuts, keys, pool.Migrations())
	}
	t.Logf("%d cuts, %d snapshot keys checked, %d slots moved", cuts, keys, pool.Migrations())
}
