package server

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lmerge/internal/core"
	"lmerge/internal/durable"
	"lmerge/internal/obs"
	"lmerge/internal/partition"
	"lmerge/internal/temporal"
)

// durability is the server's persistence state (nil when Options.DataDir is
// empty; every hook is nil-safe).
//
// Locking: cpMu is the checkpoint barrier. Its read side spans each mutation
// couple — WAL append + the backend call it covers (attach, detach, batch) —
// so the write side (the checkpoint cut) observes either both halves or
// neither. Merged-output emissions need no read lock: the single backend
// emits synchronously inside ProcessBatch (already under the read side), and
// the sharded pool's worker emissions are drained by Sharded.Cut before the
// checkpoint captures anything. mu guards the live Log pointer across rotations; it is
// never held across a backend call.
//
// A failed append is sticky: err latches the first one, and every later
// append returns it without writing. The server reads a non-nil error as
// "this state is no longer durable" — the failed batch is not merged, no
// further emission is delivered, new publishers are refused, and checkpoints
// stop — so nothing is ever acknowledged or delivered that a restart would
// not recover.
type durability struct {
	dir   string
	fsync bool
	every time.Duration
	keep  int

	cpMu sync.RWMutex

	mu     sync.Mutex
	log    *durable.Log
	gen    uint64
	err    error               // first failed append, latched (under mu)
	emitEl [1]temporal.Element // reusable RecEmit scratch (under mu)

	// suppress silences broadcast during recovery seeding: the seed stream's
	// re-merge re-emits what the restored backlog already holds.
	suppress atomic.Bool

	tel *obs.Durability
}

// durKeepCheckpoints is how many checkpoint generations are retained — more
// than one, so recovery can fall back when the newest file is invalid
// (partial write that still got renamed, disk corruption).
const durKeepCheckpoints = 2

// defaultCheckpointEvery is the background checkpoint period when DataDir is
// set and CheckpointEvery is zero.
const defaultCheckpointEvery = 2 * time.Second

// shared takes the checkpoint barrier's read side; the returned func releases
// it. Nil-safe: without durability it returns a no-op so the hot paths carry
// no conditional forest.
func (d *durability) shared() func() {
	if d == nil {
		return func() {}
	}
	d.cpMu.RLock()
	return d.cpMu.RUnlock
}

// append logs one record to the current WAL generation. It returns the
// latched error once any append has failed.
func (d *durability) append(r durable.Record) error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appendLocked(r)
}

// appendEmit logs one merged-output element at backlog index seq, reusing the
// scratch element slot so the per-emission path does not allocate.
func (d *durability) appendEmit(seq int, e temporal.Element) error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.emitEl[0] = e
	return d.appendLocked(durable.Record{Kind: durable.RecEmit, Seq: uint64(seq), Els: d.emitEl[:]})
}

func (d *durability) appendLocked(r durable.Record) error {
	if d.err != nil || d.log == nil {
		return d.err
	}
	if err := d.log.Append(r); err != nil {
		d.err = fmt.Errorf("server: WAL append failed, state no longer durable: %w", err)
		d.tel.WALFailed(d.err)
	}
	return d.err
}

// failed returns the latched append error, if any.
func (d *durability) failed() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// suppressed reports whether recovery seeding is silencing emissions.
func (d *durability) suppressed() bool { return d != nil && d.suppress.Load() }

// snapshotCapable reports whether the merge case can checkpoint (implements
// core.Snapshotter) — the gate on -data-dir.
func snapshotCapable(c core.Case) bool {
	m := core.New(c, func(temporal.Element) {})
	_, ok := m.(core.Snapshotter)
	return ok
}

// initDurability opens the data directory, performs crash recovery when it
// holds state, and leaves a fresh WAL generation accepting appends. Called
// from NewWithOptions before the listener starts accepting, so recovery runs
// single-threaded with no publishers or subscribers attached.
func (s *Server) initDurability() error {
	opts := s.opts
	if !snapshotCapable(opts.Case) {
		return fmt.Errorf("server: -data-dir requires a snapshot-capable merge case, not %v", opts.Case)
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return err
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	d := &durability{
		dir:   opts.DataDir,
		fsync: opts.Fsync,
		every: every,
		keep:  durKeepCheckpoints,
		tel:   &obs.Durability{},
	}
	s.dur = d

	start := time.Now()
	st, err := durable.Load(d.dir)
	if err != nil {
		return err
	}
	log, err := durable.CreateLog(d.dir, st.NextGen, d.fsync, d.tel)
	if err != nil {
		return err
	}
	d.log, d.gen = log, st.NextGen

	if st.Checkpoint == nil && len(st.Records) == 0 {
		return nil // fresh directory, nothing to recover
	}
	if err := s.recover(st); err != nil {
		return err
	}
	// Post-recovery checkpoint: the recovered state becomes the new baseline,
	// so the generations recovery read from can be pruned and a second crash
	// replays from here instead of repeating the whole recovery.
	if err := s.checkpoint(); err != nil {
		return err
	}
	d.tel.RecoveryDone(int64(len(st.Records)), int64(st.TornBytes), time.Since(start).Nanoseconds())
	s.reg.Trace().Record(obs.Event{
		Kind: obs.EventRecovery, Node: "server", Stream: -1,
		T: s.be.MaxStable(), Aux: int64(len(st.Records)),
	})
	return nil
}

// recover jumpstarts the backend from the loaded durable state (the paper's
// checkpoint/jumpstart of Sec. II-4, made crash-durable):
//
//  1. Restore the merged-output backlog: the checkpoint's backlog plus every
//     WAL emission record past it (write-ahead of delivery means this is a
//     superset of anything a subscriber saw, so positional FROM resume stays
//     exact).
//  2. Seed a ghost stream with the FOLD of the restored backlog — one insert
//     per still-live event at its current interval, closed by the fold's
//     stable point (the paper's Snapshot form) — with broadcast suppressed,
//     since its re-merge re-emits what the restored backlog already holds.
//     Replaying the raw backlog (or the checkpoint snapshot plus the raw
//     tail) instead would be unsound: under the lazy adjust policy a
//     re-consumed output stream leaves the merger's output state
//     unreconciled until the next stable, and the record carrying that
//     stable may be exactly what the crash tore off — later withdrawals
//     would then cite stale intervals. The diffcheck crash-recover axis
//     caught this; the fold is reconciled by construction.
//  3. Replay the WAL's input records (attach/batch/detach) as ghost streams
//     with emissions live: batches the pre-crash merger already processed are
//     absorbed as duplicates (re-attach semantics), while batches it logged
//     but never finished emitting produce their output now.
//  4. Detach every ghost. Withdrawals for events no surviving stream vouches
//     for flow to the backlog as ordinary adjusts; reconnecting resilient
//     publishers redeliver (fast-forwarding past the recovered stable), and
//     the TDB converges to the no-crash oracle.
func (s *Server) recover(st *durable.RecoveryState) error {
	d := s.dur
	ckpt := st.Checkpoint

	var ckptLen int
	if ckpt != nil {
		s.backlog = append(s.backlog, ckpt.Backlog...)
		ckptLen = len(ckpt.Backlog)
	}
	s.backlog = append(s.backlog, durable.EmitTail(st.Records, uint64(ckptLen))...)

	if sh, ok := s.be.(*partition.Sharded); ok && ckpt != nil && len(ckpt.RouteOwner) > 0 {
		sh.InstallRoute(ckpt.RouteEpoch, ckpt.RouteOwner)
	}

	// Seed stream: the fold of the restored backlog. The backlog is a valid
	// output stream (checksum truncation only ever drops a suffix), so its
	// fold is the exact merged TDB at the crash point; the live region plus
	// the fold's stable is a reconciled snapshot no matter which adjusts or
	// stables the tear removed. The on-disk checkpoint snapshots are not
	// replayed directly — see the note above — but remain the format's
	// self-description and are exercised by the diffcheck crash axis.
	fold, err := temporal.Reconstitute(s.backlog)
	if err != nil {
		return fmt.Errorf("server: restored backlog invalid: %w", err)
	}
	stable := fold.Stable()
	var seed temporal.Stream
	for _, ev := range fold.Events() {
		if ev.Ve < stable {
			continue
		}
		for i := 0; i < fold.Count(ev); i++ {
			seed = append(seed, temporal.Insert(ev.Payload, ev.Vs, ev.Ve))
		}
	}
	if stable != temporal.MinTime {
		seed = append(seed, temporal.Stable(stable))
	}

	d.suppress.Store(true)
	seedID := s.be.Attach(temporal.MinTime)
	if len(seed) > 0 {
		if err := s.be.ProcessBatch(seedID, seed); err != nil {
			return fmt.Errorf("server: recovery seed: %w", err)
		}
	}
	s.quiesceBackend()
	d.suppress.Store(false)

	// Input replay. Ghost streams get fresh backend ids; the WAL's original
	// ids only key the mapping. A batch whose attach record was lost to a torn
	// tail is attached on demand with an open join guarantee.
	ghosts := make(map[int64]core.StreamID)
	for _, r := range st.Records {
		switch r.Kind {
		case durable.RecAttach:
			if _, ok := ghosts[r.ID]; !ok {
				ghosts[r.ID] = s.be.Attach(r.JoinTime)
			}
		case durable.RecBatch:
			id, ok := ghosts[r.ID]
			if !ok {
				id = s.be.Attach(temporal.MinTime)
				ghosts[r.ID] = id
			}
			if err := s.be.ProcessBatch(id, r.Els); err != nil {
				return fmt.Errorf("server: recovery replay: %w", err)
			}
		case durable.RecDetach:
			if id, ok := ghosts[r.ID]; ok {
				s.be.Detach(id)
				delete(ghosts, r.ID)
			}
		}
	}
	for _, id := range ghosts {
		s.be.Detach(id)
	}
	s.be.Detach(seedID)
	s.quiesceBackend()
	return nil
}

// quiesceBackend blocks until every enqueued element has been merged and its
// emission flushed. The single backend is synchronous, so only the sharded
// pool needs the drain; recovery has no use for the cut that comes with it.
func (s *Server) quiesceBackend() {
	if sh, ok := s.be.(*partition.Sharded); ok {
		sh.Cut()
	}
}

// checkpoint takes one exact-cut checkpoint: stop the world (the barrier's
// write side excludes every WAL-append/backend couple), cut the backend —
// for the sharded pool one Sharded.Cut, which also excludes the rebalance
// controller, drains the workers and returns snapshots and routing together —
// capture the backlog, commit the checkpoint file by atomic rename, rotate the WAL onto the checkpoint's generation (re-logging
// an attach for every live publisher, so the new generation replays
// standalone), and prune generations the retained checkpoints cover.
func (s *Server) checkpoint() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	// A checkpoint after a failed append would commit state the WAL never
	// covered: the error stays latched and nothing is written.
	if err := d.failed(); err != nil {
		return err
	}
	c := &durable.Checkpoint{Gen: d.gen + 1}
	switch be := s.be.(type) {
	case *partition.Sharded:
		// The -data-dir gate (snapshotCapable) already vetted the algorithm,
		// and an idle partition legitimately snapshots to an empty stream.
		cut := be.Cut()
		c.Snapshots, c.RouteEpoch, c.RouteOwner = cut.Snapshots, cut.RouteEpoch, cut.RouteOwner
	case *singleBackend:
		snap, ok := be.Snapshot()
		if !ok {
			return fmt.Errorf("server: merge case cannot snapshot")
		}
		c.Snapshots = []temporal.Stream{snap}
	}
	c.Stable = s.be.MaxStable()
	s.outMu.Lock()
	c.Backlog = append(temporal.Stream(nil), s.backlog...)
	s.outMu.Unlock()
	if err := durable.WriteCheckpoint(d.dir, c, d.tel); err != nil {
		return err
	}

	log, err := durable.CreateLog(d.dir, c.Gen, d.fsync, d.tel)
	if err != nil {
		return err
	}
	d.mu.Lock()
	old := d.log
	d.log, d.gen = log, c.Gen
	d.mu.Unlock()
	if old != nil {
		old.Close()
	}

	type pubJoin struct {
		id core.StreamID
		jt temporal.Time
	}
	var live []pubJoin
	s.mu.Lock()
	for id, ps := range s.pubs {
		live = append(live, pubJoin{id: id, jt: ps.joinTime})
	}
	s.mu.Unlock()
	for _, p := range live {
		if err := d.append(durable.Record{Kind: durable.RecAttach, ID: int64(p.id), JoinTime: p.jt}); err != nil {
			return err
		}
	}
	if err := durable.Prune(d.dir, d.keep); err != nil {
		return err
	}
	s.reg.Trace().Record(obs.Event{
		Kind: obs.EventCheckpoint, Node: "server", Stream: -1,
		T: c.Stable, Aux: int64(c.Gen),
	})
	return nil
}

// checkpointLoop runs the periodic background checkpoint until Close.
func (s *Server) checkpointLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.dur.every)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
			s.checkpoint()
		}
	}
}

// Durability returns the persistence counters (zero-valued when -data-dir is
// off).
func (s *Server) Durability() obs.DurabilitySnapshot {
	if s.dur == nil {
		return obs.DurabilitySnapshot{}
	}
	return s.dur.tel.Snapshot()
}

// Checkpoint forces one synchronous checkpoint (tests and tooling; the
// background loop normally drives this).
func (s *Server) Checkpoint() error { return s.checkpoint() }
