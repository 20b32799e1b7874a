package partition

import (
	"fmt"
	"sync/atomic"
	"time"

	"lmerge/internal/core"
)

// This file is the live slot-migration machinery of the sharded pool: the
// paper's jumpstart/cutover protocol (Sec. II-4/5) applied *internally*,
// between partition workers of one keyed scale-out merge, plus the adaptive
// controller that drives it under skew. DESIGN.md §11 carries the full state
// machine and its safety argument; in brief, a migration of slots {S} from
// donor A to recipient(s) B — the protocol batches every slot leaving A in
// one cycle, since the drain barrier dominates its cost — runs:
//
//  1. prepare — each recipient B is frozen: it keeps consuming its rings
//     (into a holding queue, so producers never block against it) but merges
//     nothing, which pins B's output clock Tb.
//  2. cutover — under the route write-lock, every departing slot's owner
//     flips to its recipient and the tails of A's ingress rings are
//     snapshotted. Because publishers route+enqueue under the read lock,
//     every element routed to A under the old table is inside the snapshot:
//     the tails are a sound drain barrier.
//  3. drain — A processes its rings until every snapshotted tail is reached.
//     Any stable a recipient saw before freezing was enqueued to A (same
//     coalesced batch, same read-lock section) before the snapshot, so at
//     the barrier A's clock Ta >= Tb for every recipient — the core.Handoff
//     clock-ordering contract holds by construction, with no abort path.
//  4. transplant — A extracts each recipient's slots' live index nodes whole
//     (core.Handoff.ExtractKeys, one slotsMatcher per recipient) and
//     forwards each bundle to its recipient's control lane.
//  5. install — each B installs its nodes, unfreezes, and replays its
//     holding queue through normal processing. Unemitted transplanted nodes
//     carry Vs >= Ta >= Tb, so B's deferred emissions stay legal against its
//     own output stream; stables B re-sweeps over them are idempotent.
//
// A migration batches every move leaving one donor in a window: the drain
// barrier is the expensive step (the donor must chew through its enqueued
// backlog), so all slots departing a donor — to however many recipients —
// share one prepare/cutover/drain cycle and split into per-recipient
// transplants only at the barrier.
type migration struct {
	from  int
	moves []slotMove
	// marks is the drain barrier: the donor's ring tails at cutover.
	marks []ringMark
	done  chan struct{}
}

// slotMove is one (routing slot → recipient worker) assignment of a
// migration.
type slotMove struct {
	slot int
	to   int
}

// ringMark is one (ring, tail) pair of the drain barrier.
type ringMark struct {
	r    *spscRing
	tail uint64
}

// barrierMet reports whether the donor has drained past every snapshotted
// tail. Ring heads only advance, and removed rings (publisher detach) were
// fully consumed first, so the check is monotone.
func (w *shardWorker) barrierMet() bool {
	for _, mk := range w.mig.marks {
		if mk.r.head.Load() < mk.tail {
			return false
		}
	}
	return true
}

// completeMigration runs on the donor's goroutine once the drain barrier is
// met: extract each recipient's slots whole and hand them over.
func (s *Sharded) completeMigration(w *shardWorker) {
	mig := w.mig
	w.mig = nil
	h, capable := w.op.Merger().(core.Handoff)
	// Group the moves per recipient: one transplant each.
	done := make(map[int]bool, len(mig.moves))
	for _, mv := range mig.moves {
		if done[mv.to] {
			continue
		}
		done[mv.to] = true
		slots := make([]int, 0, len(mig.moves))
		for _, m2 := range mig.moves {
			if m2.to == mv.to {
				slots = append(slots, m2.slot)
			}
		}
		var st core.HandoffState
		if capable {
			var err error
			if st, err = h.ExtractKeys(slotsMatcher(s.key, slots)); err != nil {
				// Routing flipped at cutover and there is no abort path, so the
				// slots' keys are now stranded at the donor: fail the pool (the
				// sticky error reaches every publisher's next ProcessBatch)
				// rather than merge on without them. The recipient still gets
				// its (empty) install so it unfreezes.
				s.recordErr(fmt.Errorf("partition: migrating slots %v from worker %d: %w", slots, mig.from, err))
			}
		}
		w.tel.Migrated(mig.from, mv.to, st.Clock, st.Keys)
		s.tel.Migrated(mig.from, mv.to, st.Clock, st.Keys)
		rcpt := s.workers[mv.to]
		rcpt.ctl <- ctlMsg{kind: ctlInstall, st: st}
		rcpt.wakeUp()
	}
	close(mig.done)
}

// migrateLocked executes one batched migration end to end (caller holds
// migMu and has resolved mv.to != from for every move). It blocks until the
// donor has handed every transplant to its recipient's control lane.
func (s *Sharded) migrateLocked(from int, moves []slotMove) {
	// 1. prepare: freeze every distinct recipient, pinning its clock. The
	// reply synchronises — a recipient is guaranteed frozen before cutover.
	prepped := make(map[int]bool, len(moves))
	for _, mv := range moves {
		if prepped[mv.to] {
			continue
		}
		prepped[mv.to] = true
		rcpt := s.workers[mv.to]
		rcpt.ctl <- ctlMsg{kind: ctlPrepare, prepReply: s.prepReply}
		rcpt.wakeUp()
		<-s.prepReply
	}

	// 2. cutover: flip every slot under the route write-lock and snapshot
	// the donor's ring tails as the drain barrier.
	donor := s.workers[from]
	s.routeMu.Lock()
	next := s.table.Load().clone()
	for _, mv := range moves {
		next.owner[mv.slot] = int32(mv.to)
	}
	s.table.Store(next)
	rings := donor.ringList()
	marks := make([]ringMark, len(rings))
	for i, r := range rings {
		marks[i] = ringMark{r: r, tail: r.tail.Load()}
	}
	s.routeMu.Unlock()

	// 3–5. drain, transplant, install: driven by the worker loops.
	mig := &migration{from: from, moves: moves, marks: marks, done: make(chan struct{})}
	donor.ctl <- ctlMsg{kind: ctlMigrate, mig: mig}
	donor.wakeUp()
	<-mig.done
}

// RebalanceConfig tunes the adaptive hot-slot controller (ShardRebalance).
// Zero values select the defaults noted per field.
type RebalanceConfig struct {
	// Interval is the load-sampling period (default 10ms).
	Interval time.Duration
	// Threshold is the max/mean per-worker load ratio above which a window
	// triggers a migration (default 1.15).
	Threshold float64
	// MinSample is the minimum number of routed elements a window must carry
	// before it is acted on (default 2048) — idle pools never churn slots.
	MinSample int64
	// Cooldown is how many windows to skip after a migration, letting the
	// new assignment's load profile settle before re-evaluating (default 1).
	Cooldown int
}

func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.Threshold <= 1 {
		c.Threshold = 1.15
	}
	if c.MinSample <= 0 {
		c.MinSample = 2048
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 1
	}
	return c
}

// ShardRebalance attaches the adaptive repartitioning controller: per-slot
// load is sampled every Interval, and when one worker's window load exceeds
// Threshold times the mean, the hottest movable slot migrates from the most-
// to the least-loaded worker through the live handoff protocol above. The
// option is inert when the pool's algorithm does not support core.Handoff
// (e.g. R3 with InsertFullyFrozen) or when the pool has one partition.
func ShardRebalance(cfg RebalanceConfig) ShardedOption {
	return func(c *shardedConfig) {
		cc := cfg.withDefaults()
		c.rebalance = &cc
	}
}

// rebalancer is the adaptive controller: one goroutine differencing the
// pool's per-slot load counters into window loads and migrating slots to
// flatten them.
type rebalancer struct {
	s   *Sharded
	cfg RebalanceConfig

	stopc chan struct{}
	donec chan struct{}

	last       [Slots]int64 // cumulative per-slot load at the previous window
	migrations atomic.Int64
}

func newRebalancer(s *Sharded, cfg RebalanceConfig) *rebalancer {
	return &rebalancer{
		s:     s,
		cfg:   cfg.withDefaults(),
		stopc: make(chan struct{}),
		donec: make(chan struct{}),
	}
}

// stop halts the controller and waits for it, letting an in-flight migration
// finish. Close calls this before marking the pool closed, so migrations
// always run against live workers.
func (r *rebalancer) stop() {
	close(r.stopc)
	<-r.donec
}

func (r *rebalancer) run() {
	defer close(r.donec)
	tick := time.NewTicker(r.cfg.Interval)
	defer tick.Stop()
	cooldown := 0
	for {
		select {
		case <-r.stopc:
			return
		case <-tick.C:
		}
		if cooldown > 0 {
			cooldown--
			continue
		}
		if r.tickOnce() {
			cooldown = r.cfg.Cooldown
		}
	}
}

// tickOnce evaluates one load window and migrates slots until the window's
// projected max/mean ratio falls under the threshold (or it runs out of
// movable slots / its per-window move budget), reporting whether it moved
// anything. Moving a full plan per window rather than one slot makes the
// controller settle within a couple of windows even at high worker counts.
func (r *rebalancer) tickOnce() bool {
	s := r.s
	if s.closed.Load() {
		return false
	}
	table := s.table.Load()
	nw := len(s.workers)
	owner := table.owner
	var delta [Slots]int64
	load := make([]int64, nw)
	var total int64
	for i := 0; i < Slots; i++ {
		cur := s.slotLoad[i].Load()
		delta[i] = cur - r.last[i]
		r.last[i] = cur
		load[owner[i]] += delta[i]
		total += delta[i]
	}
	if total < r.cfg.MinSample {
		return false
	}
	// Planning is virtual: moves are applied to the window's projection so
	// each pick sees its predecessors, and nothing migrates until the plan
	// is complete. Execution then batches the plan per donor, because a
	// donor's drain barrier dominates migration cost and is paid once per
	// batch regardless of how many slots leave.
	var planned [Slots]bool
	var plan []slotMove
	var donors []int
	byDonor := make(map[int][]slotMove)
	for len(plan) < 2*nw {
		maxW, minW := 0, 0
		for p := 1; p < nw; p++ {
			if load[p] > load[maxW] {
				maxW = p
			}
			if load[p] < load[minW] {
				minW = p
			}
		}
		if float64(load[maxW]) <= r.cfg.Threshold*float64(total)/float64(nw) {
			break
		}
		// Pick the slot on the hot worker whose window load best approximates
		// half the hot/cold gap; a slot hotter than the whole gap would just
		// move the hotspot, so it is excluded (when one slot IS the skew, no
		// assignment helps and the controller correctly stays put).
		gap := load[maxW] - load[minW]
		best, bestScore := -1, int64(1)<<62
		for i := 0; i < Slots; i++ {
			if int(owner[i]) != maxW || planned[i] || delta[i] == 0 || delta[i] > gap {
				continue
			}
			score := gap - 2*delta[i]
			if score < 0 {
				score = -score
			}
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		planned[best] = true
		mv := slotMove{slot: best, to: minW}
		plan = append(plan, mv)
		if byDonor[maxW] == nil {
			donors = append(donors, maxW)
		}
		byDonor[maxW] = append(byDonor[maxW], mv)
		load[maxW] -= delta[best]
		load[minW] += delta[best]
		owner[best] = int32(minW)
	}
	if len(plan) == 0 {
		return false
	}
	migrated := 0
	for _, from := range donors {
		moves := byDonor[from]
		s.migMu.Lock()
		// Re-read under migMu: a manual MigrateSlot may have moved a slot
		// since planning; drop any move whose donor is stale.
		live := moves[:0]
		for _, mv := range moves {
			if int(s.table.Load().owner[mv.slot]) == from {
				live = append(live, mv)
			}
		}
		if len(live) > 0 {
			s.migrateLocked(from, live)
			migrated += len(live)
		}
		s.migMu.Unlock()
	}
	r.migrations.Add(int64(migrated))
	return migrated > 0
}
