package partition

import (
	"runtime"
	"slices"
	"time"

	"lmerge/internal/core"
)

// This file moves routing slots between the workers of a running pool, and
// holds the adaptive controller that decides when to. The protocol is
// stop-the-world quiesce–move–resume (DESIGN.md §11):
//
//  1. quiesce — pause takes the route write-lock, which every section that
//     puts work in flight holds for reading, then waits until every worker's
//     rings are empty and one control round trip per worker has returned.
//  2. move — per (donor, recipient) pair, the donor's goroutine extracts the
//     departing slots' index nodes whole (core.Handoff.ExtractKeys) and the
//     recipient's goroutine installs them. A donor that cannot extract keeps
//     its slots.
//  3. resume — the successor route table, carrying the moves that succeeded,
//     is published once, and the locks are released.
//
// Invariant: while the write lock is held nothing is in flight. Stables,
// attaches and detaches reach every worker inside one read-lock section, so
// the quiesced workers have all merged the same ones and donor clock ==
// recipient clock — the core.Handoff clock-ordering contract holds trivially.
// Routing flips only after the install, so a failed extraction costs nothing.

// slotMove is one (routing slot → recipient worker) assignment.
type slotMove struct {
	slot int
	to   int
}

// pause stops the world: no other pause, no publisher section, nothing queued
// and nothing staged. Every pause is followed by resume.
func (s *Sharded) pause() {
	s.migMu.Lock()
	s.routeMu.Lock()
	// The workers' own ring lists, not s.pubs: a publisher inside Detach has
	// left the table but its rings still hold its last entries.
	for _, w := range s.workers {
		for w.backlog() > 0 {
			w.wakeUp()
			runtime.Gosched()
		}
	}
	// A worker runs control at its loop boundary, after the drain pass that
	// emptied its rings flushed what it staged.
	for _, w := range s.workers {
		w.do(func() {})
	}
}

func (s *Sharded) resume() {
	s.routeMu.Unlock()
	s.migMu.Unlock()
}

// migrate executes moves (distinct slots) in one pause and returns how many
// slots moved. Donors are read from the table under the pause, so a plan made
// against an older table moves each slot from wherever it lives now; a move
// whose slot already lives on its recipient is skipped.
func (s *Sharded) migrate(moves []slotMove) int {
	if !s.handoff || s.closed.Load() {
		return 0
	}
	s.pause()
	defer s.resume()
	table := s.table.Load()
	// One handoff per (donor, recipient) pair.
	type pair struct {
		from, to int
		slots    []int
	}
	var pairs []pair
	for _, mv := range moves {
		from := int(table.owner[mv.slot])
		if from == mv.to {
			continue
		}
		i := slices.IndexFunc(pairs, func(p pair) bool { return p.from == from && p.to == mv.to })
		if i < 0 {
			i = len(pairs)
			pairs = append(pairs, pair{from: from, to: mv.to})
		}
		pairs[i].slots = append(pairs[i].slots, mv.slot)
	}
	next := table.clone()
	moved := 0
	for _, p := range pairs {
		donor, rcpt := s.workers[p.from], s.workers[p.to]
		var st core.HandoffState
		var err error
		donor.do(func() {
			st, err = donor.op.Merger().(core.Handoff).ExtractKeys(slotsMatcher(s.key, p.slots))
		})
		if err != nil {
			continue // nothing was extracted: the slots stay with the donor
		}
		rcpt.do(func() { rcpt.op.Merger().(core.Handoff).InstallKeys(st) })
		for _, sl := range p.slots {
			next.owner[sl] = int32(p.to)
		}
		moved += len(p.slots)
		donor.tel.Migrated(p.from, p.to, st.Clock, st.Keys)
		s.tel.Migrated(p.from, p.to, st.Clock, st.Keys)
	}
	if moved > 0 {
		s.table.Store(next)
		s.migrations.Add(int64(moved))
	}
	return moved
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
	return c
}

// ShardRebalance attaches the adaptive repartitioning controller: per-slot
// load is sampled every Interval, and when one worker's window load exceeds
// Threshold times the mean, a plan of slot moves from the most- to the least-
// loaded workers is executed in one pause of the pool (migrate above). The
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

	last [Slots]int64 // cumulative per-slot load at the previous window
}

// rebalanceCooldown is how many windows the controller skips after a
// migration, letting the new assignment's load profile settle before it is
// re-evaluated.
const rebalanceCooldown = 1

func newRebalancer(s *Sharded, cfg RebalanceConfig) *rebalancer {
	return &rebalancer{
		s:     s,
		cfg:   cfg.withDefaults(),
		stopc: make(chan struct{}),
		donec: make(chan struct{}),
	}
}

// stop halts the controller and waits for it, letting a migration in progress
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
			cooldown = rebalanceCooldown
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
	// is complete. The whole plan then executes in one pause.
	var planned [Slots]bool
	var plan []slotMove
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
		plan = append(plan, slotMove{slot: best, to: minW})
		load[maxW] -= delta[best]
		load[minW] += delta[best]
		owner[best] = int32(minW)
	}
	return len(plan) > 0 && s.migrate(plan) > 0
}
