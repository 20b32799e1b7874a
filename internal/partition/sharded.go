package partition

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lmerge/internal/core"
	"lmerge/internal/obs"
	"lmerge/internal/temporal"
)

// ErrShardedClosed reports an operation on a closed Sharded pool.
var ErrShardedClosed = errors.New("partition: sharded pool closed")

// Sharded is the concurrent form of the partitioned merge: one worker
// goroutine per partition, each owning a full core.Operator (dynamic
// attach/detach, feedback) over its slice of the key space.
//
// The data plane is lock-light. Each publisher handler routes its own batch
// caller-side against the copy-on-write slot table (router.go) and enqueues
// per-worker sub-batches on dedicated SPSC rings — one ring per (publisher,
// worker) pair — so the hot path crosses no mutex and no channel. Workers
// drain their rings batch-wise, stage their merge output locally, and flush
// it under a single emitMu acquisition per drain; the emit mutex guards only
// the frontier advance, never merge work. Stable elements are coalesced
// caller-side into one batched frontier update per worker per batch (legal:
// delaying a progress assertion only weakens it, and the batch's own elements
// were already constrained by it upstream).
//
// Slot ownership can move between workers while the pool runs — adaptively
// via the ShardRebalance controller or deterministically via MigrateSlot — by
// stop-the-world quiesce–move–resume over core.Handoff (rebalance.go; DESIGN.md
// §11 carries the protocol and its invariant).
//
// It is the ingestion backend behind lmserved's -partitions flag: publisher
// handlers enqueue and return, per-partition merge work proceeds in parallel,
// and only the (cheap) reunified emission is serialised.
//
// Ordering contract: Attach/Detach/ProcessBatch for one publisher must be
// issued from one goroutine (the server's per-connection handler) — that is
// what makes the rings single-producer. Different publishers interleave
// freely. Stats/SizeBytes/PartitionStats/MigrateSlot/Cut are cold-path calls
// from any goroutine, but not concurrently with Close.
type Sharded struct {
	workers []*shardWorker
	key     KeyFunc
	emit    core.Emit

	// table is the current routing epoch. routeMu's read side spans every
	// section that puts work in flight — one batch's route+enqueue, a detach's
	// ring pushes, an attach's control round trips — so holding the write side
	// (pause) means nothing new can enter the pool, and every worker has been
	// handed the same stables, attaches and detaches.
	table   atomic.Pointer[routeTable]
	routeMu sync.RWMutex

	// emitMu serialises reunified emission; front is owned by it.
	emitMu    sync.Mutex
	front     *frontier
	maxStable atomic.Int64

	// Reunified traffic counters (see Stats).
	inIns, inAdj, inStb    atomic.Int64
	outIns, outAdj, outStb atomic.Int64

	// pubMu guards the publisher table; nextID under it.
	pubMu  sync.RWMutex
	nextID core.StreamID
	pubs   map[core.StreamID]*shardPub

	// fb receives reunified fast-forward signals: the minimum of the
	// per-worker signals for a stream, since a publisher can only skip
	// elements no partition needs.
	fb     core.FeedbackFunc
	ffMu   sync.Mutex
	ffSeen map[core.StreamID][]temporal.Time
	ffSent map[core.StreamID]temporal.Time

	// tel observes the reunified stream (nil-safe): inputs as routed, outputs
	// under emitMu, with the binding partition index as the leadership stream
	// on stable advances (see ShardObserve).
	tel *obs.Node

	// slotLoad counts elements routed per slot since start — the rebalance
	// controller differences consecutive samples into window loads. Updated
	// per batch (publisher-local counts flushed once), only while a
	// controller is attached.
	slotLoad [Slots]atomic.Int64

	// migMu serialises the stop-the-world operations: migrations (adaptive
	// controller and manual MigrateSlot) and Cut. Taken before routeMu.
	migMu      sync.Mutex
	handoff    bool // workers' algorithm supports core.Handoff
	reb        *rebalancer
	migrations atomic.Int64 // slots moved so far

	errMu   sync.Mutex
	err     error
	closing atomic.Bool // Close entered (idempotency guard)
	closed  atomic.Bool // pool refuses traffic; workers drain out
	wg      sync.WaitGroup
}

// shardPub is one publisher's enqueue state: its per-worker rings plus
// routing scratch reused across batches. Touched only from the publisher's
// own goroutine (ordering contract).
type shardPub struct {
	rings []*spscRing
	parts [][]temporal.Element // per-worker sub-batch scratch
	slots []int32              // per-element slot scratch (-1 = stable)

	// Per-slot counts flushed to Sharded.slotLoad once per batch.
	slotCount [Slots]int64
	touched   []int
}

type shardWorker struct {
	idx int
	op  *core.Operator

	// rings is the worker's current ring list (copy-on-write: Attach appends,
	// the worker itself unlinks a ring after consuming its detach entry;
	// ringMu serialises the rewrites, readers load atomically).
	rings  atomic.Pointer[[]*spscRing]
	ringMu sync.Mutex

	// ctl carries cold-path work — stats, attach, snapshot, handoff — as
	// functions to run on the worker's goroutine (see do); the worker polls it
	// ahead of ring work so control never queues behind data.
	ctl chan func()

	// parked/wake implement the hybrid wait: the worker spins briefly, then
	// publishes parked=true, re-checks for work, and blocks on wake.
	// Producers CAS parked false and post one token after pushing.
	parked atomic.Bool
	wake   chan struct{}

	processed atomic.Int64
	// size is the merger's SizeBytes as of the worker's last loop pass that
	// did any work, published so Sharded.SizeBytes never queues behind data.
	size atomic.Int64
	tel  *obs.Node

	// Worker-goroutine-local state (no locking).
	out []temporal.Element // staged emissions, flushed per drain
}

// workerSpin is how many empty scan passes a worker burns (yielding between
// them) before parking on its wake channel. Low enough that an idle pool
// sleeps, high enough that a loaded pool never touches the futex path.
const workerSpin = 64

// ShardedOption configures a Sharded pool.
type ShardedOption func(*shardedConfig)

type shardedConfig struct {
	key       KeyFunc
	fb        core.FeedbackFunc
	lag       temporal.Time
	reg       *obs.Registry
	obsName   string
	rebalance *RebalanceConfig
	wrap      func(part int, m core.Merger) core.Merger
}

// ShardKeyFunc overrides the payload→hash routing function.
func ShardKeyFunc(fn KeyFunc) ShardedOption {
	return func(c *shardedConfig) {
		if fn != nil {
			c.key = fn
		}
	}
}

// ShardObserve registers the pool with telemetry registry reg: a reunify
// node named name carries the pool's input/output counters, freshness, and
// partition-leadership monitor (the "stream" on an output stable is the
// partition index whose frontier update raised the reunified minimum — the
// partition gating freshness), and each worker's core operator reports into
// its own node named "name/partP". Attach before any traffic; the option
// only takes effect at construction.
func ShardObserve(reg *obs.Registry, name string) ShardedOption {
	return func(c *shardedConfig) {
		c.reg = reg
		c.obsName = name
	}
}

// ShardFeedback enables reunified fast-forward feedback: fn receives a
// signal for a stream once every worker has signalled it, carrying the
// minimum time across workers. fn runs on worker goroutines and must be
// safe for concurrent use.
func ShardFeedback(fn core.FeedbackFunc, lag temporal.Time) ShardedOption {
	return func(c *shardedConfig) {
		c.fb = fn
		c.lag = lag
	}
}

// ShardWrap interposes fn around every worker's merger at construction —
// the hook the server's -mem-budget path uses to give each partition its
// own spill-bounded view. fn runs once per worker before the pool starts;
// the returned merger must preserve the inner one's capability surface
// (handoff in particular, or rebalancing silently degrades).
func ShardWrap(fn func(part int, m core.Merger) core.Merger) ShardedOption {
	return func(c *shardedConfig) {
		c.wrap = fn
	}
}

// NewSharded starts a pool of parts workers, each merging with an algorithm
// built by mk around the worker's partition-local emit. emit receives the
// reunified output; it runs under the pool's emit mutex (never concurrently
// with itself).
func NewSharded(parts int, mk func(core.Emit) core.Merger, emit core.Emit, opts ...ShardedOption) *Sharded {
	if parts < 1 {
		parts = 1
	}
	cfg := shardedConfig{key: DefaultKey, lag: -1}
	for _, fn := range opts {
		fn(&cfg)
	}
	if emit == nil {
		emit = func(temporal.Element) {}
	}
	s := &Sharded{
		workers: make([]*shardWorker, parts),
		key:     cfg.key,
		emit:    emit,
		front:   newFrontier(parts),
		pubs:    make(map[core.StreamID]*shardPub),
		fb:      cfg.fb,
		ffSeen:  make(map[core.StreamID][]temporal.Time),
		ffSent:  make(map[core.StreamID]temporal.Time),
	}
	s.table.Store(newRouteTable(parts))
	s.maxStable.Store(int64(temporal.MinTime))
	if cfg.reg != nil {
		s.tel = cfg.reg.Node(cfg.obsName)
	}
	for p := range s.workers {
		w := &shardWorker{idx: p, ctl: make(chan func(), 1), wake: make(chan struct{}, 1)}
		var opOpts []core.OperatorOption
		if cfg.fb != nil && cfg.lag >= 0 {
			opOpts = append(opOpts, core.WithFeedback(func(f core.Feedback) {
				s.onWorkerFeedback(w.idx, f)
			}, cfg.lag))
		}
		if cfg.reg != nil {
			w.tel = cfg.reg.Node(fmt.Sprintf("%s/part%d", cfg.obsName, p))
			opOpts = append(opOpts, core.WithObserver(w.tel))
		}
		m := mk(s.workerEmit(w))
		if cfg.wrap != nil {
			m = cfg.wrap(p, m)
		}
		w.op = core.NewOperator(m, opOpts...)
		s.workers[p] = w
	}
	if h, ok := s.workers[0].op.Merger().(core.Handoff); ok && h.HandoffCapable() {
		s.handoff = true
	}
	if cfg.rebalance != nil && s.handoff && parts > 1 {
		s.reb = newRebalancer(s, *cfg.rebalance)
	}
	for _, w := range s.workers {
		s.wg.Add(1)
		go s.run(w)
	}
	if s.reb != nil {
		go s.reb.run()
	}
	return s
}

// Partitions returns the worker count.
func (s *Sharded) Partitions() int { return len(s.workers) }

// run is the worker loop: control first, then a drain pass over the rings,
// then spin/park.
func (s *Sharded) run(w *shardWorker) {
	defer s.wg.Done()
	idle := 0
	for {
		did := false
		for {
			select {
			case fn := <-w.ctl:
				fn()
				did = true
				continue
			default:
			}
			break
		}
		for _, r := range w.ringList() {
			if s.drainRing(w, r) {
				did = true
			}
		}
		if did {
			w.publishSize()
			idle = 0
			continue
		}
		if s.closed.Load() && len(w.ctl) == 0 {
			return
		}
		idle++
		if idle < workerSpin {
			runtime.Gosched()
			continue
		}
		w.parked.Store(true)
		if w.workReady() || s.closed.Load() {
			w.parked.Store(false)
			idle = 0
			continue
		}
		select {
		case <-w.wake:
		case fn := <-w.ctl:
			fn()
			w.publishSize()
		}
		w.parked.Store(false)
		idle = 0
	}
}

// drainQuantum bounds how many entries one drain pass takes from one ring,
// so a backlogged publisher's stream is interleaved with its peers' instead
// of being merged to completion first — the cross-publisher interleaving the
// fast-forward feedback path (and freshness fairness generally) depends on.
const drainQuantum = 4

// drainRing consumes up to drainQuantum entries of the ring's backlog and
// flushes what they emitted. An entry's head advance follows its merge, so an
// empty ring means every entry pushed to it has been merged.
func (s *Sharded) drainRing(w *shardWorker, r *spscRing) bool {
	h := r.head.Load()
	t := r.tail.Load()
	if h == t {
		return false
	}
	if t-h > drainQuantum {
		t = h + drainQuantum
	}
	var n int64
	for ; h != t; h++ {
		e := &r.slots[h%ringDepth]
		switch e.kind {
		case ringBatch:
			if err := w.op.ProcessBatch(e.id, e.els); err != nil {
				s.recordErr(err)
			}
			n += int64(len(e.els))
		case ringDetach:
			w.op.Detach(e.id)
			w.dropRing(r)
		}
		r.head.Store(h + 1)
	}
	if n != 0 {
		w.processed.Add(n)
	}
	s.flushEmit(w)
	return true
}

// workerEmit is worker w's output callback, running on w's goroutine during
// merge processing. Emissions are staged locally and flushed once per drain
// pass (flushEmit), so the emit mutex is taken per batch, not per element.
func (s *Sharded) workerEmit(w *shardWorker) core.Emit {
	return func(e temporal.Element) {
		w.out = append(w.out, e)
	}
}

// flushEmit publishes worker w's staged output. Counters are folded outside
// the lock; emitMu guards only the frontier advance and the downstream emit.
// The forwarded elements stay legal against the reunified stable point
// because worker w's frontier entry (updated only here, in w's own emission
// order) never runs ahead of elements w staged earlier, and the frontier
// minimum never runs ahead of any entry.
func (s *Sharded) flushEmit(w *shardWorker) {
	if len(w.out) == 0 {
		return
	}
	var ins, adj, wd int64
	for _, e := range w.out {
		switch e.Kind {
		case temporal.KindInsert:
			ins++
		case temporal.KindAdjust:
			adj++
			if e.Ve == e.Vs {
				wd++
			}
		}
	}
	s.outIns.Add(ins)
	s.outAdj.Add(adj)
	s.tel.OutBulk(ins, adj, wd)
	s.emitMu.Lock()
	for _, e := range w.out {
		if e.Kind != temporal.KindStable {
			s.emit(e)
			continue
		}
		if s.front.Update(w.idx, e.T()) {
			if min := s.front.Min(); min > temporal.Time(s.maxStable.Load()) {
				s.maxStable.Store(int64(min))
				s.outStb.Add(1)
				s.tel.OutStable(w.idx, min)
				s.emit(temporal.Stable(min))
			}
		}
	}
	s.emitMu.Unlock()
	w.out = w.out[:0]
}

// onWorkerFeedback folds per-worker fast-forward signals into one reunified
// signal per stream: the minimum across workers, forwarded only when it
// advances.
func (s *Sharded) onWorkerFeedback(p int, f core.Feedback) {
	s.ffMu.Lock()
	seen, ok := s.ffSeen[f.Stream]
	if !ok {
		seen = make([]temporal.Time, len(s.workers))
		for i := range seen {
			seen[i] = temporal.MinTime
		}
		s.ffSeen[f.Stream] = seen
	}
	seen[p] = temporal.MaxT(seen[p], f.T)
	min := seen[0]
	for _, t := range seen[1:] {
		min = temporal.MinT(min, t)
	}
	advanced := false
	sent, sentOK := s.ffSent[f.Stream]
	if min != temporal.MinTime && (!sentOK || min > sent) {
		s.ffSent[f.Stream] = min
		advanced = true
	}
	s.ffMu.Unlock()
	if advanced {
		s.tel.FF(f.Stream, min)
		s.fb(core.Feedback{Stream: f.Stream, T: min})
	}
}

// Attach registers a publisher under a fresh id, mirrored across every
// worker. The registration is a synchronous control-lane round trip per
// worker — NOT a ring entry — because rings only order one publisher's
// traffic against itself, while an attach must be ordered against every
// other publisher's traffic: Attach returns only once every worker's merger
// knows the stream, so no worker frontier computed after this call can
// ignore it, and the publisher cannot have enqueued data before it. The round
// trips run under the route read-lock so that a pause never observes a stream
// registered on some workers only.
func (s *Sharded) Attach(joinTime temporal.Time) core.StreamID {
	nw := len(s.workers)
	pub := &shardPub{
		rings: make([]*spscRing, nw),
		parts: make([][]temporal.Element, nw),
	}
	for p := range pub.rings {
		pub.rings[p] = &spscRing{}
	}
	s.pubMu.Lock()
	id := s.nextID
	s.nextID++
	s.pubs[id] = pub
	s.pubMu.Unlock()
	s.routeMu.RLock()
	for p, w := range s.workers {
		w.addRing(pub.rings[p])
		w.do(func() { w.op.AttachAt(id, joinTime) })
	}
	s.routeMu.RUnlock()
	s.tel.Attached(id, joinTime)
	return id
}

// Detach unregisters publisher id on every worker and returns only once the
// publisher's stream is fully consumed: each worker unlinks the publisher's
// ring once it consumes the detach entry (the ring's last, per the ordering
// contract), and Detach waits for that on every ring. The drain barrier is
// what makes the server's quiescence signal ("every publisher detached")
// meaningful — once it holds, every routed element has been merged and every
// per-partition counter is final, which the observability layer's routing-
// conservation invariant (and its tests) depend on. Blocking here is fine:
// Detach is connection teardown, the one moment a publisher handler has
// nothing left to pipeline. The detach entries are pushed under the route
// read-lock, like a batch: either every worker has been handed the detach
// when a pause begins, or none has.
func (s *Sharded) Detach(id core.StreamID) {
	if s.closed.Load() {
		return
	}
	s.pubMu.Lock()
	pub := s.pubs[id]
	delete(s.pubs, id)
	s.pubMu.Unlock()
	if pub == nil {
		return
	}
	s.routeMu.RLock()
	for p := range s.workers {
		pub.rings[p].push(ringDetach, id, nil)
	}
	s.routeMu.RUnlock()
	for p, w := range s.workers {
		for pub.rings[p].pending() > 0 {
			w.wakeUp()
			runtime.Gosched()
		}
	}
	s.ffMu.Lock()
	delete(s.ffSeen, id)
	delete(s.ffSent, id)
	s.ffMu.Unlock()
	s.tel.Detached(id)
}

// ProcessBatch routes one publisher batch caller-side: inserts/adjusts to
// their slot's worker, stables coalesced into one batched frontier update
// appended to every worker's sub-batch, preserving the batch's element order
// within each partition's sub-batch. It returns the pool's recorded error
// state — merge errors are asynchronous, surfacing on a later call (or at
// Close) rather than the one that enqueued the faulty element.
func (s *Sharded) ProcessBatch(id core.StreamID, els []temporal.Element) error {
	if s.closed.Load() {
		return ErrShardedClosed
	}
	s.pubMu.RLock()
	pub := s.pubs[id]
	s.pubMu.RUnlock()
	if pub == nil {
		return s.Err()
	}
	nw := len(s.workers)
	for p := 0; p < nw; p++ {
		pub.parts[p] = pub.parts[p][:0]
	}
	pub.slots = pub.slots[:0]

	// Pass 1 (no locks): hash, count, and remember each element's slot.
	var ins, adj, stb int64
	maxStb := temporal.MinTime
	track := s.reb != nil
	for _, e := range els {
		if e.Kind == temporal.KindStable {
			stb++
			if t := e.T(); t > maxStb {
				maxStb = t
			}
			pub.slots = append(pub.slots, -1)
			continue
		}
		if e.Kind == temporal.KindInsert {
			ins++
		} else {
			adj++
		}
		slot := slotOf(s.key(e.Payload))
		pub.slots = append(pub.slots, int32(slot))
		if track {
			if pub.slotCount[slot] == 0 {
				pub.touched = append(pub.touched, slot)
			}
			pub.slotCount[slot]++
		}
	}
	s.inIns.Add(ins)
	s.inAdj.Add(adj)
	s.inStb.Add(stb)
	s.tel.InBulk(ins, adj, stb, maxStb)
	if track {
		for _, sl := range pub.touched {
			s.slotLoad[sl].Add(pub.slotCount[sl])
			pub.slotCount[sl] = 0
		}
		pub.touched = pub.touched[:0]
	}

	// Pass 2 (under the route read-lock): resolve owners against one table
	// version and enqueue. Keeping the pushes inside the read section means a
	// pause never sees a half-pushed batch: a stable and the data it covers
	// reach the workers together or not at all.
	s.routeMu.RLock()
	table := s.table.Load()
	for i, e := range els {
		if sl := pub.slots[i]; sl >= 0 {
			p := table.owner[sl]
			pub.parts[p] = append(pub.parts[p], e)
		}
	}
	if stb > 0 {
		stable := temporal.Stable(maxStb)
		for p := 0; p < nw; p++ {
			pub.parts[p] = append(pub.parts[p], stable)
		}
	}
	for p := 0; p < nw; p++ {
		if len(pub.parts[p]) > 0 {
			pub.rings[p].push(ringBatch, id, pub.parts[p])
		}
	}
	s.routeMu.RUnlock()
	for p := 0; p < nw; p++ {
		if len(pub.parts[p]) > 0 {
			s.workers[p].wakeUp()
		}
	}
	return s.Err()
}

// MaxStable returns the reunified stable point.
func (s *Sharded) MaxStable() temporal.Time {
	return temporal.Time(s.maxStable.Load())
}

// Err returns the first asynchronous merge error, if any.
func (s *Sharded) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *Sharded) recordErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
	s.tel.Fault(0)
}

// Stats returns the reunified traffic counters: input/output traffic as the
// reunified stream saw it (a broadcast stable counts once), Dropped and
// ConsistencyWarnings summed over the workers. The worker sums are gathered
// through the control lanes, so the caller briefly waits behind in-flight
// batches.
func (s *Sharded) Stats() core.Stats {
	st := core.Stats{
		InInserts:  s.inIns.Load(),
		InAdjusts:  s.inAdj.Load(),
		InStables:  s.inStb.Load(),
		OutInserts: s.outIns.Load(),
		OutAdjusts: s.outAdj.Load(),
		OutStables: s.outStb.Load(),
	}
	for _, ws := range s.workerStats() {
		st.Dropped += ws.Dropped
		st.ConsistencyWarnings += ws.ConsistencyWarnings
	}
	return st
}

// SizeBytes sums the workers' merge-state footprints: each worker publishes
// its merger's size (a field read for the index-backed algorithms) after
// every loop pass that did work, so this is a sum of atomic loads that never
// touches the control lanes — exact once the workers are quiescent, at most
// one drain pass behind while they run. It also refreshes the pool telemetry
// node's state gauge when one is attached.
func (s *Sharded) SizeBytes() int {
	if s.closed.Load() {
		return 0
	}
	total := 0
	for _, w := range s.workers {
		total += int(w.size.Load())
	}
	s.tel.SetStateBytes(total)
	return total
}

// workerStats fetches each worker's merger counters via its control lane.
func (s *Sharded) workerStats() []core.Stats {
	out := make([]core.Stats, len(s.workers))
	if s.closed.Load() {
		return out
	}
	for p, w := range s.workers {
		w.do(func() { out[p] = *w.op.Merger().Stats() })
	}
	return out
}

// PartitionStat is one worker's load gauge set (see metrics wiring in
// lmserved).
type PartitionStat struct {
	// QueueDepth is the number of entries pending across the worker's ingress
	// rings.
	QueueDepth int
	// Processed is the number of elements the worker has merged.
	Processed int64
	// Stable is the worker's stable frontier.
	Stable temporal.Time
	// Lag is how far the worker's frontier trails the leading partition's.
	Lag temporal.Time
}

// PartitionStats samples every worker's gauges without stopping the pool,
// refreshing each worker's telemetry queue-depth gauge along the way.
func (s *Sharded) PartitionStats() []PartitionStat {
	out := make([]PartitionStat, len(s.workers))
	s.emitMu.Lock()
	lead := s.front.Max()
	for p := range out {
		out[p].Stable = s.front.Value(p)
		if lead != temporal.MinTime && out[p].Stable != temporal.MinTime && !lead.IsInf() {
			out[p].Lag = lead - out[p].Stable
		}
	}
	s.emitMu.Unlock()
	for p, w := range s.workers {
		depth := w.backlog()
		out[p].QueueDepth = depth
		out[p].Processed = w.processed.Load()
		w.tel.SetQueueDepth(depth)
	}
	return out
}

// SlotOwner implements Rebalancer: the worker currently owning a routing
// slot.
func (s *Sharded) SlotOwner(slot int) int {
	return int(s.table.Load().owner[slot])
}

// SlotLoads returns the cumulative routed-element count per routing slot.
// The counters are the adaptive controller's load signal and are maintained
// only while one is attached (ShardRebalance); without one they read zero.
// Combined with SlotOwner they give the offered-load balance of the current
// slot assignment — the quantity the controller flattens — independent of
// which worker goroutines the OS scheduler happened to run.
func (s *Sharded) SlotLoads() (out [Slots]int64) {
	for i := range out {
		out[i] = s.slotLoad[i].Load()
	}
	return out
}

// MigrateSlot implements Rebalancer: it moves ownership of one routing slot
// to worker `to` (see migrate in rebalance.go), blocking for the whole pause.
// It reports whether the slot moved; it is a no-op when the slot already lives
// on `to`, when the workers' algorithm does not support handoff, when the
// donor cannot extract the slot's keys (the slot then stays where it is), or
// on a closed pool. Cold path — not for concurrent use with Close.
func (s *Sharded) MigrateSlot(slot, to int) bool {
	if slot < 0 || slot >= Slots || to < 0 || to >= len(s.workers) {
		return false
	}
	return s.migrate([]slotMove{{slot: slot, to: to}}) == 1
}

// Migrations returns the number of slots moved so far, by the adaptive
// controller and MigrateSlot alike.
func (s *Sharded) Migrations() int64 { return s.migrations.Load() }

// Close drains and stops the workers. No Attach/Detach/ProcessBatch may be
// in flight or issued afterwards (the server closes publisher handlers
// first). Close returns the pool's recorded error state.
func (s *Sharded) Close() error {
	if !s.closing.Swap(true) {
		// Stop the rebalance controller before marking the pool closed: an
		// in-flight migration completes against live workers, and no new one
		// starts against exiting ones.
		if s.reb != nil {
			s.reb.stop()
		}
		s.closed.Store(true)
		for _, w := range s.workers {
			w.wakeUp()
		}
		s.wg.Wait()
	}
	return s.Err()
}

// --- shardWorker helpers ---

// do runs fn on w's goroutine at its next loop boundary — after any drain
// pass in progress has flushed its emissions — and returns once fn has. The
// worker's merger is touched by its own goroutine only; this is how every
// other goroutine reaches it. Not for use on a closed pool (the worker may
// have exited).
func (w *shardWorker) do(fn func()) {
	done := make(chan struct{})
	w.ctl <- func() { fn(); close(done) }
	w.wakeUp()
	<-done
}

// backlog is the number of entries pending across the worker's ingress rings.
func (w *shardWorker) backlog() int {
	n := 0
	for _, r := range w.ringList() {
		n += r.pending()
	}
	return n
}

// publishSize makes the merger's current footprint visible to SizeBytes.
func (w *shardWorker) publishSize() { w.size.Store(int64(w.op.Merger().SizeBytes())) }

func (w *shardWorker) ringList() []*spscRing {
	if p := w.rings.Load(); p != nil {
		return *p
	}
	return nil
}

func (w *shardWorker) addRing(r *spscRing) {
	w.ringMu.Lock()
	cur := w.ringList()
	next := make([]*spscRing, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, r)
	w.rings.Store(&next)
	w.ringMu.Unlock()
}

func (w *shardWorker) dropRing(r *spscRing) {
	w.ringMu.Lock()
	cur := w.ringList()
	next := make([]*spscRing, 0, len(cur))
	for _, x := range cur {
		if x != r {
			next = append(next, x)
		}
	}
	w.rings.Store(&next)
	w.ringMu.Unlock()
}

// wakeUp unparks the worker if it is (about to be) blocked. The CAS hands
// exactly one producer the duty of posting the token; a stale token only
// causes a spurious scan.
func (w *shardWorker) wakeUp() {
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// workReady reports whether any ring or the control lane has pending work;
// the worker re-checks it between publishing parked=true and blocking, which
// with the producers' push-then-check-parked order makes the park race-free.
func (w *shardWorker) workReady() bool {
	return len(w.ctl) > 0 || w.backlog() > 0
}
