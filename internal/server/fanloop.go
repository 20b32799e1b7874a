package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"lmerge/internal/obs"
	"lmerge/internal/wire"
)

// The event-loop delivery plane of the binary fan-out path (DESIGN.md §15).
// PR 9's blockQueue model spent one writer goroutine + one credit-reader
// goroutine + a 32 KiB bufio writer per subscriber and an O(N) span-push in
// broadcast; here a subscriber at rest is a cursor into the shared broadcast
// log (wire.BlockLog) plus the csub record below — a few hundred bytes, no
// stack — and a fixed pool of workers drains whichever subscribers have both
// data (cursor behind the log head) and credit. Broadcast becomes O(1):
// append once, wake the loop.
//
// Subscriber states:
//
//	parked  — drained the log; sitting in the parked list until an append
//	ready   — has data and (presumed) credit; queued for a worker
//	running — owned by exactly one worker, which writes to its socket
//	stalled — data pending but credit short of the next frame; watched by
//	          the sweeper, revived by a CREDIT grant, evicted at deadline
//	closed  — connection done; cursor detached exactly once (finalize)
//
// Wakeup discipline: Append publishes the new head (atomic store under the
// log lock) before wake() takes fl.mu to splice the parked list into the
// ready list; a worker's decision to park happens under fl.mu after reading
// the head through the log lock. Any append therefore either sees the
// subscriber in the parked list or the subscriber's park decision saw the
// appended head — a parked subscriber with unread data cannot exist once
// wake returns.
//
// Lock order: outMu → fl.mu → blog.mu. The fan loop never takes outMu.

// maxCredit caps a subscriber's accumulated credit so a misbehaving client
// spamming grants cannot overflow the accounting.
const maxCredit = int64(1) << 40

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

type csubState int8

const (
	subParked csubState = iota
	subReady
	subRunning
	subStalled
	subClosed
)

// csub is one registered binary subscriber: its cursor into the broadcast
// log, its credit ledger, and its private history catch-up. This struct (plus
// the cursor and leftover slice) is the entire at-rest cost of a subscriber.
type csub struct {
	id   int
	conn net.Conn
	cur  *wire.Cursor

	// hist is the positional-resume catch-up encoding, served under the same
	// credit before any shared-log bytes; freed once drained. histOff is the
	// consumed prefix.
	hist    []byte
	histOff int

	// leftover is whatever the handshake's read buffer held beyond the HELLO
	// frame (a pipelined CREDIT grant, usually) — handed to the on-demand
	// credit reader so the 64 KiB handshake buffer itself can be dropped.
	leftover []byte

	credit int64
	// stallStart is when delivery first found credit short of the next frame;
	// cleared on progress. The eviction deadline counts from it.
	stallStart time.Time
	state      csubState
	evicted    bool
	readerUp   bool
	finalized  bool

	// armed is the lazy write-deadline re-arm mark; touched only by the
	// worker that owns the csub while it is running.
	armed time.Time
}

// fanLoop multiplexes every binary subscriber over a fixed worker pool.
type fanLoop struct {
	s *Server

	mu   sync.Mutex
	cond *sync.Cond // workers wait here for ready subscribers

	// ready is a FIFO of subscribers believed to have data and credit;
	// readyHead is the consumed prefix (reset when drained, so the slice
	// recycles instead of growing). parked holds drained subscribers; wake
	// splices it into ready wholesale — O(1) in the steady state where the
	// ready list is empty between appends.
	ready     []*csub
	readyHead int
	parked    []*csub

	// stalled is the sweeper's watch set: subscribers whose credit is short
	// of their next frame.
	stalled map[*csub]struct{}

	subs      map[int]*csub
	started   bool
	closed    bool
	stopSweep chan struct{}
}

func newFanLoop(s *Server) *fanLoop {
	fl := &fanLoop{
		s:         s,
		stalled:   make(map[*csub]struct{}),
		subs:      make(map[int]*csub),
		stopSweep: make(chan struct{}),
	}
	fl.cond = sync.NewCond(&fl.mu)
	return fl
}

// register adds a subscriber to the loop's registry. Called with the
// server's outMu held (ordering with the backlog snapshot and log attach);
// reports false when the loop is already shut down. The initial
// handshake-granted credit is already on c.
func (fl *fanLoop) register(c *csub) bool {
	fl.mu.Lock()
	if fl.closed {
		fl.mu.Unlock()
		return false
	}
	fl.subs[c.id] = c
	if c.credit > 0 {
		fl.s.wireTel.CreditGranted(c.credit)
	}
	fl.s.wireTel.SubscriberAttached()
	fl.mu.Unlock()
	return true
}

// subscribers reports the registered (not yet finalized) subscriber count.
func (fl *fanLoop) subscribers() int {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return len(fl.subs)
}

// hasSubs is broadcast's fast-path check; outMu serialises it against
// register, so a false here cannot race a subscriber that attached before
// this broadcast.
func (fl *fanLoop) hasSubs() bool {
	return fl.subscribers() > 0
}

// activate queues a freshly registered subscriber for its first service
// round, starting the worker pool on the first activation ever. The handler
// goroutine returns right after this — from here on the subscriber costs no
// stack.
func (fl *fanLoop) activate(c *csub) {
	fl.mu.Lock()
	if fl.closed || c.state == subClosed {
		fl.finalizeLocked(c)
		fl.mu.Unlock()
		return
	}
	fl.ensureWorkersLocked()
	fl.pushReadyLocked(c)
	fl.mu.Unlock()
}

// drop closes a subscriber from its handler before activation (handshake
// write failed).
func (fl *fanLoop) drop(c *csub) {
	fl.mu.Lock()
	fl.closeSubLocked(c, false)
	fl.mu.Unlock()
}

// fanoutWorkers sizes the binary delivery worker pool: the fixed set of
// goroutines multiplexing every binary subscriber's socket writes.
func fanoutWorkers() int { return max(2, runtime.GOMAXPROCS(0)) }

// ensureWorkersLocked starts the worker pool and the eviction sweeper on the
// first binary subscriber; servers that never see one never pay for them.
func (fl *fanLoop) ensureWorkersLocked() {
	if fl.started {
		return
	}
	fl.started = true
	n := fanoutWorkers()
	fl.s.wireTel.SetWorkers(int64(n))
	fl.s.wg.Add(n + 1)
	for i := 0; i < n; i++ {
		go fl.worker()
	}
	go fl.sweeper()
}

func (fl *fanLoop) pushReadyLocked(c *csub) {
	c.state = subReady
	fl.ready = append(fl.ready, c)
	fl.s.wireTel.ReadyDepth(1)
	fl.cond.Signal()
}

// wake splices every parked subscriber into the ready list: an append made
// the log head move, so each of them has exactly that data to read. Called
// once per broadcast regardless of subscriber count.
func (fl *fanLoop) wake() {
	fl.mu.Lock()
	moved := len(fl.parked)
	if moved == 0 || fl.closed {
		fl.mu.Unlock()
		return
	}
	if fl.readyHead == len(fl.ready) {
		// Steady state: the ready list drained since the last append; swap the
		// whole cohort over without copying.
		fl.ready, fl.parked = fl.parked, fl.ready[:0]
		fl.readyHead = 0
	} else {
		fl.ready = append(fl.ready, fl.parked...)
		for i := range fl.parked {
			fl.parked[i] = nil
		}
		fl.parked = fl.parked[:0]
	}
	fl.s.wireTel.ReadyDepth(int64(moved))
	if moved == 1 {
		fl.cond.Signal()
	} else {
		fl.cond.Broadcast()
	}
	fl.mu.Unlock()
}

// grant applies a CREDIT replenishment (already coalesced by the reader) and
// revives the subscriber if it was credit-stalled. Grants are non-negative
// by protocol construction and the total is capped, so credit stays in
// [0, maxCredit].
func (fl *fanLoop) grant(c *csub, n int64) {
	if n <= 0 {
		return
	}
	fl.mu.Lock()
	if c.state == subClosed || fl.closed {
		fl.mu.Unlock()
		return
	}
	c.credit = min64(c.credit+n, maxCredit)
	fl.s.wireTel.CreditGranted(n)
	if c.state == subStalled {
		delete(fl.stalled, c)
		fl.pushReadyLocked(c)
	}
	fl.mu.Unlock()
}

// closeSubLocked moves a subscriber to the closed state and finalizes it,
// unless a worker owns it right now — the worker observes subClosed at its
// next plan and finalizes then. Idempotent.
func (fl *fanLoop) closeSubLocked(c *csub, evict bool) {
	if c.state == subClosed {
		return
	}
	prev := c.state
	c.state = subClosed
	c.evicted = evict
	if prev == subStalled {
		delete(fl.stalled, c)
	}
	if prev != subRunning {
		fl.finalizeLocked(c)
	}
	// Unblocks the owning worker mid-write, the credit reader mid-read, and
	// tells the client — last, so that a client that sees the disconnect of a
	// subscriber no worker owned finds it already counted.
	c.conn.Close()
}

// finalizeLocked detaches the cursor (releasing whatever log tail only this
// subscriber held) and unregisters — exactly once, however close paths race.
func (fl *fanLoop) finalizeLocked(c *csub) {
	if c.finalized {
		return
	}
	c.finalized = true
	c.state = subClosed
	c.hist = nil
	fl.s.blog.Detach(c.cur)
	delete(fl.subs, c.id)
	fl.s.wireTel.SubscriberDetached()
	if c.evicted {
		fl.s.wireTel.Evicted()
		fl.s.reg.Trace().Record(obs.Event{Kind: obs.EventSubscriberDrop, Node: "server", Stream: c.id, Aux: 1})
	}
}

// close shuts the loop down: every connection is closed (unblocking workers
// and readers), non-running subscribers are finalized here, running ones by
// their owning worker's next plan. Idempotent; Server.Close waits for the
// workers via s.wg.
func (fl *fanLoop) close() {
	fl.mu.Lock()
	if fl.closed {
		fl.mu.Unlock()
		return
	}
	fl.closed = true
	for _, c := range fl.subs {
		if c.state != subClosed {
			c.conn.Close()
			if c.state != subRunning {
				if c.state == subStalled {
					delete(fl.stalled, c)
				}
				c.state = subClosed
				fl.finalizeLocked(c)
			}
		}
	}
	close(fl.stopSweep)
	fl.cond.Broadcast()
	fl.mu.Unlock()
}

// fanBufPool holds the workers' gather buffers: delivery copies whole frames
// out of the shared log under the log lock (so no block reference ever spans
// a socket write) and writes one contiguous chunk. Pool-shared across
// workers, not per-subscriber.
var fanBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, wire.BlockCap)
		return &b
	},
}

// worker is one delivery loop: pop a ready subscriber, service it until it
// drains, stalls, yields, or dies, repeat.
func (fl *fanLoop) worker() {
	defer fl.s.wg.Done()
	fl.mu.Lock()
	for {
		for !fl.closed && fl.readyHead == len(fl.ready) {
			fl.cond.Wait()
		}
		if fl.closed {
			fl.mu.Unlock()
			return
		}
		c := fl.ready[fl.readyHead]
		fl.ready[fl.readyHead] = nil
		fl.readyHead++
		if fl.readyHead == len(fl.ready) {
			fl.ready = fl.ready[:0]
			fl.readyHead = 0
		}
		fl.s.wireTel.ReadyDepth(-1)
		if c.state == subClosed {
			// Closed while queued; already finalized.
			continue
		}
		c.state = subRunning
		fl.mu.Unlock()
		fl.service(c)
		fl.mu.Lock()
	}
}

// service drives one subscriber: plan a write under fl.mu (history first,
// then shared-log frames, all within the credit ledger), perform the socket
// write unlocked, loop. Exits by parking (drained), stalling (credit short),
// yielding (other subscribers waiting), or finalizing (closed/error).
func (fl *fanLoop) service(c *csub) {
	s := fl.s
	bp := fanBufPool.Get().(*[]byte)
	gather := *bp
	defer fanBufPool.Put(bp)
	rounds := 0
	for {
		fl.mu.Lock()
		if fl.closed || c.state == subClosed {
			fl.finalizeLocked(c)
			fl.mu.Unlock()
			return
		}
		// Fairness: with other subscribers queued, a firehose subscriber
		// yields its worker after each round instead of monopolising it.
		if rounds > 0 && fl.readyHead < len(fl.ready) {
			fl.pushReadyLocked(c)
			fl.mu.Unlock()
			return
		}

		// Plan: cut whole frames under the credit ledger into the gather
		// buffer — private history strictly before shared-log bytes.
		bufN, frames, need := 0, 0, 0
		var direct []byte
		var directBlk *wire.Block
		histActive := c.histOff < len(c.hist)
		if histActive {
			take, nf, nd := wire.FrameCut(c.hist[c.histOff:], c.credit, len(gather))
			copy(gather, c.hist[c.histOff:c.histOff+take])
			c.histOff += take
			bufN = take
			frames = nf
			need = nd
			if c.histOff == len(c.hist) {
				c.hist, c.histOff = nil, 0
				histActive = false
			}
		}
		if !histActive && need == 0 && bufN < len(gather) {
			ln, lf, lneed := s.blog.CopyOut(c.cur, gather[bufN:], c.credit-int64(bufN))
			bufN += ln
			frames += lf
			if bufN == 0 {
				need = lneed
			}
		}
		if bufN == 0 && need > 0 && int64(need) <= c.credit {
			// A frame too large for the gather buffer but covered by credit:
			// write it straight from its dedicated block (or the hist slice),
			// holding a transient block reference across the socket write.
			if histActive {
				direct = c.hist[c.histOff : c.histOff+need]
				c.histOff += need
				if c.histOff == len(c.hist) {
					c.hist, c.histOff = nil, 0
				}
				frames++
			} else if data, blk, ok := s.blog.ReadAt(c.cur); ok && len(data) >= need {
				direct = data[:need]
				directBlk = blk
				s.blog.Advance(c.cur, need)
				frames++
			} else if ok {
				blk.Release()
			}
			need = 0
		}

		if total := bufN + len(direct); total > 0 {
			c.credit -= int64(total)
			c.stallStart = time.Time{}
			fl.mu.Unlock()
			err := fl.writeConn(c, gather[:bufN], direct)
			if directBlk != nil {
				directBlk.Release()
			}
			if err != nil {
				fl.mu.Lock()
				fl.closeSubLocked(c, false)
				fl.finalizeLocked(c)
				fl.mu.Unlock()
				return
			}
			s.wireTel.Shared(total, frames)
			rounds++
			continue
		}

		if need > 0 {
			// Credit short of the next frame: stall. The sweeper evicts if no
			// grant lands before the deadline; the first stall of a subscriber
			// promotes its on-demand credit reader.
			c.state = subStalled
			fl.stalled[c] = struct{}{}
			if c.stallStart.IsZero() {
				c.stallStart = time.Now()
				s.wireTel.CreditStalled()
			}
			fl.promoteReaderLocked(c)
			fl.mu.Unlock()
			return
		}

		// Drained: park until the next append. The park decision and CopyOut's
		// head read both happened under fl.mu, so a concurrent append's wake
		// (which also takes fl.mu) either ran before our CopyOut — which then
		// saw the new head — or will see us in the parked list.
		c.state = subParked
		fl.parked = append(fl.parked, c)
		fl.mu.Unlock()
		return
	}
}

// writeConn writes the planned chunk(s) with the lazily re-armed write
// deadline: a peer that stops reading while credit remains outstanding is
// caught by the same deadline that backstops credit stalls. Re-armed only
// once the previous arm burned half its window, because arming is not free
// and the hot path writes one small chunk per merged element. A wedged
// socket therefore holds this worker for at most ~the credit deadline —
// the documented cost of pooling writers.
func (fl *fanLoop) writeConn(c *csub, a, b []byte) error {
	stall := fl.s.opts.CreditDeadline
	if now := time.Now(); now.Sub(c.armed) > stall/2 {
		c.armed = now
		c.conn.SetWriteDeadline(now.Add(stall))
	}
	if len(a) > 0 {
		if _, err := c.conn.Write(a); err != nil {
			return err
		}
	}
	if len(b) > 0 {
		if _, err := c.conn.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// promoteReaderLocked starts the subscriber's persistent credit reader on
// its first stall. Subscribers that never stall never get one: their grants
// sit in the socket buffer unread, which is fine — the server only needs
// credit it is about to spend. Reading resumes from the handshake leftover so
// no pipelined grant is lost.
func (fl *fanLoop) promoteReaderLocked(c *csub) {
	if c.readerUp {
		return
	}
	c.readerUp = true
	fl.s.wireTel.ReaderStarted()
	fl.s.wg.Add(1)
	go fl.creditReader(c)
}

// creditReader drains a stalled subscriber's inbound frames, coalescing
// CREDIT bursts into one grant (one lock, one wake) — batched replenish
// processing. Exits when the connection dies (subscriber gone or evicted).
func (fl *fanLoop) creditReader(c *csub) {
	defer fl.s.wg.Done()
	defer fl.s.wireTel.ReaderStopped()
	var src io.Reader = c.conn
	if len(c.leftover) > 0 {
		src = io.MultiReader(bytes.NewReader(c.leftover), c.conn)
	}
	fr := wire.NewReader(bufio.NewReaderSize(src, 512))
	for {
		typ, body, err := fr.Next()
		if err != nil {
			fl.mu.Lock()
			fl.closeSubLocked(c, false)
			fl.mu.Unlock()
			return
		}
		if typ != wire.FrCredit {
			continue // forward compatibility
		}
		total, perr := wire.ParseCredit(body)
		if perr != nil {
			continue
		}
		// Coalesce the burst: every CREDIT already buffered folds into one
		// grant instead of one wakeup each.
		for fr.Buffered() > 0 {
			typ2, body2, err2 := fr.Next()
			if err2 != nil {
				break // apply what we have; the next Next() reports the error
			}
			if typ2 == wire.FrCredit {
				if n, perr2 := wire.ParseCredit(body2); perr2 == nil {
					total += n
				}
			}
		}
		fl.grant(c, total)
	}
}

// sweeper is the eviction backstop: a single ticker scanning only the
// stalled set. A subscriber whose stall has lasted the credit deadline is
// evicted — never earlier; the tick grain only delays eviction, it cannot
// hasten it.
func (fl *fanLoop) sweeper() {
	defer fl.s.wg.Done()
	deadline := fl.s.opts.CreditDeadline
	tick := deadline / 8
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-fl.stopSweep:
			return
		case <-t.C:
			now := time.Now()
			fl.mu.Lock()
			var victims []*csub
			for c := range fl.stalled {
				if !c.stallStart.IsZero() && now.Sub(c.stallStart) >= deadline {
					victims = append(victims, c)
				}
			}
			for _, c := range victims {
				fl.closeSubLocked(c, true)
			}
			fl.mu.Unlock()
		}
	}
}
