// Package server exposes a Logical Merge over TCP: replica query instances
// connect as publishers and push their physical streams as JSON lines;
// consumers connect as subscribers and receive the single merged stream.
// This is the deployment shape of the paper's high-availability application
// (Sec. II-1): n replicas on different machines feeding one LMerge at the
// consumer side, with publishers free to connect, disconnect, and reconnect
// mid-run.
//
// Wire protocol (line-oriented):
//
//	client → server, first line:   HELLO PUB <joinTime>   or   HELLO SUB [FROM <n>]
//	server → client, reply:        OK <streamID> <stable> or   OK SUB
//	publisher lines:               one element per line (temporal wire JSON)
//	server → publisher:            FF <t> fast-forward signals, DETACH <why>,
//	                               ACK once the stream's stable(∞) is merged
//	subscriber lines:              merged elements, one per line
//
// A publisher's disconnect detaches its stream; the merge keeps flowing
// while at least one publisher remains. The <stable> field of the publisher
// handshake is the merged output's current stable point: a reconnecting
// replica may skip every element whose relevance ends at or before it (the
// fast-forward rule of Sec. V-D), which is how re-attach catch-up stays
// cheap. "HELLO SUB FROM <n>" resumes a subscription positionally after the
// first n elements of the merged history.
//
// Fault handling (see DESIGN.md §6): the server supervises publishers with
// per-connection read deadlines and per-publisher progress watermarks; a
// publisher whose watermark trails the merged stable point by more than the
// straggler threshold is force-detached (a "DETACH straggler" line, then the
// connection closes) so state and feedback never accumulate behind a dead or
// lagging replica. A slow subscriber never stalls delivery to the others:
// text subscribers are fed through per-subscriber buffered queues and are
// disconnected when theirs overflows; binary (v2) subscribers read the
// shared broadcast log through their own cursors under byte credit and are
// evicted only when credit-stalled past a deadline. Either kind can resume
// positionally with FROM.
//
// With a data directory, every publisher batch is written to the WAL before
// it is merged and every emission before it is delivered; the first failed
// append stops both (durability.go).
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"lmerge/internal/core"
	"lmerge/internal/durable"
	"lmerge/internal/obs"
	"lmerge/internal/partition"
	"lmerge/internal/spill"
	"lmerge/internal/temporal"
	"lmerge/internal/wire"
)

// Server is a network-facing LMerge.
type Server struct {
	ln   net.Listener
	opts Options
	be   backend // internally synchronised; called outside the server locks

	// reg is the server's telemetry registry (always created): the merge
	// backend reports into the node named "merge" (plus "merge/partN" worker
	// nodes when partitioned), and server-level faults — straggler detaches,
	// subscriber queue overflows — land in the shared event trace. Surfaced
	// over HTTP by MetricsHandler.
	reg *obs.Registry
	tel *obs.Node // the "merge" node (shared with the backend)

	// mu guards publisher state and the closed flag.
	mu       sync.Mutex
	pubs     map[core.StreamID]*pubState // liveness + feedback routing
	pubCount int
	closed   bool
	detached int64 // stragglers force-detached by the supervisor

	// outMu guards the merged-output side: the backlog and subscriber
	// queues. The backend's emit path takes it (from merge processing or,
	// partitioned, from worker goroutines), so it is never held across a
	// backend call.
	outMu      sync.Mutex
	backlog    temporal.Stream   // full merged history, replayed to late subscribers
	subs       map[int]*subQueue // v1 text subscribers (shared marshalled lines)
	nextSub    int
	subsClosed bool
	// blog is the encode-once broadcast log of the binary fan-out path: each
	// emitted element is framed exactly once (under outMu) and every binary
	// subscriber reads it through its own cursor; fl is the event-loop worker
	// pool that drains those cursors (fanloop.go, DESIGN.md §15).
	blog    *wire.BlockLog
	fl      *fanLoop
	wireTel *obs.Wire

	// dur is the persistence tier (nil without Options.DataDir): WAL hooks on
	// the ingestion and emission paths, the checkpoint barrier, and recovery
	// state. See durability.go.
	dur *durability

	// spillers are the out-of-core wrappers around the backend's mergers
	// (empty without Options.MemBudget); spillTel is their shared telemetry
	// and spillTmp a temporary run directory to remove at Close (empty when
	// runs live under DataDir).
	spillers []*spill.Merger
	spillTel *obs.Spill
	spillTmp string

	done chan struct{}
	wg   sync.WaitGroup
}

// pubState is the server-side view of one attached publisher. bin selects
// how control signals reach it: v1 text lines or v2 frames.
type pubState struct {
	conn net.Conn
	bin  bool
	// wmu serialises control writes (FF signals from the merge path, DETACH
	// from the supervisor) so concurrent writers cannot interleave partial
	// lines or frames on the wire. fbuf is the frame scratch it guards.
	wmu  sync.Mutex
	fbuf []byte
	// watermark is the largest stable timestamp this publisher has delivered
	// (its own progress, updated under Server.mu).
	watermark  temporal.Time
	attachedAt time.Time
	// joinTime is the stream's join guarantee, re-logged at WAL rotation so
	// every generation replays standalone.
	joinTime temporal.Time
}

// ctrlWriteTimeout bounds control-line writes (FF, DETACH) so a publisher
// with a full socket buffer can never stall the merge or the supervisor.
const ctrlWriteTimeout = time.Second

// writeCtrl writes one control line with a bounded deadline.
func (ps *pubState) writeCtrl(format string, args ...any) {
	ps.wmu.Lock()
	defer ps.wmu.Unlock()
	ps.conn.SetWriteDeadline(time.Now().Add(ctrlWriteTimeout))
	fmt.Fprintf(ps.conn, format, args...)
	ps.conn.SetWriteDeadline(time.Time{})
}

// writeFrame builds one control frame in the guarded scratch and writes it
// with a bounded deadline (the v2 counterpart of writeCtrl).
func (ps *pubState) writeFrame(mk func([]byte) []byte) {
	ps.wmu.Lock()
	defer ps.wmu.Unlock()
	ps.fbuf = mk(ps.fbuf[:0])
	ps.conn.SetWriteDeadline(time.Now().Add(ctrlWriteTimeout))
	ps.conn.Write(ps.fbuf)
	ps.conn.SetWriteDeadline(time.Time{})
}

// The send* methods dispatch each control signal to the publisher's protocol,
// so the merge path and the supervisor stay protocol-blind.

func (ps *pubState) sendOK(id int64, stable temporal.Time) {
	if ps.bin {
		ps.writeFrame(func(b []byte) []byte { return wire.AppendOK(b, id, stable) })
		return
	}
	ps.writeCtrl("OK %d %d\n", id, int64(stable))
}

func (ps *pubState) sendFF(t temporal.Time) {
	if ps.bin {
		ps.writeFrame(func(b []byte) []byte { return wire.AppendFF(b, t) })
		return
	}
	ps.writeCtrl("FF %d\n", int64(t))
}

func (ps *pubState) sendDetach(reason string) {
	if ps.bin {
		ps.writeFrame(func(b []byte) []byte { return wire.AppendDetach(b, reason) })
		return
	}
	ps.writeCtrl("DETACH %s\n", reason)
}

func (ps *pubState) sendAck() {
	if ps.bin {
		ps.writeFrame(wire.AppendAck)
		return
	}
	ps.writeCtrl("ACK\n")
}

func (ps *pubState) sendErr(err error) {
	if ps.bin {
		msg := err.Error()
		ps.writeFrame(func(b []byte) []byte { return wire.AppendErr(b, msg) })
		return
	}
	ps.writeCtrl("ERR %v\n", err)
}

// Options configures a server.
type Options struct {
	// Case selects the merge algorithm (default R3).
	Case core.Case
	// FeedbackLag, when >= 0, enables fast-forward feedback to lagging
	// publishers (Sec. V-D over the wire): a publisher whose own progress
	// trails the merged output by more than this many ticks receives an
	// "FF <t>" line and may skip elements that end by t. Negative disables.
	FeedbackLag temporal.Time

	// StragglerLag, when > 0, enables the straggler policy: a publisher
	// whose progress watermark trails the merged output's stable point by
	// more than this many ticks is force-detached so the merge degrades
	// gracefully instead of dragging dead state (and, under the deferred
	// insert policies, a stalled stable point) behind it. The last remaining
	// publisher is never detached.
	StragglerLag temporal.Time
	// StragglerGrace is how long a freshly attached publisher is exempt from
	// the straggler policy — room for a re-attaching replica to catch up
	// (default 500ms).
	StragglerGrace time.Duration
	// SuperviseEvery is the supervision sweep period (default 25ms).
	SuperviseEvery time.Duration
	// ReadTimeout, when > 0, bounds each read from a publisher connection. A
	// publisher that goes silent past the deadline — the half-open TCP
	// signature of a crashed host — is detached. Zero disables.
	ReadTimeout time.Duration
	// SubscriberBuffer is the per-subscriber queue capacity in elements; a
	// text subscriber whose queue overflows is disconnected (it can resume
	// with HELLO SUB FROM <n>). Default 32768. Binary (v2) subscribers are
	// not subject to it: their backpressure is credit-based (see
	// CreditDeadline).
	SubscriberBuffer int
	// CreditDeadline bounds how long a binary subscriber may stay
	// credit-stalled (its granted byte credit short of the next frame) before
	// the slow-consumer backstop evicts it; it also bounds each socket write
	// to a binary subscriber. An exhausted credit pauses that subscriber's
	// writer — nobody else is perturbed — and only the deadline disconnects.
	// Default 15s.
	CreditDeadline time.Duration
	// Partitions, when > 1, selects the keyed scale-out backend: a
	// partition.Sharded pool of that many merger instances, each on its own
	// worker goroutine, fed by payload-hash routing with stables broadcast
	// and outputs reunified at the minimum partition frontier (DESIGN.md
	// §8). 0 or 1 selects the classic single-merger backend.
	Partitions int
	// Rebalance, when non-nil and Partitions > 1, turns on adaptive hot-key
	// repartitioning: the pool samples per-slot routed load and, when one
	// partition worker runs hot, pauses briefly to move routing slots (and
	// their merge state) to the cold ones (DESIGN.md §11). Zero-valued fields
	// take the partition.RebalanceConfig defaults.
	Rebalance *partition.RebalanceConfig

	// MemBudget, when > 0, bounds the merge state resident in memory (in
	// SizeBytes units, split evenly across partitions): each merger is
	// wrapped in the out-of-core spill layer (internal/spill, DESIGN.md §13),
	// which extracts frozen agreed state into sorted on-disk runs whenever a
	// probe sees the resident footprint above the budget, compacts runs in
	// the background, and replays them on demand (key re-presentation,
	// foreign stables, snapshots). Runs live under DataDir/spill when DataDir
	// is set, else a temporary directory removed at Close. Requires a
	// spill-capable merge case (R3/R4 families, immediate-emission policies).
	MemBudget int

	// DataDir, when non-empty, makes the merge state durable (DESIGN.md §12):
	// publisher batches and merged-output emissions are written to a
	// checksummed WAL before they are acknowledged or delivered, periodic
	// checkpoints serialize the merger's Snapshot() stream (per partition,
	// plus the routing table, when sharded) with atomic rename, and startup
	// recovers from the newest valid checkpoint plus the WAL tail. Requires a
	// snapshot-capable merge case (R3/R4 families).
	DataDir string
	// CheckpointEvery is the background checkpoint period under DataDir
	// (default 2s).
	CheckpointEvery time.Duration
	// Fsync makes every WAL append fsync before returning — durable against
	// power failure, not just process death — at a substantial per-element
	// cost (measured in EXPERIMENTS.md).
	Fsync bool
}

func (o Options) withDefaults() Options {
	if o.StragglerGrace <= 0 {
		o.StragglerGrace = 500 * time.Millisecond
	}
	if o.SuperviseEvery <= 0 {
		o.SuperviseEvery = 25 * time.Millisecond
	}
	if o.SubscriberBuffer <= 0 {
		o.SubscriberBuffer = 32768
	}
	if o.CreditDeadline <= 0 {
		o.CreditDeadline = 15 * time.Second
	}
	return o
}

// New builds a server merging with the given algorithm case, listening on
// addr (e.g. "127.0.0.1:0"). Feedback and the straggler policy are disabled;
// use NewWithOptions to enable them.
func New(addr string, c core.Case) (*Server, error) {
	return NewWithOptions(addr, Options{Case: c, FeedbackLag: -1})
}

// NewWithOptions builds a server with explicit options.
func NewWithOptions(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:      ln,
		opts:    opts.withDefaults(),
		subs:    make(map[int]*subQueue),
		pubs:    make(map[core.StreamID]*pubState),
		done:    make(chan struct{}),
		reg:     obs.NewRegistry(),
		wireTel: &obs.Wire{},
	}
	s.tel = s.reg.Node("merge")
	s.blog = wire.NewBlockLog(s.wireTel)
	s.fl = newFanLoop(s)
	var fb core.FeedbackFunc
	lag := temporal.Time(-1)
	if opts.FeedbackLag >= 0 {
		fb = s.signalFastForward
		lag = opts.FeedbackLag
	}
	// The -mem-budget path: every backend merger is wrapped in the spill
	// layer, the budget split evenly across partitions. Runs live under
	// DataDir/spill (crash-disposable — recovery wipes and restarts from
	// checkpoints, which subsume run content) or a temp dir removed at Close.
	var mkWrap func(part int, m core.Merger) core.Merger
	var wrapErr error
	if opts.MemBudget > 0 {
		spillDir := ""
		if opts.DataDir != "" {
			spillDir = filepath.Join(opts.DataDir, "spill")
		} else {
			d, derr := os.MkdirTemp("", "lmerge-spill-")
			if derr != nil {
				ln.Close()
				return nil, fmt.Errorf("mem-budget run dir: %w", derr)
			}
			spillDir = d
			s.spillTmp = d
		}
		s.spillTel = &obs.Spill{}
		parts := opts.Partitions
		if parts < 1 {
			parts = 1
		}
		per := opts.MemBudget / parts
		if per < 1 {
			per = 1
		}
		mkWrap = func(part int, m core.Merger) core.Merger {
			sp, err := spill.Wrap(m, spill.Config{
				Budget: per,
				Dir:    filepath.Join(spillDir, fmt.Sprintf("part%d", part)),
				Tel:    s.spillTel,
			})
			if err != nil {
				if wrapErr == nil {
					wrapErr = err
				}
				return m
			}
			s.spillers = append(s.spillers, sp)
			return sp
		}
	}
	if opts.Partitions > 1 {
		shOpts := []partition.ShardedOption{
			partition.ShardObserve(s.reg, "merge"),
		}
		if fb != nil {
			shOpts = append(shOpts, partition.ShardFeedback(fb, lag))
		}
		if opts.Rebalance != nil {
			shOpts = append(shOpts, partition.ShardRebalance(*opts.Rebalance))
		}
		if mkWrap != nil {
			shOpts = append(shOpts, partition.ShardWrap(mkWrap))
		}
		s.be = partition.NewSharded(opts.Partitions, func(emit core.Emit) core.Merger {
			return core.New(opts.Case, emit)
		}, s.broadcast, shOpts...)
	} else {
		s.be = newSingleBackend(opts.Case, s.broadcast, fb, lag, s.tel, mkWrap)
	}
	if wrapErr != nil {
		ln.Close()
		s.be.Close()
		s.closeSpill()
		return nil, fmt.Errorf("mem-budget: %w", wrapErr)
	}
	if opts.DataDir != "" {
		// Recovery runs here, before the listener accepts: single-threaded,
		// no publishers or subscribers attached yet.
		if err := s.initDurability(); err != nil {
			ln.Close()
			s.be.Close()
			s.closeSpill()
			return nil, err
		}
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if s.opts.StragglerLag > 0 {
		s.wg.Add(1)
		go s.supervise()
	}
	return s, nil
}

// signalFastForward runs inside the backend's merge path (single-backend
// processing, or a partitioned worker goroutine); it takes s.mu only for the
// publisher lookup. The write is bounded by ctrlWriteTimeout, so a blocked
// publisher socket cannot stall the merge.
func (s *Server) signalFastForward(f core.Feedback) {
	s.mu.Lock()
	ps, ok := s.pubs[f.Stream]
	s.mu.Unlock()
	if !ok {
		return
	}
	// Best effort; a slow or dead publisher is detached by its own handler.
	ps.sendFF(f.T)
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes subscriber queues, waits for handler
// goroutines to finish, and shuts the merge backend down.
func (s *Server) Close() error {
	err := s.ln.Close()
	first := false
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		first = true
		close(s.done)
		// Wake publisher handlers blocked in a read.
		for _, ps := range s.pubs {
			ps.conn.Close()
		}
	}
	s.mu.Unlock()
	s.outMu.Lock()
	s.subsClosed = true
	for id, q := range s.subs {
		q.close()
		delete(s.subs, id)
	}
	s.outMu.Unlock()
	// Shut the binary delivery plane down: closes every subscriber
	// connection (unblocking workers mid-write and credit readers mid-read)
	// and detaches their cursors; the workers themselves are joined by
	// wg.Wait below.
	s.fl.close()
	s.wg.Wait()
	// Handlers have flushed and detached; a final checkpoint captures the
	// settled state so a clean shutdown restarts from a checkpoint alone.
	if s.dur != nil && first {
		if cerr := s.checkpoint(); err == nil {
			err = cerr
		}
	}
	// The backend can now drain and stop; with the workers gone the spill
	// wrappers' compactors can be stopped and the run storage released (runs
	// are crash-disposable — the final checkpoint above subsumes them).
	if berr := s.be.Close(); err == nil {
		err = berr
	}
	// No emitters or cursors remain (fl.close detached every subscriber):
	// sealing the open block drains the retention window to zero.
	s.blog.Close()
	s.closeSpill()
	if s.dur != nil {
		s.dur.mu.Lock()
		if s.dur.log != nil {
			s.dur.log.Close()
			s.dur.log = nil
		}
		s.dur.mu.Unlock()
	}
	return err
}

// closeSpill stops the spill wrappers (idempotent) and removes a temporary
// run directory.
func (s *Server) closeSpill() {
	for _, sp := range s.spillers {
		sp.Close()
	}
	if s.spillTmp != "" {
		os.RemoveAll(s.spillTmp)
		s.spillTmp = ""
	}
}

// SpillStats returns the out-of-core tier's counters: runs written/merged,
// bytes spilled, unspill traffic, replay-latency quantiles, and the
// resident-bytes gauge. Zero-valued without Options.MemBudget.
func (s *Server) SpillStats() obs.SpillSnapshot { return s.spillTel.Snapshot() }

// Stats returns the merge counters.
func (s *Server) Stats() core.Stats { return s.be.Stats() }

// MaxStable returns the merged output's stable point.
func (s *Server) MaxStable() temporal.Time { return s.be.MaxStable() }

// Partitions returns the number of merge partitions (1 for the single
// backend).
func (s *Server) Partitions() int {
	if sh, ok := s.be.(*partition.Sharded); ok {
		return sh.Partitions()
	}
	return 1
}

// PartitionStats returns per-partition load gauges (queue depth, elements
// processed, stable frontier, frontier lag behind the leading partition), or
// nil when the server runs the single-merger backend.
func (s *Server) PartitionStats() []partition.PartitionStat {
	return s.be.PartitionStats()
}

// Publishers returns the number of attached publishers.
func (s *Server) Publishers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pubCount
}

// StragglersDetached returns how many publishers the supervisor has
// force-detached for lagging behind the merged stable point.
func (s *Server) StragglersDetached() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.detached
}

// Subscribers returns the number of connected subscribers (text + binary).
func (s *Server) Subscribers() int {
	s.outMu.Lock()
	n := len(s.subs)
	s.outMu.Unlock()
	return n + s.fl.subscribers()
}

// WireStats returns the binary fan-out counters: encode-once work (frames,
// blocks), write-many delivery (shared bytes/frames, per-subscriber history),
// shared text lines, and the credit-backpressure events (grants, stalls,
// deadline evictions).
func (s *Server) WireStats() obs.WireSnapshot { return s.wireTel.Snapshot() }

// Observability returns the server's telemetry registry: the "merge" node
// carries the merge counters, freshness quantiles, and input-leadership
// stats (plus "merge/partN" nodes when partitioned), and the shared trace
// records attach/detach, leadership switches, straggler detaches, and
// subscriber drops.
func (s *Server) Observability() *obs.Registry { return s.reg }

// Telemetry returns a point-in-time snapshot of every telemetry node,
// refreshing the merge node's state-size gauge first (a counter read, so
// polling it costs the merge path nothing).
func (s *Server) Telemetry() []obs.Snapshot {
	s.tel.SetStateBytes(s.be.SizeBytes())
	return s.reg.Snapshot()
}

// MetricsHandler returns an HTTP handler serving "/metrics" (JSON: service
// gauges plus one entry per telemetry node with counters, freshness
// quantiles, and leadership stats) and "/debug/trace" (the bounded event
// trace; "?format=text" for the line-oriented dump).
func (s *Server) MetricsHandler() http.Handler {
	return obs.Handler(s.reg, func() map[string]any {
		sb := s.be.SizeBytes()
		s.tel.SetStateBytes(sb)
		svc := map[string]any{
			"publishers":           s.Publishers(),
			"subscribers":          s.Subscribers(),
			"max_stable":           int64(s.be.MaxStable()),
			"stragglers_detached":  s.StragglersDetached(),
			"partitions":           s.Partitions(),
			"merge_state_bytes":    sb,
			"subscriber_backlog":   s.backlogLen(),
			"straggler_supervised": s.opts.StragglerLag > 0,
			// Binary fan-out: encode-once/write-many counters plus the
			// credit-backpressure events (DESIGN.md §14).
			"wire": s.wireTel.Snapshot(),
		}
		if ps := s.be.PartitionStats(); ps != nil {
			svc["partition_stats"] = ps
		}
		if s.dur != nil {
			// WAL/checkpoint counters and recovery-duration quantiles.
			svc["durability"] = s.dur.tel.Snapshot()
		}
		if s.spillTel != nil {
			// Out-of-core tier: runs written/merged, spilled bytes, replay
			// latency quantiles, resident gauge (see Options.MemBudget).
			svc["spill"] = s.spillTel.Snapshot()
			svc["mem_budget"] = s.opts.MemBudget
		}
		return svc
	})
}

func (s *Server) backlogLen() int {
	s.outMu.Lock()
	defer s.outMu.Unlock()
	return len(s.backlog)
}

// supervise periodically detaches stragglers: publishers whose progress
// watermark trails the merged output stable point by more than StragglerLag.
func (s *Server) supervise() {
	defer s.wg.Done()
	tick := time.NewTicker(s.opts.SuperviseEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
			s.sweepStragglers()
		}
	}
}

func (s *Server) sweepStragglers() {
	type victim struct {
		id core.StreamID
		ps *pubState
		wm temporal.Time
	}
	var victims []victim
	stable := s.be.MaxStable() // atomic: safe to read before taking s.mu
	s.mu.Lock()
	if !s.closed && s.pubCount > 1 && stable != temporal.MinTime && !stable.IsInf() {
		spare := s.pubCount - 1 // never detach the last publisher
		for id, ps := range s.pubs {
			if len(victims) >= spare {
				break
			}
			if time.Since(ps.attachedAt) < s.opts.StragglerGrace {
				continue
			}
			if lagsBehind(ps.watermark, stable, s.opts.StragglerLag) {
				victims = append(victims, victim{id: id, ps: ps, wm: ps.watermark})
			}
		}
		s.detached += int64(len(victims))
	}
	s.mu.Unlock()
	for _, v := range victims {
		// Notify, then close: the handler's read fails and its cleanup path
		// performs the actual Detach.
		s.reg.Trace().Record(obs.Event{
			Kind: obs.EventStraggler, Node: "server", Stream: v.id,
			T: v.wm, Aux: int64(stable),
		})
		v.ps.sendDetach("straggler")
		v.ps.conn.Close()
	}
}

// lagsBehind reports whether watermark wm trails stable by more than lag,
// using unsigned subtraction so wm = MinTime cannot overflow.
func lagsBehind(wm, stable, lag temporal.Time) bool {
	if wm >= stable {
		return false
	}
	return uint64(int64(stable))-uint64(int64(wm)) > uint64(int64(lag))
}

// broadcast is the backend's emit callback. It runs inside the backend's own
// emission serialisation (the single backend's lock, or the sharded pool's
// emit mutex) and takes outMu for the subscriber state. Delivery is
// encode-once, write-many in both protocols: the element is marshalled at
// most once as a text line pushed to every text subscriber queue, and framed
// at most once into the shared broadcast log, which every binary subscriber
// reads through its own cursor — per-subscriber cost is a queue entry (text)
// or nothing at all (binary), never an encode. One slow or blocked consumer
// can neither stall the merge nor delay delivery to the others; a text
// subscriber is dropped on queue overflow (it may resume positionally with
// FROM), a binary one pauses on credit and is evicted only by the deadline
// backstop.
func (s *Server) broadcast(e temporal.Element) {
	// Recovery seeding re-merges what the restored backlog already holds;
	// those re-emissions are silenced wholesale (durability.go).
	if s.dur.suppressed() {
		return
	}
	var dropped []int
	s.outMu.Lock()
	// Write-ahead of delivery: the emission is WAL-logged before any
	// subscriber queue sees it, so a restart's restored backlog is always a
	// superset of what was delivered and positional FROM resume stays exact.
	// An emission the WAL did not take is not delivered (nor, the failure
	// being sticky, is any later one).
	if err := s.dur.appendEmit(len(s.backlog), e); err != nil {
		s.outMu.Unlock()
		return
	}
	s.backlog = append(s.backlog, e)
	if len(s.subs) > 0 {
		if line, err := temporal.MarshalElement(e); err == nil {
			s.wireTel.LineEncoded(len(line))
			for id, q := range s.subs {
				if !q.push(line) {
					delete(s.subs, id)
					dropped = append(dropped, id)
				}
			}
		}
	}
	// Binary fan-out is O(1) in subscriber count: encode once into the
	// shared log, then one wake splices every parked cursor into the worker
	// pool's ready list. (hasSubs is serialised with registration by outMu.)
	wakeBin := s.fl.hasSubs()
	if wakeBin {
		s.blog.Append(e)
	}
	s.outMu.Unlock()
	if wakeBin {
		s.fl.wake()
	}
	for _, id := range dropped {
		s.reg.Trace().Record(obs.Event{Kind: obs.EventSubscriberDrop, Node: "server", Stream: id})
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// ServeConn runs the server's connection handler on an already-established
// connection (either protocol), exactly as if it had arrived through the
// listener. In-process harnesses use it to drive subscriber counts past the
// OS file-descriptor ceiling (TestFanLoopIdleResidentPerSubscriber wires a
// thousand net.Pipe connections straight in).
func (s *Server) ServeConn(conn net.Conn) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return errServerClosed
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.handle(conn)
	}()
	return nil
}

func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64*1024)
	if d := s.opts.ReadTimeout; d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	}
	// Protocol sniff: a v2 connection opens with the 'L' 'M' magic, which can
	// never begin a v1 handshake ("HELLO ..."). One listener, two protocols.
	// The binary path owns the connection from here (a v2 subscriber's
	// connection outlives this handler — the fan-out loop closes it).
	if b, perr := r.Peek(1); perr == nil && b[0] == wire.Magic0 {
		s.serveBinary(conn, r)
		return
	}
	defer conn.Close()
	line, err := readLine(r)
	if err != nil && len(line) == 0 {
		return
	}
	h, perr := parseHello(string(line))
	if perr != nil {
		fmt.Fprintf(conn, "ERR %v\n", perr)
		return
	}
	switch h.role {
	case "PUB":
		s.servePublisher(conn, r, h.joinTime)
	case "SUB":
		conn.SetReadDeadline(time.Time{}) // subscribers are write-driven
		s.serveSubscriber(conn, h.resumeFrom)
	}
}

// readLine reads one newline-terminated line, tolerating lines longer than
// the reader's buffer. The returned slice is valid only until the next read.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	return bytes.TrimRight(line, "\r\n"), err
}

// hello is a parsed handshake line.
type hello struct {
	role       string
	joinTime   temporal.Time // PUB: the stream's join guarantee
	resumeFrom int           // SUB: replay the merged history after this many elements
}

func parseHello(line string) (hello, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "HELLO" {
		return hello{}, errors.New("expected HELLO PUB <joinTime> or HELLO SUB [FROM <n>]")
	}
	switch fields[1] {
	case "SUB":
		h := hello{role: "SUB"}
		if len(fields) == 2 {
			return h, nil
		}
		if len(fields) != 4 || fields[2] != "FROM" {
			return hello{}, errors.New("expected HELLO SUB [FROM <n>]")
		}
		n, err := strconv.Atoi(fields[3])
		if err != nil || n < 0 {
			return hello{}, fmt.Errorf("bad resume position %q", fields[3])
		}
		h.resumeFrom = n
		return h, nil
	case "PUB":
		jt := temporal.MinTime
		if len(fields) >= 3 {
			v, perr := strconv.ParseInt(fields[2], 10, 64)
			if perr != nil {
				return hello{}, fmt.Errorf("bad join time %q", fields[2])
			}
			jt = temporal.Time(v)
		}
		return hello{role: "PUB", joinTime: jt}, nil
	}
	return hello{}, fmt.Errorf("unknown role %q", fields[1])
}

// pubBatchSize is how many parsed elements a publisher handler accumulates
// before pushing them through the merge under one lock acquisition. The
// batch is also flushed at stable elements (punctuation must propagate — it
// drives subscriber progress and feedback) and whenever the connection has
// no more buffered input, so a trickling publisher sees per-element latency.
const pubBatchSize = 64

// pubHandler is the protocol-independent core of a publisher connection:
// the attach/merge/detach sequence shared by the v1 text loop and the v2
// frame loop, which differ only in how they read elements off the wire.
type pubHandler struct {
	s       *Server
	ps      *pubState
	id      core.StreamID
	pending temporal.Stream
}

// errServerClosed refuses a publisher that arrives while the server shuts
// down.
var errServerClosed = errors.New("server closed")

// attachPublisher runs the shared attach sequence: backend attach, WAL
// record, and registration. Attach runs outside s.mu — the backend
// serialises internally and (sharded) may block on worker queues. The
// checkpoint barrier's read side spans attach + WAL record + registration,
// so a checkpoint cut sees either all of them or none. It fails when the
// server is closed or the WAL has stopped taking records.
func (s *Server) attachPublisher(conn net.Conn, joinTime temporal.Time, bin bool) (*pubHandler, temporal.Time, error) {
	ps := &pubState{conn: conn, bin: bin, watermark: temporal.MinTime, attachedAt: time.Now(), joinTime: joinTime}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, errServerClosed
	}
	s.mu.Unlock()
	unlock := s.dur.shared()
	id := s.be.Attach(joinTime)
	if err := s.dur.append(durable.Record{Kind: durable.RecAttach, ID: int64(id), JoinTime: joinTime}); err != nil {
		s.be.Detach(id)
		unlock()
		return nil, 0, err
	}
	stable := s.be.MaxStable()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.dur.append(durable.Record{Kind: durable.RecDetach, ID: int64(id)})
		s.be.Detach(id)
		unlock()
		return nil, 0, errServerClosed
	}
	s.pubs[id] = ps
	s.pubCount++
	// A fresh attach is, by definition, caught up with everything the output
	// already covers (it will fast-forward past it); its progress watermark
	// starts at the current stable point so the supervisor only measures lag
	// the publisher actually accrues from here on.
	ps.watermark = stable
	s.mu.Unlock()
	unlock()
	return &pubHandler{s: s, ps: ps, id: id, pending: make(temporal.Stream, 0, pubBatchSize)}, stable, nil
}

// flush pushes the pending batch through the merge. Log before merge, merge
// before ack: once the publisher hears ACK, the batch survives a crash, and a
// batch the WAL did not take is not merged at all. The barrier's read side
// keeps the couple atomic against a checkpoint cut.
func (h *pubHandler) flush() error {
	if len(h.pending) == 0 {
		return nil
	}
	wm := temporal.MinTime
	for _, e := range h.pending {
		if e.Kind == temporal.KindStable {
			wm = temporal.MaxT(wm, e.T())
		}
	}
	unlock := h.s.dur.shared()
	err := h.s.dur.append(durable.Record{Kind: durable.RecBatch, ID: int64(h.id), Els: h.pending})
	if err == nil {
		err = h.s.be.ProcessBatch(h.id, h.pending)
	}
	unlock()
	h.s.mu.Lock()
	h.ps.watermark = temporal.MaxT(h.ps.watermark, wm)
	h.s.mu.Unlock()
	h.pending = h.pending[:0]
	if err == nil && wm == temporal.Infinity {
		// The stream's own stable(∞) is merged: acknowledge end-of-stream
		// so the publisher can distinguish a completed delivery from one
		// whose tail was silently lost in transit.
		h.ps.sendAck()
	}
	return err
}

// add appends one parsed element, flushing at the batching boundaries: batch
// size, stable punctuation (it drives subscriber progress and feedback), or
// a drained connection (more == false), so a trickling publisher sees
// per-element latency.
func (h *pubHandler) add(e temporal.Element, more bool) error {
	h.pending = append(h.pending, e)
	if len(h.pending) >= pubBatchSize || e.Kind == temporal.KindStable || !more {
		return h.flush()
	}
	return nil
}

// finish merges anything parsed before the disconnect (it is part of the
// stream) and detaches the publisher's state. A failed detach record leaves
// the error latched; the backend releases the stream either way.
func (h *pubHandler) finish() {
	h.flush()
	unlock := h.s.dur.shared()
	h.s.dur.append(durable.Record{Kind: durable.RecDetach, ID: int64(h.id)})
	h.s.be.Detach(h.id)
	unlock()
	h.s.mu.Lock()
	delete(h.s.pubs, h.id)
	h.s.pubCount--
	h.s.mu.Unlock()
}

func (s *Server) servePublisher(conn net.Conn, r *bufio.Reader, joinTime temporal.Time) {
	h, stable, err := s.attachPublisher(conn, joinTime, false)
	if err != nil {
		fmt.Fprintf(conn, "ERR %v\n", err)
		return
	}
	defer h.finish()
	// The handshake reply carries the merged stable point: a reconnecting
	// replica seeds its fast-forward watermark from it and skips everything
	// the output no longer needs (cheap catch-up, Sec. V-D).
	h.ps.sendOK(int64(h.id), stable)
	for {
		if d := s.opts.ReadTimeout; d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		}
		line, rerr := readLine(r)
		if len(line) > 0 {
			e, err := temporal.UnmarshalElement(line)
			if err != nil {
				h.flush()
				h.ps.sendErr(err)
				return
			}
			if perr := h.add(e, r.Buffered() > 0); perr != nil {
				h.ps.sendErr(perr)
				return
			}
		}
		if rerr != nil {
			return
		}
	}
}

func (s *Server) serveSubscriber(conn net.Conn, resumeFrom int) {
	// Register and replay the merged history (past the resume position, for
	// a reconnecting subscriber that already holds a prefix).
	q := newSubQueue(s.opts.SubscriberBuffer)
	s.outMu.Lock()
	if s.subsClosed {
		s.outMu.Unlock()
		return
	}
	id := s.nextSub
	s.nextSub++
	if resumeFrom > len(s.backlog) {
		resumeFrom = len(s.backlog)
	}
	history := append(temporal.Stream(nil), s.backlog[resumeFrom:]...)
	s.subs[id] = q
	s.outMu.Unlock()

	defer func() {
		s.outMu.Lock()
		if qq, ok := s.subs[id]; ok {
			qq.close()
			delete(s.subs, id)
		}
		s.outMu.Unlock()
	}()

	w := bufio.NewWriter(conn)
	fmt.Fprintf(w, "OK SUB\n")
	writeLine := func(line []byte) bool {
		if _, err := w.Write(line); err != nil {
			return false
		}
		return w.WriteByte('\n') == nil
	}
	// History catch-up is per-subscriber (cold path): marshal the snapshot
	// here. Live lines arrive pre-marshalled, encoded once in broadcast and
	// shared read-only across every text subscriber queue.
	for _, e := range history {
		line, err := temporal.MarshalElement(e)
		if err != nil || !writeLine(line) {
			return
		}
	}
	if err := w.Flush(); err != nil {
		return
	}
	var scratch [][]byte
	for {
		batch, ok := q.pop(scratch)
		if !ok {
			break
		}
		for _, line := range batch {
			if !writeLine(line) {
				return
			}
		}
		if err := w.Flush(); err != nil {
			return
		}
		scratch = batch[:0]
	}
	w.Flush()
}
