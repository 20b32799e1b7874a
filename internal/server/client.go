package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lmerge/internal/temporal"
	"lmerge/internal/wire"
)

// DialFunc opens a transport connection to the server. Tests and the chaos
// harness substitute fault-injecting dialers.
type DialFunc func(addr string) (net.Conn, error)

func defaultDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// Publisher is a client-side publisher connection. It listens for the
// server's fast-forward signals ("FF <t>" lines, Sec. V-D over the wire) in
// the background; FastForward and ShouldSkip let the replica avoid producing
// elements the merge no longer needs. The fast-forward watermark is seeded
// from the handshake's stable point, so a reconnecting replica immediately
// skips everything the merged output already covers.
type Publisher struct {
	conn         net.Conn
	w            *bufio.Writer
	bin          bool
	scratch      []byte // frame build buffer (binary Send)
	id           int
	joinStable   temporal.Time
	writeTimeout time.Duration
	ff           atomic.Int64
	detached     atomic.Bool
	acked        chan struct{}
	ackOnce      sync.Once
	sigDone      chan struct{} // closed when the signal reader exits (conn ended)
}

// Connect dials the server as a publisher with the given join guarantee
// (use temporal.MinTime for a from-the-start replica).
func Connect(addr string, joinTime temporal.Time) (*Publisher, error) {
	return connectVia(defaultDial, addr, joinTime, 0, false)
}

// ConnectBinary dials the server as a publisher speaking the v2 binary wire
// protocol (internal/wire): framed CRC-checked elements instead of JSON
// lines, control signals as frames.
func ConnectBinary(addr string, joinTime temporal.Time) (*Publisher, error) {
	return connectVia(defaultDial, addr, joinTime, 0, true)
}

func connectVia(dial DialFunc, addr string, joinTime temporal.Time, writeTimeout time.Duration, bin bool) (*Publisher, error) {
	if dial == nil {
		dial = defaultDial
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	p := &Publisher{
		conn: conn, w: bufio.NewWriter(conn), bin: bin,
		joinStable: temporal.MinTime, writeTimeout: writeTimeout,
		acked: make(chan struct{}), sigDone: make(chan struct{}),
	}
	p.ff.Store(int64(temporal.MinTime))
	p.armWriteDeadline()
	if bin {
		return p.handshakeBinary(joinTime)
	}
	fmt.Fprintf(p.w, "HELLO PUB %d\n", int64(joinTime))
	if err := p.w.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	r := bufio.NewReader(conn)
	if d := writeTimeout; d > 0 {
		conn.SetReadDeadline(time.Now().Add(10 * d))
	}
	line, err := r.ReadString('\n')
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, err
	}
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "OK" {
		conn.Close()
		return nil, fmt.Errorf("server refused publisher: %s", strings.TrimSpace(line))
	}
	if p.id, err = strconv.Atoi(fields[1]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("server refused publisher: %s", strings.TrimSpace(line))
	}
	if len(fields) >= 3 {
		if st, err := strconv.ParseInt(fields[2], 10, 64); err == nil {
			p.joinStable = temporal.Time(st)
			p.ff.Store(st)
		}
	}
	go p.readSignals(r)
	return p, nil
}

// handshakeBinary sends the v2 preamble and HELLO_PUB frame, and parses the
// OK reply (assigned stream id + the merged stable point that seeds the
// fast-forward watermark).
func (p *Publisher) handshakeBinary(joinTime temporal.Time) (*Publisher, error) {
	buf := wire.AppendPreamble(nil)
	buf = wire.AppendHelloPub(buf, joinTime)
	p.w.Write(buf)
	if err := p.w.Flush(); err != nil {
		p.conn.Close()
		return nil, err
	}
	fr := wire.NewReader(bufio.NewReader(p.conn))
	if d := p.writeTimeout; d > 0 {
		p.conn.SetReadDeadline(time.Now().Add(10 * d))
	}
	typ, body, err := fr.Next()
	p.conn.SetReadDeadline(time.Time{})
	if err != nil {
		p.conn.Close()
		return nil, err
	}
	if typ != wire.FrOK {
		p.conn.Close()
		if typ == wire.FrErr {
			return nil, fmt.Errorf("server refused publisher: %s", body)
		}
		return nil, fmt.Errorf("server refused publisher: frame 0x%02x", typ)
	}
	id, stable, perr := wire.ParseOK(body)
	if perr != nil {
		p.conn.Close()
		return nil, perr
	}
	p.id = int(id)
	p.joinStable = stable
	p.ff.Store(int64(stable))
	go p.readSignalsBinary(fr)
	return p, nil
}

// readSignals consumes server lines after the handshake: fast-forward
// watermarks (monotonically coalesced), DETACH notices (the supervisor's
// straggler policy), and errors (which end the stream).
func (p *Publisher) readSignals(r *bufio.Reader) {
	defer close(p.sigDone)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		if strings.HasPrefix(line, "DETACH") {
			p.detached.Store(true)
			continue
		}
		if strings.HasPrefix(line, "ACK") {
			p.ackOnce.Do(func() { close(p.acked) })
			continue
		}
		var t int64
		if _, err := fmt.Sscanf(line, "FF %d", &t); err == nil {
			p.coalesceFF(t)
		}
	}
}

// readSignalsBinary is the frame counterpart of readSignals.
func (p *Publisher) readSignalsBinary(fr *wire.Reader) {
	defer close(p.sigDone)
	for {
		typ, body, err := fr.Next()
		if err != nil {
			return
		}
		switch typ {
		case wire.FrDetach:
			p.detached.Store(true)
		case wire.FrAck:
			p.ackOnce.Do(func() { close(p.acked) })
		case wire.FrFF:
			if t, perr := wire.ParseFF(body); perr == nil {
				p.coalesceFF(int64(t))
			}
		}
	}
}

// coalesceFF advances the fast-forward watermark monotonically.
func (p *Publisher) coalesceFF(t int64) {
	for {
		cur := p.ff.Load()
		if t <= cur || p.ff.CompareAndSwap(cur, t) {
			return
		}
	}
}

// FastForward returns the latest fast-forward point the server signalled
// (temporal.MinTime if none), never earlier than the handshake stable point.
func (p *Publisher) FastForward() temporal.Time { return temporal.Time(p.ff.Load()) }

// JoinStable returns the merged output's stable point at the moment this
// publisher attached (temporal.MinTime against pre-watermark servers).
func (p *Publisher) JoinStable() temporal.Time { return p.joinStable }

// Detached reports whether the server force-detached this publisher (e.g.
// the straggler policy).
func (p *Publisher) Detached() bool { return p.detached.Load() }

// Acked returns a channel closed once the server acknowledges that this
// stream's stable(∞) has been merged (end-of-stream confirmation).
func (p *Publisher) Acked() <-chan struct{} { return p.acked }

// ShouldSkip reports whether e is entirely before the fast-forward point —
// the merged output no longer needs it, so the replica can drop the element
// (and the work of producing it) outright.
func (p *Publisher) ShouldSkip(e temporal.Element) bool {
	ff := p.FastForward()
	if ff == temporal.MinTime {
		return false
	}
	switch e.Kind {
	case temporal.KindInsert:
		return e.Ve <= ff
	case temporal.KindAdjust:
		return temporal.MaxT(e.Ve, e.VOld) <= ff
	}
	return false
}

// ID returns the stream id the server assigned.
func (p *Publisher) ID() int { return p.id }

func (p *Publisher) armWriteDeadline() {
	if p.writeTimeout > 0 {
		p.conn.SetWriteDeadline(time.Now().Add(p.writeTimeout))
	}
}

// Send publishes one element.
func (p *Publisher) Send(e temporal.Element) error {
	p.armWriteDeadline()
	if p.bin {
		p.scratch = wire.AppendData(p.scratch[:0], e)
		_, err := p.w.Write(p.scratch)
		return err
	}
	line, err := temporal.MarshalElement(e)
	if err != nil {
		return err
	}
	if _, err := p.w.Write(line); err != nil {
		return err
	}
	return p.w.WriteByte('\n')
}

// SendStream publishes a whole prefix and flushes.
func (p *Publisher) SendStream(s temporal.Stream) error {
	for _, e := range s {
		if err := p.Send(e); err != nil {
			return err
		}
	}
	return p.Flush()
}

// Flush pushes buffered elements to the wire.
func (p *Publisher) Flush() error {
	p.armWriteDeadline()
	return p.w.Flush()
}

// Close flushes and disconnects (the server detaches the stream).
func (p *Publisher) Close() error {
	p.w.Flush()
	return p.conn.Close()
}

// Backoff shapes the reconnect schedule of the resilient clients:
// exponential growth from Initial by Multiplier up to Max, with ±Jitter
// fraction of randomisation so a fleet of replicas does not reconnect in
// lockstep after a shared outage.
type Backoff struct {
	Initial    time.Duration
	Max        time.Duration
	Multiplier float64
	Jitter     float64
}

func (b Backoff) withDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = 5 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = time.Second
	}
	if b.Multiplier < 1 {
		b.Multiplier = 2
	}
	if b.Jitter <= 0 {
		b.Jitter = 0.2
	}
	return b
}

// delay returns the wait before attempt n (n >= 1).
func (b Backoff) delay(n int, rng *rand.Rand) time.Duration {
	d := float64(b.Initial)
	for i := 1; i < n && d < float64(b.Max); i++ {
		d *= b.Multiplier
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	d *= 1 + b.Jitter*(2*rng.Float64()-1)
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// ResilientOptions configures the reconnecting clients.
type ResilientOptions struct {
	// Backoff is the reconnect schedule (zero value → defaults).
	Backoff Backoff
	// MaxAttempts bounds consecutive failed connection attempts before the
	// client gives up (default 10).
	MaxAttempts int
	// WriteTimeout bounds each flush to the server (default 5s); a wedged
	// connection surfaces as an error and triggers a reconnect instead of
	// blocking the replica forever.
	WriteTimeout time.Duration
	// FlushEvery is how many sent elements may buffer between flushes
	// (default 64); stables always flush.
	FlushEvery int
	// Dial substitutes the transport (fault injection, tests). Nil → TCP.
	Dial DialFunc
	// Seed drives the backoff jitter; fixed seeds make schedules
	// reproducible.
	Seed int64
	// Throttle, when non-nil, runs before each element actually sent —
	// tests use it to model slow replicas (stragglers).
	Throttle func(e temporal.Element)
	// Binary selects the v2 binary wire protocol (internal/wire) instead of
	// the v1 text protocol for this client.
	Binary bool
	// CreditWindow is a binary subscriber's flow-control window in bytes
	// (default DefaultCreditWindow). Ignored by publishers and text clients.
	CreditWindow int64
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	o.Backoff = o.Backoff.withDefaults()
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 10
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 64
	}
	if o.Dial == nil {
		o.Dial = defaultDial
	}
	if o.CreditWindow <= 0 {
		o.CreditWindow = DefaultCreditWindow
	}
	return o
}

// DeliveryReport summarises one resilient delivery.
type DeliveryReport struct {
	// Connects counts successful attachments (reconnects = Connects - 1).
	Connects int
	// FailedDials counts connection attempts that never reached a handshake.
	FailedDials int
	// Detaches counts times the server force-detached us mid-delivery.
	Detaches int
	// Sent and Skipped count elements written versus pruned by the
	// fast-forward watermark during catch-up.
	Sent, Skipped int64
}

// ResilientPublisher delivers a replica's whole physical stream to the
// server, surviving connection faults: on any transport error it reconnects
// with exponential backoff plus jitter and replays the stream from the
// start, but skips — client-side, via the handshake stable point and
// fast-forward signals — every element the merged output no longer needs.
// Re-delivered elements the output does still track are absorbed by the
// merge as duplicates (the paper's re-attach semantics, Sec. V-B), so the
// merged TDB is unaffected by arbitrary crash/retry interleavings.
type ResilientPublisher struct {
	addr string
	opts ResilientOptions
	rng  *rand.Rand

	mu     sync.Mutex
	report DeliveryReport
}

// NewResilientPublisher prepares a resilient publisher for addr.
func NewResilientPublisher(addr string, opts ResilientOptions) *ResilientPublisher {
	return &ResilientPublisher{
		addr: addr,
		opts: opts.withDefaults(),
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
}

// Report returns a snapshot of the delivery counters (safe mid-Deliver).
func (rp *ResilientPublisher) Report() DeliveryReport {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.report
}

func (rp *ResilientPublisher) count(f func(*DeliveryReport)) {
	rp.mu.Lock()
	f(&rp.report)
	rp.mu.Unlock()
}

// Deliver publishes stream to completion, reconnecting across faults. When
// the stream ends with stable(∞), success additionally requires the server's
// end-of-stream ACK: a tail lost in transit (a fault that garbles or drops
// the final frames without a transport error at the sender) is detected by
// the missing acknowledgment and repaired by another catch-up pass. It
// returns the final report and the terminal error, if the server stayed
// unreachable — or the delivery unacknowledged — past MaxAttempts
// consecutive attempts.
func (rp *ResilientPublisher) Deliver(stream temporal.Stream) (DeliveryReport, error) {
	wantAck := len(stream) > 0 &&
		stream[len(stream)-1].Kind == temporal.KindStable &&
		stream[len(stream)-1].T() == temporal.Infinity
	failed := 0
	var lastErr error
	for {
		p, err := connectVia(rp.opts.Dial, rp.addr, temporal.MinTime, rp.opts.WriteTimeout, rp.opts.Binary)
		if err != nil {
			failed++
			lastErr = err
			rp.count(func(r *DeliveryReport) { r.FailedDials++ })
			if failed >= rp.opts.MaxAttempts {
				return rp.Report(), fmt.Errorf("server: giving up after %d attempts: %w", failed, lastErr)
			}
			time.Sleep(rp.opts.Backoff.delay(failed, rp.rng))
			continue
		}
		rp.count(func(r *DeliveryReport) { r.Connects++ })
		sentBefore := rp.Report().Sent
		err = rp.sendAll(p, stream)
		if rp.Report().Sent > sentBefore {
			// The attempt moved the stream forward; only consecutive
			// zero-progress attempts count against MaxAttempts.
			failed = 0
		}
		if err == nil && wantAck {
			select {
			case <-p.Acked():
			case <-p.sigDone:
				// Connection ended; the ACK may still have raced in just
				// before EOF.
				select {
				case <-p.Acked():
				default:
					err = fmt.Errorf("server: connection ended before delivery was acknowledged")
				}
			case <-time.After(rp.opts.WriteTimeout):
				err = fmt.Errorf("server: delivery unacknowledged after %v", rp.opts.WriteTimeout)
			}
		}
		if p.Detached() {
			rp.count(func(r *DeliveryReport) { r.Detaches++ })
		}
		p.Close()
		if err == nil {
			return rp.Report(), nil
		}
		failed++
		lastErr = err
		if failed >= rp.opts.MaxAttempts {
			return rp.Report(), fmt.Errorf("server: giving up after %d attempts: %w", failed, lastErr)
		}
		// Mid-stream failure: back off briefly, then re-attach and catch up.
		time.Sleep(rp.opts.Backoff.delay(failed, rp.rng))
	}
}

func (rp *ResilientPublisher) sendAll(p *Publisher, stream temporal.Stream) error {
	unflushed := 0
	for _, e := range stream {
		if rp.skippable(p, e) {
			rp.count(func(r *DeliveryReport) { r.Skipped++ })
			continue
		}
		if rp.opts.Throttle != nil {
			rp.opts.Throttle(e)
		}
		if err := p.Send(e); err != nil {
			return err
		}
		rp.count(func(r *DeliveryReport) { r.Sent++ })
		unflushed++
		if e.Kind == temporal.KindStable || unflushed >= rp.opts.FlushEvery {
			if err := p.Flush(); err != nil {
				return err
			}
			unflushed = 0
		}
	}
	return p.Flush()
}

// skippable applies the fast-forward rule during catch-up: inserts and
// adjusts wholly before the watermark are dead work; stables at or below it
// are redundant (the final stable(∞) is always delivered).
func (rp *ResilientPublisher) skippable(p *Publisher, e temporal.Element) bool {
	if e.Kind == temporal.KindStable {
		t := e.T()
		return !t.IsInf() && t <= p.FastForward()
	}
	return p.ShouldSkip(e)
}

// DefaultCreditWindow is the binary subscriber's default flow-control window:
// the byte credit granted to the server at the handshake and replenished as
// frames are consumed.
const DefaultCreditWindow = 256 * 1024

// handshakeTimeout bounds a subscriber's wait for the server's handshake
// reply. The subscription never legitimately idles there — the reply is
// written immediately on registration — so a longer silence means the
// connection (or its handshake bytes) died in flight.
const handshakeTimeout = 10 * time.Second

// Subscriber is a client-side subscription to the merged stream, over either
// protocol: sc is the v1 line scanner, fr the v2 frame reader.
type Subscriber struct {
	conn net.Conn
	sc   *bufio.Scanner
	fr   *wire.Reader
	// Credit accounting (binary): sinceGrant counts consumed frame bytes; at
	// a quarter of the window a CREDIT frame replenishes the server, so the
	// server always holds at least three quarters of it. Granting later lets
	// a server that produces faster than one grant round trip run dry on
	// every grant, and what it cannot send queues in its broadcast log.
	window     int64
	sinceGrant int64
	gbuf       []byte
}

// Subscribe dials the server as a consumer of the merged stream.
func Subscribe(addr string) (*Subscriber, error) {
	return subscribeVia(defaultDial, addr, 0, false, 0)
}

// SubscribeBinary dials the server as a consumer speaking the v2 binary wire
// protocol, with the default credit window.
func SubscribeBinary(addr string) (*Subscriber, error) {
	return subscribeVia(defaultDial, addr, 0, true, DefaultCreditWindow)
}

// subscribeVia subscribes, resuming after the first `from` elements of the
// merged history. Binary subscriptions pipeline position and the initial
// credit grant into the single HELLO_SUB frame (one round trip).
func subscribeVia(dial DialFunc, addr string, from int, bin bool, window int64) (*Subscriber, error) {
	if dial == nil {
		dial = defaultDial
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	if bin {
		if window <= 0 {
			window = DefaultCreditWindow
		}
		buf := wire.AppendPreamble(nil)
		buf = wire.AppendHelloSub(buf, from, window)
		if _, err := conn.Write(buf); err != nil {
			conn.Close()
			return nil, err
		}
		fr := wire.NewReader(bufio.NewReaderSize(conn, 64*1024))
		// Bound the wait for the OK reply: a handshake mauled in flight (the
		// chaos injector garbles the preamble, misrouting the connection) can
		// leave a server without ReadTimeout holding the socket open forever;
		// the deadline turns that into a reconnect instead of a hang.
		conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
		typ, body, err := fr.Next()
		conn.SetReadDeadline(time.Time{})
		if err != nil {
			conn.Close()
			return nil, err
		}
		if typ != wire.FrOK {
			conn.Close()
			if typ == wire.FrErr {
				return nil, fmt.Errorf("server refused subscription: %s", body)
			}
			return nil, fmt.Errorf("server refused subscription")
		}
		return &Subscriber{conn: conn, fr: fr, window: window}, nil
	}
	if from > 0 {
		_, err = fmt.Fprintf(conn, "HELLO SUB FROM %d\n", from)
	} else {
		_, err = fmt.Fprintf(conn, "HELLO SUB\n")
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "OK") {
		conn.Close()
		return nil, fmt.Errorf("server refused subscription")
	}
	return &Subscriber{conn: conn, sc: sc}, nil
}

// Next returns the next merged element; ok is false when the connection
// ends.
func (s *Subscriber) Next() (temporal.Element, bool) {
	if s.fr != nil {
		return s.nextBinary()
	}
	for s.sc.Scan() {
		line := s.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e, err := temporal.UnmarshalElement(line)
		if err != nil {
			return temporal.Element{}, false
		}
		return e, true
	}
	return temporal.Element{}, false
}

func (s *Subscriber) nextBinary() (temporal.Element, bool) {
	for {
		typ, body, err := s.fr.Next()
		if err != nil {
			return temporal.Element{}, false
		}
		s.sinceGrant += wire.FrameHeader + 1 + int64(len(body))
		if s.sinceGrant >= s.window/4 {
			// Replenish before delivering: the grant rides ahead of however
			// long the caller sits on this element.
			s.gbuf = wire.AppendCredit(s.gbuf[:0], s.sinceGrant)
			s.conn.Write(s.gbuf) // a dead conn surfaces on the next read
			s.sinceGrant = 0
		}
		switch typ {
		case wire.FrData:
			e, derr := wire.DecodeData(body)
			if derr != nil {
				return temporal.Element{}, false
			}
			return e, true
		case wire.FrErr:
			return temporal.Element{}, false
		}
	}
}

// Close disconnects.
func (s *Subscriber) Close() error { return s.conn.Close() }

// ResilientSubscriber consumes the merged stream across reconnects: when the
// connection drops (server restart, overflow disconnect, transport fault) it
// redials with backoff and resumes positionally — HELLO SUB FROM <n> — after
// the n elements it has already delivered, so the caller sees each merged
// element exactly once, in order.
type ResilientSubscriber struct {
	addr string
	opts ResilientOptions
	rng  *rand.Rand

	sub        *Subscriber
	received   int
	reconnects int
}

// NewResilientSubscriber prepares a resilient subscriber for addr. The first
// Next call connects.
func NewResilientSubscriber(addr string, opts ResilientOptions) *ResilientSubscriber {
	return &ResilientSubscriber{
		addr: addr,
		opts: opts.withDefaults(),
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
}

// Received returns how many merged elements have been delivered so far.
func (rs *ResilientSubscriber) Received() int { return rs.received }

// Reconnects returns how many times the subscription re-established itself.
func (rs *ResilientSubscriber) Reconnects() int { return rs.reconnects }

// Next returns the next merged element; ok is false only once the server has
// stayed unreachable past MaxAttempts consecutive attempts.
func (rs *ResilientSubscriber) Next() (temporal.Element, bool) {
	failed := 0
	for {
		if rs.sub == nil {
			sub, err := subscribeVia(rs.opts.Dial, rs.addr, rs.received, rs.opts.Binary, rs.opts.CreditWindow)
			if err != nil {
				failed++
				if failed >= rs.opts.MaxAttempts {
					return temporal.Element{}, false
				}
				time.Sleep(rs.opts.Backoff.delay(failed, rs.rng))
				continue
			}
			if rs.received > 0 || rs.reconnects > 0 {
				rs.reconnects++
			}
			rs.sub = sub
		}
		if e, ok := rs.sub.Next(); ok {
			failed = 0
			rs.received++
			return e, true
		}
		rs.sub.Close()
		rs.sub = nil
		failed++
		if failed >= rs.opts.MaxAttempts {
			return temporal.Element{}, false
		}
		time.Sleep(rs.opts.Backoff.delay(failed, rs.rng))
	}
}

// Close disconnects; Next may be called again and will reconnect.
func (rs *ResilientSubscriber) Close() error {
	if rs.sub != nil {
		err := rs.sub.Close()
		rs.sub = nil
		return err
	}
	return nil
}
