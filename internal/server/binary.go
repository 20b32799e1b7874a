package server

import (
	"bufio"
	"io"
	"net"
	"time"

	"lmerge/internal/temporal"
	"lmerge/internal/wire"
)

// Server side of the binary wire protocol v2 (internal/wire, DESIGN.md §14).
// The listener stays protocol-agnostic: handle() peeks the first byte and
// routes 'H' (text "HELLO") to the v1 path and the v2 magic here. Publishers
// look like the text path with frames instead of lines; subscribers are
// where v2 earns its keep — encode-once broadcast blocks shared by
// reference, credit-based backpressure, and pipelined handshake resume.

// serveBinary negotiates the preamble (already sniffed by handle) and
// dispatches on the hello frame. r is positioned at the preamble. The
// subscriber branch transfers connection ownership to the fan-out loop;
// every other path closes the connection here.
func (s *Server) serveBinary(conn net.Conn, r *bufio.Reader) {
	owned := true
	defer func() {
		if owned {
			conn.Close()
		}
	}()
	var pre [wire.PreambleLen]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return
	}
	if err := wire.CheckPreamble(pre[:]); err != nil {
		conn.Write(wire.AppendErr(nil, err.Error()))
		return
	}
	fr := wire.NewReader(r)
	typ, body, err := fr.Next()
	if err != nil {
		return
	}
	switch typ {
	case wire.FrHelloPub:
		joinTime, perr := wire.ParseHelloPub(body)
		if perr != nil {
			conn.Write(wire.AppendErr(nil, perr.Error()))
			return
		}
		s.serveBinaryPublisher(conn, fr, joinTime)
	case wire.FrHelloSub:
		from, credit, perr := wire.ParseHelloSub(body)
		if perr != nil {
			conn.Write(wire.AppendErr(nil, perr.Error()))
			return
		}
		conn.SetReadDeadline(time.Time{}) // credit grants have no cadence
		owned = false
		s.serveBinarySubscriber(conn, r, from, credit)
	default:
		conn.Write(wire.AppendErr(nil, "expected HELLO frame"))
	}
}

// serveBinaryPublisher mirrors the text publisher loop over frames: DATA
// frames accumulate into batches flushed at the same boundaries (size,
// stable punctuation, drained input); FF/DETACH/ACK control flows back as
// frames through the same pubState the supervisor uses.
func (s *Server) serveBinaryPublisher(conn net.Conn, fr *wire.Reader, joinTime temporal.Time) {
	h, stable, err := s.attachPublisher(conn, joinTime, true)
	if err != nil {
		conn.Write(wire.AppendErr(nil, err.Error()))
		return
	}
	defer h.finish()
	h.ps.sendOK(int64(h.id), stable)
	for {
		if d := s.opts.ReadTimeout; d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		}
		typ, body, err := fr.Next()
		if err != nil {
			// Transport end or a frame that failed its checksum: the
			// connection is poisoned either way. The deferred finish merges
			// whatever was cleanly parsed; the resilient client reconnects
			// and fast-forwards past it.
			return
		}
		switch typ {
		case wire.FrData:
			e, derr := wire.DecodeData(body)
			if derr != nil {
				h.flush()
				h.ps.sendErr(derr)
				return
			}
			if perr := h.add(e, fr.Buffered() > 0); perr != nil {
				h.ps.sendErr(perr)
				return
			}
		default:
			// Unknown frame types are ignored for forward compatibility.
		}
	}
}

// serveBinarySubscriber is the v2 fan-out path. The pipelined handshake
// carried position and initial credit; the reply and history catch-up are
// written here, then the connection is handed to the event-loop delivery
// plane (fanloop.go) and this handler returns — a registered subscriber
// costs a cursor and a csub record, not a goroutine. Live delivery cuts
// frames from the shared broadcast log under the client's byte credit; an
// exhausted credit stalls only that subscriber until a grant arrives or the
// eviction deadline fires.
func (s *Server) serveBinarySubscriber(conn net.Conn, r *bufio.Reader, from int, credit int64) {
	c := &csub{conn: conn, credit: min64(credit, maxCredit)}
	s.outMu.Lock()
	if s.subsClosed {
		s.outMu.Unlock()
		conn.Close()
		return
	}
	c.id = s.nextSub
	s.nextSub++
	if from > len(s.backlog) {
		from = len(s.backlog)
	}
	// Elements share payloads, so this slice of the append-only backlog is
	// stable; everything emitted after the cursor attaches lands in the
	// shared log behind it, so history + cursor is exactly the merged stream
	// from `from` on.
	history := s.backlog[from:]
	c.cur = s.blog.Attach()
	if !s.fl.register(c) {
		s.blog.Detach(c.cur)
		s.outMu.Unlock()
		conn.Close()
		return
	}
	s.outMu.Unlock()

	// The OK reply goes out now — the handler still owns the connection until
	// activate, and the first delivery round may be far away.
	conn.SetWriteDeadline(time.Now().Add(s.opts.CreditDeadline))
	if _, err := conn.Write(wire.AppendOK(nil, 0, s.be.MaxStable())); err != nil {
		s.fl.drop(c)
		return
	}
	conn.SetWriteDeadline(time.Time{})
	if len(history) > 0 {
		// Catch-up is per-subscriber (cold path): encode the snapshot once
		// into a private buffer served ahead of the shared log under the same
		// credit, freed when drained.
		var hbuf []byte
		for _, e := range history {
			hbuf = wire.AppendData(hbuf, e)
		}
		s.wireTel.History(len(hbuf))
		c.hist = hbuf
	}
	// Whatever the handshake buffer read past the HELLO frame (a pipelined
	// CREDIT, typically) moves to a small private slice so the on-demand
	// credit reader can resume from it — and the 64 KiB handshake buffer
	// becomes garbage the moment this handler returns.
	if n := r.Buffered(); n > 0 {
		if b, err := r.Peek(n); err == nil {
			c.leftover = append([]byte(nil), b...)
			r.Discard(n)
		}
	}
	s.fl.activate(c)
}
