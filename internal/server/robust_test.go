package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"lmerge/internal/chaos"
	"lmerge/internal/core"
	"lmerge/internal/durable"
	"lmerge/internal/gen"
	"lmerge/internal/temporal"
)

// --- parseHello and frame-decode error paths -------------------------------

func TestParseHelloVariants(t *testing.T) {
	bad := []string{
		"", "HELLO", "HELLO NOPE", "HELLO PUB abc", "HELLO PUB 1e5",
		"HELLO SUB FROM", "HELLO SUB FROM x", "HELLO SUB FROM -3",
		"HELLO SUB 5", "HELLO SUB FROM 1 2", "PUB HELLO", "hello sub",
	}
	for _, line := range bad {
		if _, err := parseHello(line); err == nil {
			t.Errorf("parseHello(%q) accepted", line)
		}
	}
	good := []struct {
		line string
		want hello
	}{
		{"HELLO SUB", hello{role: "SUB"}},
		{"HELLO SUB FROM 0", hello{role: "SUB"}},
		{"HELLO SUB FROM 917", hello{role: "SUB", resumeFrom: 917}},
		{"HELLO PUB", hello{role: "PUB", joinTime: temporal.MinTime}},
		{"HELLO PUB 42", hello{role: "PUB", joinTime: 42}},
		{"HELLO PUB -9223372036854775808", hello{role: "PUB", joinTime: temporal.MinTime}},
	}
	for _, g := range good {
		h, err := parseHello(g.line)
		if err != nil || h != g.want {
			t.Errorf("parseHello(%q) = %+v, %v; want %+v", g.line, h, err, g.want)
		}
	}
}

// pubHandshake opens a raw publisher connection and consumes the OK line.
func pubHandshake(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "HELLO PUB %d\n", int64(temporal.MinTime))
	r := bufio.NewReader(conn)
	ok, _ := r.ReadString('\n')
	if !strings.HasPrefix(ok, "OK") {
		t.Fatalf("handshake failed: %q", ok)
	}
	return conn, r
}

func waitPublishers(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Publishers() != want {
		if time.Now().After(deadline) {
			t.Fatalf("publishers = %d, want %d", s.Publishers(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServerCorruptFrameClosesOnlyThatPublisher(t *testing.T) {
	s := newTestServer(t)
	// A healthy publisher is attached alongside the faulty one.
	healthy, err := Connect(s.Addr(), temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	conn, r := pubHandshake(t, s.Addr())
	defer conn.Close()
	waitPublishers(t, s, 2)
	fmt.Fprintf(conn, "%s\n", strings.Repeat("#", 40)) // chaos-style garbage
	line, _ := r.ReadString('\n')
	if !strings.HasPrefix(line, "ERR") {
		t.Fatalf("expected ERR for corrupt frame, got %q", line)
	}
	waitPublishers(t, s, 1)

	// The healthy publisher still completes the merge.
	sc := serverScript(70)
	if err := healthy.SendStream(sc.Render(gen.RenderOptions{Seed: 71, StableFreq: 0.05})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.MaxStable() != temporal.Infinity {
		if time.Now().After(deadline) {
			t.Fatal("merge did not complete after corrupt-frame disconnect")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServerTruncatedFrameDetachesCleanly(t *testing.T) {
	s := newTestServer(t)
	conn, _ := pubHandshake(t, s.Addr())
	waitPublishers(t, s, 1)
	// A valid element, then a frame cut off mid-JSON with no newline, then
	// an abrupt close — the crash-mid-write signature.
	fmt.Fprintf(conn, "{\"k\":\"i\",\"id\":1,\"data\":\"x\",\"vs\":1,\"ve\":5}\n")
	fmt.Fprintf(conn, "{\"k\":\"i\",\"id\":2,\"da")
	conn.Close()
	waitPublishers(t, s, 0)
	// The pre-crash element was merged; the torn frame was discarded.
	if st := s.Stats(); st.InInserts != 1 {
		t.Fatalf("inserts merged = %d, want 1 (torn frame must not merge)", st.InInserts)
	}
}

func TestServerOversizedGarbageLine(t *testing.T) {
	s := newTestServer(t)
	conn, r := pubHandshake(t, s.Addr())
	defer conn.Close()
	// Larger than the 64KB reader buffer: exercises the long-line path.
	fmt.Fprintf(conn, "%s\n", strings.Repeat("x", 200*1024))
	line, _ := r.ReadString('\n')
	if !strings.HasPrefix(line, "ERR") {
		t.Fatalf("expected ERR for oversized garbage, got %q", line)
	}
	waitPublishers(t, s, 0)
	// The server survives and accepts new clients.
	p, err := Connect(s.Addr(), temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
}

func TestServerHalfHello(t *testing.T) {
	s := newTestServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "HEL") // no newline, then die
	conn.Close()
	// Server must not wedge: a real client still connects.
	p, err := Connect(s.Addr(), temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
}

// --- supervision -----------------------------------------------------------

func TestReadTimeoutDetachesDeadPublisher(t *testing.T) {
	s, err := NewWithOptions("127.0.0.1:0", Options{
		Case: core.CaseR3, FeedbackLag: -1, ReadTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, _ := pubHandshake(t, s.Addr())
	defer conn.Close()
	waitPublishers(t, s, 1)
	// Silence: the half-open signature of a crashed host. No FIN is sent,
	// yet the read deadline detaches the publisher.
	waitPublishers(t, s, 0)
}

func TestStragglerDetached(t *testing.T) {
	s, err := NewWithOptions("127.0.0.1:0", Options{
		Case:           core.CaseR3,
		FeedbackLag:    -1,
		StragglerLag:   50,
		StragglerGrace: 20 * time.Millisecond,
		SuperviseEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The straggler delivers a touch of data and then stalls forever.
	straggler, r := pubHandshake(t, s.Addr())
	defer straggler.Close()
	fmt.Fprintf(straggler, "{\"k\":\"i\",\"id\":1,\"data\":\"s\",\"vs\":1,\"ve\":4}\n")

	// A healthy publisher advances the merged stable point far past the lag.
	healthy, err := Connect(s.Addr(), temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	waitPublishers(t, s, 2)
	if err := healthy.SendStream(temporal.Stream{
		temporal.Insert(temporal.P(2), 1, 10),
		temporal.Stable(500),
	}); err != nil {
		t.Fatal(err)
	}

	// The supervisor must notice the watermark gap and force-detach.
	deadline := time.Now().Add(5 * time.Second)
	for s.StragglersDetached() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("straggler was never detached")
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitPublishers(t, s, 1)
	// The straggler is told why before the connection drops.
	straggler.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, _ := r.ReadString('\n')
	if !strings.HasPrefix(line, "DETACH") {
		t.Fatalf("expected DETACH notice, got %q", line)
	}
	// Output stable time kept flowing: it sits past the healthy stream's
	// stable, unaffected by the straggler.
	if st := s.MaxStable(); st != 500 {
		t.Fatalf("stable = %v, want 500", st)
	}
}

func TestStragglerPolicySparesLastPublisher(t *testing.T) {
	s, err := NewWithOptions("127.0.0.1:0", Options{
		Case:           core.CaseR3,
		FeedbackLag:    -1,
		StragglerLag:   10,
		StragglerGrace: 10 * time.Millisecond,
		SuperviseEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// One publisher raises the stable point and then stalls: it lags its own
	// output, but as the last publisher it must never be detached.
	p, err := Connect(s.Addr(), temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.SendStream(temporal.Stream{
		temporal.Insert(temporal.P(1), 1, 10),
		temporal.Stable(100),
	}); err != nil {
		t.Fatal(err)
	}
	waitPublishers(t, s, 1)
	time.Sleep(100 * time.Millisecond)
	if s.Publishers() != 1 || s.StragglersDetached() != 0 {
		t.Fatalf("last publisher was detached (pubs=%d, detached=%d)",
			s.Publishers(), s.StragglersDetached())
	}
}

func TestLagsBehind(t *testing.T) {
	if !lagsBehind(temporal.MinTime, 100, 50) {
		t.Error("MinTime watermark must lag (overflow guard)")
	}
	if lagsBehind(90, 100, 50) {
		t.Error("within lag must not trigger")
	}
	if !lagsBehind(40, 100, 50) {
		t.Error("beyond lag must trigger")
	}
	if lagsBehind(100, 100, 0) {
		t.Error("caught-up watermark must not trigger")
	}
}

// --- subscriber isolation and resume ---------------------------------------

func TestSlowSubscriberDoesNotStallOthers(t *testing.T) {
	s, err := NewWithOptions("127.0.0.1:0", Options{
		Case: core.CaseR3, FeedbackLag: -1, SubscriberBuffer: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The slow subscriber connects and never reads.
	slow, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fmt.Fprintf(slow, "HELLO SUB\n")

	// The healthy subscriber is resilient: the tiny shared queue size may
	// drop it too under bursts, but it resumes positionally; the stalled
	// peer must never keep it from obtaining the complete merge.
	fast := NewResilientSubscriber(s.Addr(), ResilientOptions{Seed: 82})
	defer fast.Close()

	sc := serverScript(80)
	p, err := Connect(s.Addr(), temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.SendStream(sc.Render(gen.RenderOptions{Seed: 81, Disorder: 0.2, StableFreq: 0.05})); err != nil {
		t.Fatal(err)
	}

	var merged temporal.Stream
	for {
		e, ok := fast.Next()
		if !ok {
			t.Fatal("healthy subscriber gave up behind a stalled peer")
		}
		merged = append(merged, e)
		if e.Kind == temporal.KindStable && e.T() == temporal.Infinity {
			break
		}
	}
	got, err := temporal.Reconstitute(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sc.TDB()) {
		t.Fatal("fast subscriber output diverged behind a slow peer")
	}
}

func TestSubscriberPositionalResume(t *testing.T) {
	s := newTestServer(t)
	sc := serverScript(90)
	p, err := Connect(s.Addr(), temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.SendStream(sc.Render(gen.RenderOptions{Seed: 91, Disorder: 0.2, StableFreq: 0.05})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.MaxStable() != temporal.Infinity {
		if time.Now().After(deadline) {
			t.Fatal("merge did not complete")
		}
		time.Sleep(2 * time.Millisecond)
	}

	full, err := Subscribe(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	whole := collect(t, full)

	// Take a prefix, drop the connection, resume positionally, compare.
	first, err := Subscribe(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	k := len(whole) / 3
	var prefix temporal.Stream
	for len(prefix) < k {
		e, ok := first.Next()
		if !ok {
			t.Fatal("stream ended early")
		}
		prefix = append(prefix, e)
	}
	first.Close()

	second, err := subscribeVia(nil, s.Addr(), k, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	rest := collect(t, second)
	combined := append(prefix, rest...)
	if len(combined) != len(whole) {
		t.Fatalf("resume lost/duplicated elements: %d vs %d", len(combined), len(whole))
	}
	for i := range whole {
		if combined[i] != whole[i] {
			t.Fatalf("element %d differs after resume: %v vs %v", i, combined[i], whole[i])
		}
	}
}

func TestResilientSubscriberSurvivesOverflowDisconnect(t *testing.T) {
	s, err := NewWithOptions("127.0.0.1:0", Options{
		Case: core.CaseR3, FeedbackLag: -1, SubscriberBuffer: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sc := serverScript(95)
	rs := NewResilientSubscriber(s.Addr(), ResilientOptions{Seed: 1})
	defer rs.Close()

	go func() {
		p, err := Connect(s.Addr(), temporal.MinTime)
		if err != nil {
			return
		}
		defer p.Close()
		p.SendStream(sc.Render(gen.RenderOptions{Seed: 96, Disorder: 0.2, StableFreq: 0.05}))
	}()

	// Read slowly enough to overflow the tiny queue at least once; the
	// subscriber must transparently reconnect and still deliver everything
	// exactly once, in order.
	var merged temporal.Stream
	for {
		e, ok := rs.Next()
		if !ok {
			t.Fatal("resilient subscriber gave up")
		}
		merged = append(merged, e)
		if len(merged)%64 == 0 {
			time.Sleep(10 * time.Millisecond)
		}
		if e.Kind == temporal.KindStable && e.T() == temporal.Infinity {
			break
		}
	}
	got, err := temporal.Reconstitute(merged)
	if err != nil {
		t.Fatalf("resumed stream invalid: %v", err)
	}
	if !got.Equal(sc.TDB()) {
		t.Fatal("resumed subscriber output diverged")
	}
	if rs.Reconnects() == 0 {
		t.Fatal("queue never overflowed; test is vacuous (shrink SubscriberBuffer)")
	}
}

// --- resilient publisher ---------------------------------------------------

func TestResilientPublisherSurvivesInjectedFaults(t *testing.T) {
	s := newTestServer(t)
	sc := serverScript(60)
	want := sc.TDB()

	sub, err := Subscribe(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	inj := chaos.New(chaos.Config{Seed: 61, CrashProb: 0.15, CorruptProb: 0.05, TruncateProb: 0.05})
	rp := NewResilientPublisher(s.Addr(), ResilientOptions{
		Dial:        inj.Dialer(),
		Seed:        62,
		MaxAttempts: 50,
		Backoff:     Backoff{Initial: time.Millisecond, Max: 20 * time.Millisecond},
	})
	report, err := rp.Deliver(sc.Render(gen.RenderOptions{Seed: 63, Disorder: 0.2, StableFreq: 0.05}))
	if err != nil {
		t.Fatalf("delivery failed: %v (report %+v)", err, report)
	}
	if report.Connects < 2 {
		t.Fatalf("no reconnect happened (connects=%d); faults never fired", report.Connects)
	}

	merged := collect(t, sub)
	got, err := temporal.Reconstitute(merged)
	if err != nil {
		t.Fatalf("merged stream invalid: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("merged TDB diverged under connection faults")
	}
	if st := s.Stats(); st.ConsistencyWarnings != 0 {
		t.Fatalf("consistency warnings: %d", st.ConsistencyWarnings)
	}
}

func TestResilientPublisherGivesUpAgainstDeadServer(t *testing.T) {
	rp := NewResilientPublisher("127.0.0.1:1", ResilientOptions{
		MaxAttempts: 3,
		Backoff:     Backoff{Initial: time.Millisecond, Max: 2 * time.Millisecond},
	})
	report, err := rp.Deliver(temporal.Stream{temporal.Stable(temporal.Infinity)})
	if err == nil {
		t.Fatal("delivery against a dead address must fail")
	}
	if report.FailedDials != 3 {
		t.Fatalf("failed dials = %d, want 3", report.FailedDials)
	}
}

// --- durable restart: positional FROM resume across a server restart --------

// TestSubscriberResumeAcrossRestart is the regression test for positional
// FROM resume spanning a crash/restart (DESIGN.md §12). A resilient
// subscriber reads mid-stream, the server is killed (its data directory's raw
// bytes are the crash image) and restarted on the same address, and a
// resilient publisher redelivers. The subscriber must splice transparently —
// no duplicate, no gap — which requires two server-side properties: the
// recovered backlog is a superset of everything delivered pre-crash
// (emissions are WAL-logged before subscriber delivery), and the recovered
// stable frontier does not regress past the checkpoint/WAL stable.
//
// The crash image carries a torn in-flight append: a strict prefix of a
// well-formed record after the last complete one. It does not lose a completed
// record — that is power loss without -fsync, outside the write-ahead
// contract, and whenever the lost record is the RecEmit of an element the
// subscriber already holds it breaks the superset property by construction.
func TestSubscriberResumeAcrossRestart(t *testing.T) {
	subscriberResumeAcrossRestart(t, 20*time.Millisecond)
}

// checkpointsOff is a checkpoint period no test run reaches.
const checkpointsOff = time.Hour

// TestSubscriberResumeTornAppend is the deterministic sibling: with no
// checkpoint ever rotating the WAL, the crash image's only log provably ends
// in the RecEmit of the last element the subscriber consumed, followed by the
// torn append.
func TestSubscriberResumeTornAppend(t *testing.T) {
	subscriberResumeAcrossRestart(t, checkpointsOff)
}

func subscriberResumeAcrossRestart(t *testing.T, every time.Duration) {
	dir := t.TempDir()
	sc := serverScript(700)
	stream := sc.Render(gen.RenderOptions{Seed: 701, Disorder: 0.2, StableFreq: 0.05})
	opts := Options{Case: core.CaseR3, FeedbackLag: -1, DataDir: dir, CheckpointEvery: every}
	s, err := NewWithOptions("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()

	rs := NewResilientSubscriber(addr, ResilientOptions{
		Seed: 7, MaxAttempts: 200,
		Backoff: Backoff{Initial: time.Millisecond, Max: 10 * time.Millisecond},
	})
	defer rs.Close()

	p, err := Connect(addr, temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	// The prefix ends on the stable that sets its frontier, so the merged
	// output reaching target means the whole prefix has been merged and
	// stable(target) is the last emission.
	cut, target := 0, temporal.MinTime
	for i, e := range stream {
		if e.Kind == temporal.KindStable && e.T() > target {
			if target = e.T(); i >= len(stream)/2 {
				cut = i + 1
				break
			}
		}
	}
	if cut == 0 || cut == len(stream) {
		t.Fatal("setup: no frontier-advancing stable in the stream's second half")
	}
	if err := p.SendStream(stream[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	waitStable(t, s, target)

	// Read up to the prefix's stable point, then "crash" the server: copy the
	// data dir bytes, leave a torn append on the WAL tail (the mid-write
	// signature), restart on the same address.
	var merged temporal.Stream
	preStable := temporal.MinTime
	for preStable < target {
		e, ok := rs.Next()
		if !ok {
			t.Fatal("subscriber gave up pre-crash")
		}
		merged = append(merged, e)
		if e.Kind == temporal.KindStable {
			preStable = temporal.MaxT(preStable, e.T())
		}
	}
	img := copyDataDir(t, dir)
	if every == checkpointsOff {
		recs, torn, err := durable.ReadLog(newestWAL(t, img))
		if err != nil || torn != 0 || len(recs) == 0 {
			t.Fatalf("setup: WAL image unreadable: %d records, %d torn bytes, err %v", len(recs), torn, err)
		}
		last := recs[len(recs)-1]
		if last.Kind != durable.RecEmit || last.Els[len(last.Els)-1] != temporal.Stable(target) {
			t.Fatalf("setup: WAL ends in %v %v, want the emit of stable(%v)", last.Kind, last.Els, target)
		}
	}
	appendTornRecord(t, img)
	p.Close()
	s.Close()

	opts.DataDir = img
	s2, err := NewWithOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.MaxStable(); got < preStable {
		t.Fatalf("recovered frontier %d regressed past delivered stable %d", int64(got), int64(preStable))
	}

	rp := NewResilientPublisher(addr, ResilientOptions{Seed: 8})
	if _, err := rp.Deliver(stream); err != nil {
		t.Fatal(err)
	}

	for {
		e, ok := rs.Next()
		if !ok {
			t.Fatal("subscriber gave up post-restart")
		}
		merged = append(merged, e)
		if e.Kind == temporal.KindStable && e.T() == temporal.Infinity {
			break
		}
	}
	if rs.Reconnects() == 0 {
		t.Fatal("subscriber never reconnected; restart not exercised")
	}
	got, err := temporal.Reconstitute(merged)
	if err != nil {
		t.Fatalf("spliced stream invalid: %v", err)
	}
	if !got.Equal(sc.TDB()) {
		t.Fatal("TDB across restart diverged from no-crash oracle")
	}
}
