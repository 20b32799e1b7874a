package main

import (
	"errors"
	"fmt"
	"hash/maphash"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"lmerge/internal/server"
	"lmerge/internal/temporal"
)

// ackTimeout bounds a publisher's wait for the end-of-stream ACK and a
// subscriber's wait for stable(∞). Only a failing session ever reaches it.
const ackTimeout = 30 * time.Second

// generatorMemoryLimit caps the harness heap while its collector is held
// off during a run.
const generatorMemoryLimit = 3 << 30

// holdGC keeps the load generator's own garbage collector from showing up
// as server latency: it collects now, then holds collection off until the
// returned function is called (the memory limit is only a backstop; a rep
// allocates far less).
func holdGC() (release func()) {
	runtime.GC()
	percent := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(generatorMemoryLimit)
	return func() {
		debug.SetMemoryLimit(limit)
		debug.SetGCPercent(percent)
	}
}

// tally counts sessions: one per publisher connection and one per subscriber
// connection. A session fails when a publisher is refused, errors, is
// detached or is never ACKed, or when a subscriber is refused, evicted, ends
// before stable(∞), or receives output that is not the script's TDB.
type tally struct {
	attempted, failed int
	wrong             bool // some subscriber's output was not the script TDB
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "benchmark: session failed: "+format+"\n", args...)
}

func connectPub(w workload, addr string) (*server.Publisher, error) {
	if w.Text {
		return server.Connect(addr, temporal.MinTime)
	}
	return server.ConnectBinary(addr, temporal.MinTime)
}

func connectSub(w workload, addr string) (*server.Subscriber, error) {
	if w.Text {
		return server.Subscribe(addr)
	}
	return server.SubscribeBinary(addr)
}

var digestSeed = maphash.MakeSeed()

// mix folds one element into a running digest. Subscribers beyond the first
// are verified by element count plus this digest against the first, whose
// stream is reconstituted in full.
func mix(h uint64, e temporal.Element) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(e.Kind)) * prime
	h = (h ^ uint64(e.Vs)) * prime
	h = (h ^ uint64(e.VOld)) * prime
	h = (h ^ uint64(e.Ve)) * prime
	h = (h ^ uint64(e.Payload.ID)) * prime
	return (h ^ maphash.String(digestSeed, e.Payload.Data)) * prime
}

// received is what one subscriber session saw.
type received struct {
	stream   temporal.Stream // kept by the first subscriber only
	count    int
	digest   uint64
	complete bool      // ended with stable(∞)
	at       time.Time // receipt of stable(∞)
	lat      []float64 // ms per output insert, paced runs only
}

// drain reads sub to stable(∞). With due set it samples, for every output
// insert, the delay from the scheduled send time of the earliest publisher
// copy (t0 plus the due batch's millisecond) to receipt.
func drain(sub *server.Subscriber, keep bool, sizeHint int, due map[temporal.VsPayload]int32, t0 time.Time) received {
	var r received
	if keep {
		r.stream = make(temporal.Stream, 0, sizeHint)
	}
	if due != nil {
		r.lat = make([]float64, 0, sizeHint)
	}
	for {
		e, ok := sub.Next()
		if !ok {
			return r
		}
		r.count++
		r.digest = mix(r.digest, e)
		if keep {
			r.stream = append(r.stream, e)
		}
		switch {
		case e.Kind == temporal.KindInsert && due != nil:
			if b, ok := due[e.Key()]; ok {
				sched := time.Duration(b) * time.Millisecond
				r.lat = append(r.lat, float64(time.Since(t0)-sched)/1e6)
			}
		case e.Kind == temporal.KindStable && e.T() == temporal.Infinity:
			r.at = time.Now()
			r.complete = true
			return r
		}
	}
}

// awaitAck finishes a publisher session: flush, then wait for the server's
// end-of-stream ACK.
func awaitAck(p *server.Publisher) error {
	if err := p.Flush(); err != nil {
		return err
	}
	select {
	case <-p.Acked():
	case <-time.After(ackTimeout):
		return errors.New("no ACK for stable(∞)")
	}
	if p.Detached() {
		return errors.New("detached by the server")
	}
	return nil
}

// sendClosed is the saturation (closed-loop) publisher: as fast as TCP
// backpressure allows.
func sendClosed(p *server.Publisher, s temporal.Stream) error {
	for _, e := range s {
		if err := p.Send(e); err != nil {
			return err
		}
	}
	return awaitAck(p)
}

// sleepUntil blocks the calling thread until t. time.Sleep will not do for a
// 1 ms schedule: when the process is otherwise idle the Go runtime parks in
// epoll_wait, whose timeout has millisecond resolution, and every batch
// would start up to a millisecond late.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early (EINTR) return just loops
	}
}

// sendPaced is the open-loop publisher: 1 ms batches on a fixed schedule
// that does not slow when the server does, one flush per batch. late
// collects, per batch, how far behind schedule the generator started it.
func sendPaced(p *server.Publisher, s temporal.Stream, rate int, t0 time.Time, late *[]float64) error {
	for i := 0; i < len(s); {
		b := batchOf(i, rate)
		dueAt := t0.Add(time.Duration(b) * time.Millisecond)
		sleepUntil(dueAt)
		*late = append(*late, float64(time.Since(dueAt))/1e6)
		for ; i < len(s) && batchOf(i, rate) == b; i++ {
			if err := p.Send(s[i]); err != nil {
				return err
			}
		}
		if err := p.Flush(); err != nil {
			return err
		}
	}
	return awaitAck(p)
}

// driven is the outcome of one run against one fresh child.
type driven struct {
	ok      bool    // every session succeeded and the output verified
	wall    float64 // first publisher byte → last live subscriber's stable(∞)
	first   received
	lat     []float64 // pooled over live subscribers (paced)
	late    []float64 // pooled over publishers (paced)
	genBusy float64   // harness CPU ÷ (wall × GOMAXPROCS) while driving
	// Child readings taken the moment the last subscriber finishes, before
	// verification, so an idle server's background work (checkpoints) is
	// not charged to the run.
	childCPU float64 // CPU seconds the child spent on the run
	rssMiB   float64 // child resident-set high-water mark
}

// drive attaches the workload's live subscribers, then its publishers, and
// runs the streams through the child: closed-loop when rate is 0, open-loop
// at rate input elements per second otherwise. Output is verified after the
// clock stops.
func drive(w workload, c *child, in *inputs, rate int, t *tally) driven {
	var d driven
	outHint := in.elements/publishers + 1024
	var due map[temporal.VsPayload]int32
	if rate > 0 {
		due = dueBatches(in, rate)
	}

	subs := make([]*server.Subscriber, 0, w.Subs)
	pubs := make([]*server.Publisher, 0, publishers)
	defer func() {
		for _, s := range subs {
			s.Close()
		}
		for _, p := range pubs {
			p.Close()
		}
	}()
	t.attempted += w.Subs + publishers
	for i := 0; i < w.Subs; i++ {
		s, err := connectSub(w, c.addr)
		if err != nil {
			t.fail("subscriber %d: %v", i, err)
			return d
		}
		subs = append(subs, s)
	}
	for i := 0; i < publishers; i++ {
		p, err := connectPub(w, c.addr)
		if err != nil {
			t.fail("publisher %d: %v", i, err)
			return d
		}
		pubs = append(pubs, p)
	}

	defer holdGC()()

	// Paced runs start a little in the future so every goroutine is parked
	// on its first batch before the schedule begins.
	t0 := time.Now()
	if rate > 0 {
		t0 = t0.Add(20 * time.Millisecond)
	}
	got := make([]received, w.Subs)
	var subWG, pubWG sync.WaitGroup
	for i, s := range subs {
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			got[i] = drain(s, i == 0, outHint, due, t0)
		}()
	}
	pubErr := make([]error, publishers)
	late := make([][]float64, publishers)
	cpu0 := selfCPUSeconds()
	childCPU0, cpuErr0 := c.cpuSeconds()
	for i, p := range pubs {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			if rate > 0 {
				pubErr[i] = sendPaced(p, in.streams[i], rate, t0, &late[i])
			} else {
				pubErr[i] = sendClosed(p, in.streams[i])
			}
		}()
	}
	pubWG.Wait()
	// A subscriber that never sees stable(∞) would block forever; closing its
	// connection after the timeout turns the hang into a failed session.
	watchdog := time.AfterFunc(ackTimeout, func() {
		for _, s := range subs {
			s.Close()
		}
	})
	subWG.Wait()
	watchdog.Stop()
	cpu1 := selfCPUSeconds()
	childCPU1, cpuErr1 := c.cpuSeconds()
	rss, rssErr := c.rssPeakMiB()
	d.childCPU, d.rssMiB = childCPU1-childCPU0, rss

	d.ok = true
	if err := errors.Join(cpuErr0, cpuErr1, rssErr); err != nil {
		t.fail("child readings: %v", err)
		d.ok = false
	}
	for i, err := range pubErr {
		if err != nil {
			t.fail("publisher %d: %v", i, err)
			d.ok = false
		}
		d.late = append(d.late, late[i]...)
	}
	end := t0
	for i, r := range got {
		switch {
		case !r.complete:
			t.fail("subscriber %d ended after %d elements, before stable(∞)", i, r.count)
			d.ok = false
		case i > 0 && (r.count != got[0].count || r.digest != got[0].digest):
			t.fail("subscriber %d diverges from subscriber 0 (%d vs %d elements)", i, r.count, got[0].count)
			t.wrong = true
			d.ok = false
		}
		if r.at.After(end) {
			end = r.at
		}
		d.lat = append(d.lat, r.lat...)
	}
	d.first = got[0]
	d.wall = end.Sub(t0).Seconds()
	d.genBusy = (cpu1 - cpu0) / (d.wall * float64(runtime.GOMAXPROCS(0)))
	if got[0].complete {
		if err := verify(got[0].stream, in.tdb); err != nil {
			t.fail("subscriber 0: %v", err)
			t.wrong = true
			d.ok = false
		}
	}
	return d
}

// verify reconstitutes a received stream and compares it with the script's
// ground truth.
func verify(s temporal.Stream, want *temporal.TDB) error {
	tdb, err := temporal.Reconstitute(s)
	if err != nil {
		return fmt.Errorf("output does not reconstitute: %w", err)
	}
	if !tdb.Equal(want) {
		return fmt.Errorf("output TDB has %d events, script TDB has %d, and they differ", tdb.Len(), want.Len())
	}
	return nil
}

// catchUp subscribes late, from position 0, to a child whose merged stream
// has already reached stable(∞), and drains the whole history. It returns
// output elements per second, or 0 if the session failed.
func catchUp(w workload, c *child, live received, t *tally) float64 {
	t.attempted++
	defer holdGC()()
	start := time.Now()
	sub, err := connectSub(w, c.addr)
	if err != nil {
		t.fail("late subscriber: %v", err)
		return 0
	}
	defer sub.Close()
	watchdog := time.AfterFunc(ackTimeout, func() { sub.Close() })
	r := drain(sub, false, 0, nil, time.Time{})
	watchdog.Stop()
	switch {
	case !r.complete:
		t.fail("late subscriber ended after %d elements, before stable(∞)", r.count)
		return 0
	case r.count != live.count || r.digest != live.digest:
		t.fail("late subscriber's history diverges from the live stream (%d vs %d elements)", r.count, live.count)
		t.wrong = true
		return 0
	}
	return float64(r.count) / r.at.Sub(start).Seconds()
}

// satRep is one saturation rep: fresh child, closed-loop drive, resource
// readings at stable(∞), then — on traced runs — the catch-up subscribers.
type satRep struct {
	throughput float64 // input elements per second
	cpuPerEl   float64 // child CPU seconds per input element
	rssMiB     float64
	catchup    float64 // output elements per second, median of the late subscribers; 0 when none ran
	genBusy    float64
	counters   serverCounters
	argv       []string
}

func saturationRep(w workload, c *child, in *inputs, lateSubs int, t *tally) (satRep, bool) {
	d := drive(w, c, in, 0, t)
	if !d.ok {
		return satRep{}, false
	}
	counters, err := c.counters()
	if err != nil {
		t.fail("child /metrics: %v", err)
		return satRep{}, false
	}
	r := satRep{
		throughput: float64(in.elements) / d.wall,
		cpuPerEl:   d.childCPU / float64(in.elements),
		rssMiB:     d.rssMiB,
		genBusy:    d.genBusy,
		counters:   counters,
		argv:       c.argv,
	}
	var rates []float64
	for i := 0; i < lateSubs; i++ {
		eps := catchUp(w, c, d.first, t)
		if eps == 0 {
			return r, false
		}
		rates = append(rates, eps)
	}
	r.catchup = median(rates)
	return r, true
}
