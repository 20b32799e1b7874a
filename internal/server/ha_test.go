package server

import (
	"math/rand"
	"testing"

	"lmerge/internal/core"
	"lmerge/internal/gen"
	"lmerge/internal/temporal"
)

// The high-availability deployment of the paper's Sec. II-1 on the real
// service: n replica publishers deliver divergent presentations of one
// logical stream in lockstep, a replica fails by closing its connection
// mid-stream, and a replacement re-attaches, skips what the handshake stable
// point covers, and replays the rest of its rendering from scratch. However
// replicas come and go, the merged output must reconstitute to the script's
// TDB and reach stable(∞).
//
// The seeds fix each replica's rendering and the failure/restart schedule,
// but not the interleaving the server sees: publishers run on separate
// connections, and ShouldSkip depends on asynchronous FF feedback, so how
// much a replica skips or replays varies from run to run.

type haReplica struct {
	pub    *Publisher
	stream temporal.Stream
	pos    int
	failed bool
}

type haCluster struct {
	t        *testing.T
	s        *Server
	sub      *Subscriber
	sc       *gen.Script
	disorder float64
	seed     int64
	reps     []*haReplica
}

func haScript(seed int64) *gen.Script {
	return gen.NewScript(gen.Config{
		Events: 250, Seed: seed, EventDuration: 80, MaxGap: 10,
		Revisions: 0.5, RemoveProb: 0.2, PayloadBytes: 8,
	})
}

func newHACluster(t *testing.T, c core.Case, sc *gen.Script, replicas int, disorder float64) *haCluster {
	t.Helper()
	s, err := New("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	sub, err := Subscribe(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sub.Close() })
	hc := &haCluster{t: t, s: s, sub: sub, sc: sc, disorder: disorder, seed: 9000}
	for i := 0; i < replicas; i++ {
		hc.spawn()
	}
	return hc
}

// spawn attaches a replica that delivers its whole rendering from the start.
func (hc *haCluster) spawn() *haReplica {
	hc.t.Helper()
	hc.seed++
	pub, err := Connect(hc.s.Addr(), temporal.MinTime)
	if err != nil {
		hc.t.Fatal(err)
	}
	hc.t.Cleanup(func() { pub.Close() })
	r := &haReplica{pub: pub, stream: hc.sc.Render(gen.RenderOptions{
		Seed: hc.seed, Disorder: hc.disorder, StableFreq: 0.02,
	})}
	hc.reps = append(hc.reps, r)
	return r
}

func (hc *haCluster) live() []*haReplica {
	var live []*haReplica
	for _, r := range hc.reps {
		if !r.failed {
			live = append(live, r)
		}
	}
	return live
}

// fail closes a replica's connection mid-stream; the server detaches it.
func (hc *haCluster) fail(r *haReplica) {
	hc.t.Helper()
	if len(hc.live()) <= 1 {
		hc.t.Fatal("test schedule fails the last live replica")
	}
	r.failed = true
	r.pub.Close()
}

// step delivers burst elements from the first replica and one from every
// other live one, skipping what the merged output already covers, and
// flushes each sender so the step schedule is what reaches the server. It
// reports whether any replica had elements left.
func (hc *haCluster) step(burst int) bool {
	hc.t.Helper()
	progressed := false
	for i, r := range hc.reps {
		n := 1
		if i == 0 {
			n = burst
		}
		sent := false
		for k := 0; k < n && !r.failed && r.pos < len(r.stream); k++ {
			e := r.stream[r.pos]
			r.pos++
			progressed = true
			if r.pub.ShouldSkip(e) {
				continue
			}
			if err := r.pub.Send(e); err != nil {
				hc.t.Fatal(err)
			}
			sent = true
		}
		if sent {
			if err := r.pub.Flush(); err != nil {
				hc.t.Fatal(err)
			}
		}
	}
	return progressed
}

// run steps to completion, failing a random live replica (never the last)
// and spawning a replacement with the given per-step probabilities.
func (hc *haCluster) run(rng *rand.Rand, failProb, restartProb float64) {
	for hc.step(1) {
		if rng.Float64() < failProb {
			if live := hc.live(); len(live) > 1 {
				hc.fail(live[rng.Intn(len(live))])
			}
		}
		if rng.Float64() < restartProb {
			hc.spawn()
		}
	}
}

// check asserts the merged output is the script's TDB through stable(∞).
func (hc *haCluster) check() {
	hc.t.Helper()
	merged := collect(hc.t, hc.sub)
	assertTDB(hc.t, merged, hc.sc.TDB(), "merged output")
	if got := hc.s.MaxStable(); got != temporal.Infinity {
		hc.t.Fatalf("merged output incomplete: stable %d", int64(got))
	}
}

func TestClusterNoFailures(t *testing.T) {
	hc := newHACluster(t, core.CaseR3, haScript(1), 3, 0.3)
	hc.run(rand.New(rand.NewSource(1)), 0, 0)
	hc.check()
}

func TestClusterNMinus1Failures(t *testing.T) {
	hc := newHACluster(t, core.CaseR3, haScript(2), 5, 0.3)
	reps := hc.reps
	for steps := 1; hc.step(1); steps++ {
		switch steps {
		case 20:
			hc.fail(reps[1])
		case 60:
			hc.fail(reps[2])
		case 100:
			hc.fail(reps[3])
		case 140:
			hc.fail(reps[4])
		}
	}
	hc.check()
	if n := len(hc.live()); n != 1 {
		t.Fatalf("live = %d", n)
	}
}

func TestClusterRestartRedeliversWithoutDuplicates(t *testing.T) {
	hc := newHACluster(t, core.CaseR3, haScript(4), 2, 0.2)
	for i := 0; i < 80 && hc.step(1); i++ {
	}
	hc.fail(hc.reps[1])
	hc.spawn()
	for hc.step(1) {
	}
	hc.check()
}

func TestClusterRandomChaos(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		hc := newHACluster(t, core.CaseR3, haScript(10+seed), 4, 0.4)
		hc.run(rand.New(rand.NewSource(seed)), 0.01, 0.005)
		hc.check()
	}
}

func TestClusterSkewedDelivery(t *testing.T) {
	hc := newHACluster(t, core.CaseR3, haScript(20), 3, 0.3)
	for hc.step(5) {
	}
	hc.check()
}

func TestClusterR4Case(t *testing.T) {
	sc := gen.NewScript(gen.Config{
		Events: 200, Seed: 30, EventDuration: 60, MaxGap: 8,
		Revisions: 0.4, RemoveProb: 0.2, PayloadBytes: 8, DupProb: 0.25,
	})
	hc := newHACluster(t, core.CaseR4, sc, 3, 0.3)
	hc.run(rand.New(rand.NewSource(7)), 0.01, 0)
	hc.check()
}
