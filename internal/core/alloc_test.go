package core

import (
	"testing"

	"lmerge/internal/obs"
	"lmerge/internal/temporal"
)

// allocRound returns a closure driving one steady-state round through m:
// 64 fresh timestamps, each event presented on both inputs, with a trailing
// stable every 16 elements. Timestamps keep advancing across calls so every
// round does real insert/freeze work rather than replaying dropped
// duplicates.
func allocRound(tb testing.TB, m Merger) (round func(), elements int) {
	m.Attach(0)
	m.Attach(1)
	v := temporal.Time(0)
	round = func() {
		for i := 0; i < 64; i++ {
			v++
			e := temporal.Insert(temporal.P(int64(i&3)), v, v+16)
			if err := m.Process(0, e); err != nil {
				tb.Fatalf("stream 0 rejected %v: %v", e, err)
			}
			if err := m.Process(1, e); err != nil {
				tb.Fatalf("stream 1 rejected %v: %v", e, err)
			}
			if i&15 == 15 {
				if err := m.Process(0, temporal.Stable(v-8)); err != nil {
					tb.Fatalf("stable rejected: %v", err)
				}
			}
		}
	}
	return round, 64*2 + 4
}

// TestProcessAllocs pins the per-element allocation budget of each merge
// algorithm's Process hot path at steady state. R0–R2 keep fixed-size or
// recycled state and must not allocate at all; R3 and R4 pay for index-node
// creation (tree nodes, and for R4 the third-tier VeSets) but nothing
// per-sweep — the budgets below are the measured post-optimisation costs
// with headroom for allocator jitter, and exist to catch regressions such
// as a reintroduced per-stable scratch allocation. R3 and R4 are pinned at
// their measured 0.97 (index node + tree node per event, two presentations
// each): the incremental SizeBytes counter must not cost an allocation.
func TestProcessAllocs(t *testing.T) {
	discard := func(temporal.Element) {}
	cases := []struct {
		name   string
		m      Merger
		budget float64 // allocs per element, averaged over a round
	}{
		{"R0", NewR0(discard), 0},
		{"R1", NewR1(discard), 0},
		{"R2", NewR2(discard), 0},
		{"R2Dup", NewR2Dup(discard), 0},
		{"R3", NewR3(discard), 1},
		{"R3Naive", NewR3Naive(discard), 2},
		{"R4", NewR4(discard), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			round, elements := allocRound(t, c.m)
			for i := 0; i < 50; i++ {
				round() // reach steady state: scratch, freelists, map capacity
			}
			perElement := testing.AllocsPerRun(20, round) / float64(elements)
			if perElement > c.budget {
				t.Errorf("%s: %.2f allocs/element at steady state, budget %.2f", c.name, perElement, c.budget)
			}
			t.Logf("%s: %.2f allocs/element (budget %.2f)", c.name, perElement, c.budget)
		})
	}
}

// TestProcessAllocsObserved repeats the steady-state budgets with a telemetry
// node attached: instrumentation must not add a single allocation per element
// to any algorithm's hot path, or observers would be unusable in production.
func TestProcessAllocsObserved(t *testing.T) {
	discard := func(temporal.Element) {}
	cases := []struct {
		name   string
		m      Merger
		budget float64
	}{
		{"R0", NewR0(discard), 0},
		{"R1", NewR1(discard), 0},
		{"R2", NewR2(discard), 0},
		{"R2Dup", NewR2Dup(discard), 0},
		{"R3", NewR3(discard), 1.3},
		{"R3Naive", NewR3Naive(discard), 2},
		{"R4", NewR4(discard), 1.3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c.m.(Observable).Observe(reg.Node(c.name))
			round, elements := allocRound(t, c.m)
			for i := 0; i < 50; i++ {
				round()
			}
			perElement := testing.AllocsPerRun(20, round) / float64(elements)
			if perElement > c.budget {
				t.Errorf("%s observed: %.2f allocs/element at steady state, budget %.2f", c.name, perElement, c.budget)
			}
			t.Logf("%s observed: %.2f allocs/element (budget %.2f)", c.name, perElement, c.budget)
		})
	}
}
