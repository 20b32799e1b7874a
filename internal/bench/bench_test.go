package bench

import (
	"strings"
	"testing"
)

// tiny keeps shape tests fast while still exercising every code path.
var tiny = Scale{Events: 1200, PayloadBytes: 32}

func TestFig2Shape(t *testing.T) {
	r := Fig2MemoryInOrder(tiny)
	last := len(r.Inputs) - 1
	// LMR3- grows with inputs; LMR3+ stays nearly flat.
	naive := r.Bytes["LMR3-"]
	plus := r.Bytes["LMR3+"]
	if naive[last] < 2*naive[0] {
		t.Errorf("LMR3- memory should grow ~linearly with inputs: %v", naive)
	}
	if plus[last] > 2*plus[0] {
		t.Errorf("LMR3+ memory should be nearly flat in inputs: %v", plus)
	}
	if naive[last] < 3*plus[last] {
		t.Errorf("LMR3- (%d) should dwarf LMR3+ (%d) at 10 inputs", naive[last], plus[last])
	}
	// The simple mergers are far below the general ones.
	for _, v := range []string{"LMR0", "LMR1", "LMR2"} {
		if r.Bytes[v][last] > plus[last]/4+1024 {
			t.Errorf("%s memory %d should be negligible vs LMR3+ %d", v, r.Bytes[v][last], plus[last])
		}
	}
	if s := r.Table.String(); !strings.Contains(s, "fig2") {
		t.Error("table missing id")
	}
}

func TestFig3Shape(t *testing.T) {
	r := Fig3ThroughputInOrder(tiny)
	last := len(r.Inputs) - 1
	if r.Throughput["LMR0"][last] < r.Throughput["LMR3+"][last] {
		t.Errorf("simpler merger should be faster: R0 %.0f vs R3+ %.0f",
			r.Throughput["LMR0"][last], r.Throughput["LMR3+"][last])
	}
	if r.Throughput["LMR3+"][last] < r.Throughput["LMR3-"][last] {
		t.Errorf("LMR3+ should beat LMR3-: %.0f vs %.0f",
			r.Throughput["LMR3+"][last], r.Throughput["LMR3-"][last])
	}
}

func TestFig4Shape(t *testing.T) {
	r := Fig4OutputSize(tiny)
	n := len(r.Disorder)
	if r.SinglePlan[n-1] <= r.SinglePlan[0] {
		t.Errorf("single-plan adjusts should grow with disorder: %v", r.SinglePlan)
	}
	// The merged output is never chattier than a single plan's output.
	for i := range r.Disorder {
		if r.LMergeOut[i] > r.SinglePlan[i] {
			t.Errorf("disorder %.0f%%: LMerge output %d adjusts > single plan %d",
				r.Disorder[i]*100, r.LMergeOut[i], r.SinglePlan[i])
		}
	}
}

func TestFig5Shape(t *testing.T) {
	r := Fig5ThroughputLag(tiny)
	n := len(r.LagSeconds)
	// The mechanism: laggards' elements take the cheap duplicate-drop path,
	// increasingly so with lag, and more with two laggards than one.
	if r.OneDropFrac[n-1] <= r.OneDropFrac[0] {
		t.Errorf("dropped fraction should rise with lag: %v", r.OneDropFrac)
	}
	if r.OneDropFrac[n-1] < 0.1 {
		t.Errorf("at max lag a laggard's stream should be largely dropped: %v", r.OneDropFrac)
	}
	if r.TwoDropFrac[n-1] <= r.OneDropFrac[n-1] {
		t.Errorf("two laggards should drop more than one: %v vs %v",
			r.TwoDropFrac[n-1], r.OneDropFrac[n-1])
	}
	// Throughput must not collapse as lag grows (wall-clock, so tolerant).
	if r.OneLagging[n-1] < r.OneLagging[0]*0.7 {
		t.Errorf("throughput fell sharply with lag: %v", r.OneLagging)
	}
}

func TestFig6Shape(t *testing.T) {
	r := Fig6StableFreq(tiny)
	n := len(r.StableFreq)
	for _, v := range []string{"LMR3+", "LMR4"} {
		if r.Bytes[v][n-1] > r.Bytes[v][0] {
			t.Errorf("%s memory should fall as StableFreq rises: %v", v, r.Bytes[v])
		}
	}
}

func TestFig7Shape(t *testing.T) {
	r := Fig7EnforceVsGeneral(tiny)
	last := len(r.Inputs) - 1
	if r.Bytes["C+LMR1"][last] < 2*r.Bytes["LMR3+"][last] {
		t.Errorf("C+LMR1 memory (%d) should dwarf LMR3+ (%d)",
			r.Bytes["C+LMR1"][last], r.Bytes["LMR3+"][last])
	}
	if r.Bytes["C+LMR1"][last] < 2*r.Bytes["C+LMR1"][0] {
		t.Errorf("C+LMR1 memory should grow with inputs: %v", r.Bytes["C+LMR1"])
	}
	if r.Latency["C+LMR1"].Mean < 10*r.Latency["LMR3+"].Mean {
		t.Errorf("C+LMR1 latency (%.1fms) should be orders of magnitude above LMR3+ (%.1fms)",
			r.Latency["C+LMR1"].Mean, r.Latency["LMR3+"].Mean)
	}
}

func TestFig8Shape(t *testing.T) {
	r := Fig8Bursty(tiny)
	if r.OutCV >= r.InputCV {
		t.Errorf("merged output CV (%.3f) should be below input CV (%.3f)", r.OutCV, r.InputCV)
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9Congestion(tiny)
	for i, cv := range r.InCVs {
		if r.OutCV >= cv {
			t.Errorf("output CV (%.3f) should be below input %d CV (%.3f)", r.OutCV, i, cv)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	r := Fig10PlanSwitch(Scale{Events: 6000, PayloadBytes: 8})
	best := r.UDF0Alone
	if r.UDF1Alone < best {
		best = r.UDF1Alone
	}
	// Without feedback, LMerge completes around the best single plan.
	if r.LMergeOnly > best*12/10 {
		t.Errorf("LMR3+ completion %d should be ≈ best single plan %d", r.LMergeOnly, best)
	}
	// With feedback, several times faster.
	if r.LMFeedback*2 > best {
		t.Errorf("LM+Feedback completion %d should be well below best single plan %d (skipped=%d)",
			r.LMFeedback, best, r.SkippedWithFeedback)
	}
	if r.SkippedWithFeedback == 0 {
		t.Error("feedback run skipped nothing")
	}
}

func TestTableIVShape(t *testing.T) {
	r := TableIVScaling(tiny)
	n := len(r.Sweep)
	// No variant's per-element cost may grow linearly with the live
	// population (x64 sweep → linear would be ~64x; trees give ~log).
	for name, costs := range r.PerElementNs {
		if costs[n-1] > costs[0]*16 {
			t.Errorf("%s per-element cost grows too fast: %v", name, costs)
		}
	}
}

func TestExperimentsRegistry(t *testing.T) {
	reg := Experiments()
	if len(reg) != 15 {
		t.Fatalf("registry has %d experiments", len(reg))
	}
	for id, fn := range reg {
		if fn == nil {
			t.Fatalf("%s has no runner", id)
		}
	}
	// Table rendering sanity on one cheap experiment.
	tbl := reg["fig10"](Scale{Events: 400, PayloadBytes: 8})
	s := tbl.String()
	if !strings.Contains(s, "LM+Feedback") || !strings.Contains(s, "note:") {
		t.Errorf("table rendering incomplete:\n%s", s)
	}
}

func TestScalePartitionsShape(t *testing.T) {
	r := ScalePartitions(Scale{Events: 1500, PayloadBytes: 16})
	if len(r.Partitions) != 4 || len(r.Table.Rows) != 4 {
		t.Fatalf("scale curve has %d points", len(r.Partitions))
	}
	for i := range r.Partitions {
		if r.UniformTput[i] <= 0 || r.SkewTput[i] <= 0 {
			t.Fatalf("non-positive throughput at %d partitions", r.Partitions[i])
		}
		if r.SkewImbalance[i] < 1 {
			t.Fatalf("imbalance %f < 1 at %d partitions", r.SkewImbalance[i], r.Partitions[i])
		}
	}
}
