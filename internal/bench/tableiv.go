package bench

import (
	"fmt"
	"time"

	"lmerge/internal/gen"
	"lmerge/internal/temporal"
)

// TableIVResult carries the empirical complexity measurements.
type TableIVResult struct {
	// PerElementNs[variant][i] is the per-element cost at the i-th point of
	// the swept dimension.
	PerElementNs map[string][]float64
	Sweep        []int
	Table        *Table
}

// TableIVScaling empirically probes the complexity table (Table IV): R0–R2
// per-element cost must stay flat as the live-event population w grows,
// while R3/R4 grow only logarithmically (tree-indexed), and LMR3- pays
// multiple tree lookups. The live population is controlled through the
// event lifetime: longer lifetimes keep more (Vs, Payload) nodes unfrozen.
func TableIVScaling(scale Scale) TableIVResult {
	res := TableIVResult{
		PerElementNs: make(map[string][]float64),
		Sweep:        []int{1, 4, 16, 64},
		Table: &Table{
			ID:      "tableiv",
			Title:   "Empirical per-element cost vs live-event population (Table IV)",
			Columns: []string{"variant", "w x1", "w x4", "w x16", "w x64", "x64/x1"},
		},
	}
	for _, v := range variants() {
		var cells []string
		cells = append(cells, v.name)
		var first, last float64
		for _, mult := range res.Sweep {
			ns := perElementCost(v, scale, mult)
			res.PerElementNs[v.name] = append(res.PerElementNs[v.name], ns)
			cells = append(cells, fmt.Sprintf("%.0fns", ns))
			if mult == res.Sweep[0] {
				first = ns
			}
			last = ns
		}
		cells = append(cells, fmt.Sprintf("%.2fx", last/first))
		res.Table.AddRow(cells...)
	}
	res.Table.Note("paper shape: R0-R2 O(1)/O(s) flat in w; R3/R4 O(log w); nothing grows linearly in w")
	return res
}

// perElementCost measures mean per-element processing time with the live
// population scaled by mult.
func perElementCost(v mergerMaker, scale Scale, mult int) float64 {
	cfg := gen.Config{
		Events:        scale.Events,
		Seed:          51,
		PayloadBytes:  16,
		UniqueVs:      true,
		MaxGap:        8,
		EventDuration: temporal.Time(40 * mult),
	}
	sc := gen.NewScript(cfg)
	streams := make([]temporal.Stream, 2)
	for i := range streams {
		// All variants accept the strictly-ordered rendering.
		streams[i] = sc.RenderOrdered(gen.OrderedStrict, gen.RenderOptions{Seed: int64(5100 + i), StableFreq: 0.02})
	}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	start := time.Now()
	runMerge(v, streams, 0, false)
	return float64(time.Since(start).Nanoseconds()) / float64(total)
}

// All returns every experiment's table at the given scale, in paper order —
// the one-call entry point for cmd/lmbench.
func All(scale Scale) []*Table {
	return []*Table{
		Fig2MemoryInOrder(scale).Table,
		Fig3ThroughputInOrder(scale).Table,
		Fig4OutputSize(scale).Table,
		Fig5ThroughputLag(scale).Table,
		Fig6StableFreq(scale).Table,
		Fig7EnforceVsGeneral(scale).Table,
		Fig8Bursty(scale).Table,
		Fig9Congestion(scale).Table,
		Fig10PlanSwitch(scale).Table,
		TableIVScaling(scale).Table,
		FreshnessUnderLag(scale).Table,
	}
}

// Experiments maps experiment ids to their runners, for cmd/lmbench -exp.
func Experiments() map[string]func(Scale) *Table {
	return map[string]func(Scale) *Table{
		"fig2":               func(s Scale) *Table { return Fig2MemoryInOrder(s).Table },
		"fig3":               func(s Scale) *Table { return Fig3ThroughputInOrder(s).Table },
		"fig4":               func(s Scale) *Table { return Fig4OutputSize(s).Table },
		"fig5":               func(s Scale) *Table { return Fig5ThroughputLag(s).Table },
		"fig6":               func(s Scale) *Table { return Fig6StableFreq(s).Table },
		"fig7":               func(s Scale) *Table { return Fig7EnforceVsGeneral(s).Table },
		"fig8":               func(s Scale) *Table { return Fig8Bursty(s).Table },
		"fig9":               func(s Scale) *Table { return Fig9Congestion(s).Table },
		"fig10":              func(s Scale) *Table { return Fig10PlanSwitch(s).Table },
		"tableiv":            func(s Scale) *Table { return TableIVScaling(s).Table },
		"scale":              func(s Scale) *Table { return ScalePartitions(s).Table },
		"ablation-policies":  func(s Scale) *Table { return AblationPolicies(s).Table },
		"ablation-feedback":  func(s Scale) *Table { return AblationFeedbackLag(s).Table },
		"ablation-jumpstart": func(s Scale) *Table { return AblationJumpstart(s).Table },
		"freshness":          func(s Scale) *Table { return FreshnessUnderLag(s).Table },
	}
}
