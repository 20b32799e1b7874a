package diffcheck

import (
	"strings"

	"lmerge/internal/gen"
	"lmerge/internal/temporal"
)

// Replay runs one configuration over explicit presentations and returns any
// divergences. The reference is rebuilt from streams[0] by brute force, so a
// replay is fully self-contained: minimized regression tests embed literal
// streams and call Replay. seed only drives the "random" delivery order.
//
// Raw merges (PipeNone/PipeUnion) are compared against the oracle directly.
// Aggregate pipelines are compared against the same pipeline driven by the
// canonical presentation of the oracle TDB (perfectly ordered inserts and one
// closing stable) through the deterministic sync executor — the simplest
// input any merge algorithm handles trivially.
func Replay(cfg Config, seed int64, streams []temporal.Stream) []Divergence {
	return replay(cfg, seed, streams, Options{})
}

// replay is Replay with an Options carrier, so the minimizer can thread the
// Mutate test hook through to the merger under test.
func replay(cfg Config, seed int64, streams []temporal.Stream, opt Options) []Divergence {
	w := &workload{class: classCount, seed: seed, streams: streams}
	oracle, err := OracleOf(streams[0])
	if err != nil {
		return []Divergence{{Seed: seed, Class: classCount, Config: cfg, Against: "oracle",
			Detail: "presentation 0 is not a valid stream: " + err.Error()}}
	}
	res := runConfig(cfg, w, opt)
	divs := res.divs
	if res.err != nil {
		return append(divs, Divergence{Seed: seed, Class: classCount, Config: cfg,
			Against: "self", Detail: res.err.Error()})
	}
	if res.warnings != 0 {
		divs = append(divs, Divergence{Seed: seed, Class: classCount, Config: cfg, Against: "self",
			Detail: "consistency warnings on mutually consistent inputs"})
	}
	refEvents := oracle.Events()
	refFrozen := oracle.Frozen
	against := "oracle"
	if !cfg.oracleComparable() {
		refCfg := Config{Algo: AlgoR4, Exec: ExecSync, Pipeline: cfg.Pipeline, Order: "roundrobin"}
		refW := &workload{class: classCount, seed: seed, streams: []temporal.Stream{canonicalStream(oracle)}}
		refRes := runConfig(refCfg, refW, Options{})
		ref, refDivs := foldAndCheck(refRes.out, nil, "", refCfg, refW)
		if refRes.err != nil || len(refDivs) > 0 || ref == nil {
			return append(divs, Divergence{Seed: seed, Class: classCount, Config: refCfg, Against: "self",
				Detail: "pipeline reference run failed on the canonical presentation"})
		}
		refEvents = tdbEvents(ref)
		refFrozen = func(t temporal.Time) []temporal.Event { return tdbFrozen(ref, t) }
		against = refCfg.String() + " over canonical input"
	}
	final, foldDivs := foldAndCheck(res.out, refFrozen, against, cfg, w)
	divs = append(divs, foldDivs...)
	if final == nil {
		return divs
	}
	if !final.Stable().IsInf() {
		divs = append(divs, Divergence{Seed: seed, Class: classCount, Config: cfg, Against: "self",
			Detail: "output stable point stalled at " + final.Stable().String()})
	}
	if got := tdbEvents(final); !eventsEqual(got, refEvents) {
		divs = append(divs, Divergence{Seed: seed, Class: classCount, Config: cfg, Against: against,
			Detail: "final TDB diverges: got " + describeEvents(got) + " want " + describeEvents(refEvents)})
	}
	return divs
}

// canonicalStream renders the oracle TDB as its simplest valid presentation:
// inserts in (Vs, Payload, Ve) order followed by stable(∞).
func canonicalStream(o *Oracle) temporal.Stream {
	evs := o.Events()
	out := make(temporal.Stream, 0, len(evs)+1)
	for _, ev := range evs {
		out = append(out, temporal.Insert(ev.Payload, ev.Vs, ev.Ve))
	}
	return append(out, temporal.Stable(temporal.Infinity))
}

// Minimized is a shrunk failing workload: the smallest explicit streams the
// minimizer could reach that still make div.Config diverge.
type Minimized struct {
	Divergence Divergence          // the divergence observed on the minimized streams
	Streams    []temporal.Stream   // the minimized presentations (Replay input)
	Plan       []gen.RenderOptions // the simplified rendering plan that produced them
	Histories  int                 // surviving script histories
	Elements   int                 // total elements across minimized streams
}

// Minimize shrinks the workload behind a grid divergence (found by Run or
// CheckSeed): delta debugging over the script's event histories first, then
// presentation perturbations (dropping whole streams, zeroing disorder,
// undoing insert splitting, thinning stable elements). Every step re-renders
// and re-runs the failing configuration; a step is kept only while the
// divergence persists, so the result is guaranteed to still fail.
func Minimize(div Divergence, opt Options) *Minimized {
	opt = opt.withDefaults()
	attempts := 1
	if div.Config.Exec.concurrent() {
		// The interleaving is scheduling-dependent; give flaky divergences a
		// few chances before declaring a candidate healthy.
		attempts = 3
	}
	sc := gen.NewScript(scriptConfig(div.Class, div.Seed, opt.Events))
	plan := renderPlan(div.Class, div.Seed, opt.Streams)
	render := func(hs []gen.History, p []gen.RenderOptions) []temporal.Stream {
		trial := &gen.Script{Cfg: sc.Cfg, Histories: hs}
		return renderStreams(trial, div.Class, p)
	}

	// Shrinking steps must preserve the original failure mode, not merely keep
	// the run red: a careless step (say, thinning away the closing stable) can
	// trade the bug under investigation for a trivial, unrelated divergence
	// that would survive the eventual fix and poison the generated regression
	// test. A candidate counts as failing only if it reproduces the original
	// divergence kind and introduces no kinds absent from the full workload.
	want := detailKind(div.Detail)
	allowed := map[string]bool{want: true}
	for _, d := range replay(div.Config, div.Seed, render(sc.Histories, plan), opt) {
		allowed[detailKind(d.Detail)] = true
	}
	failsOn := func(streams []temporal.Stream) bool {
		if len(streams) == 0 {
			return false
		}
		for i := 0; i < attempts; i++ {
			divs := replay(div.Config, div.Seed, streams, opt)
			hit := false
			for _, d := range divs {
				k := detailKind(d.Detail)
				if !allowed[k] {
					hit = false
					break
				}
				if k == want {
					hit = true
				}
			}
			if hit {
				return true
			}
		}
		return false
	}

	// Phase 1: ddmin over script histories.
	hs := ddmin(sc.Histories, func(cand []gen.History) bool {
		return failsOn(render(cand, plan))
	})

	// Phase 2: presentation perturbations on the rendering plan.
	// 2a: drop whole streams.
	for i := len(plan) - 1; i >= 0 && len(plan) > 1; i-- {
		cand := append(append([]gen.RenderOptions(nil), plan[:i]...), plan[i+1:]...)
		if failsOn(render(hs, cand)) {
			plan = cand
		}
	}
	// 2b: simplify each surviving stream's options.
	for i := range plan {
		for _, simplify := range []func(*gen.RenderOptions){
			func(o *gen.RenderOptions) { o.Disorder = 0 },
			func(o *gen.RenderOptions) { o.SplitInserts = false },
			func(o *gen.RenderOptions) { o.StableFreq = -1 }, // forced stables only
		} {
			cand := append([]gen.RenderOptions(nil), plan...)
			simplify(&cand[i])
			if failsOn(render(hs, cand)) {
				plan = cand
			}
		}
	}
	// One more history pass: the simpler presentations may need fewer events.
	hs = ddmin(hs, func(cand []gen.History) bool {
		return failsOn(render(cand, plan))
	})

	streams := render(hs, plan)
	// Phase 3: thin stable elements directly in the final streams. Dropping a
	// stable never changes a stream's TDB or breaks mutual consistency, so
	// this is safe element-level surgery.
	for i := range streams {
		kept := ddmin(stableIndexes(streams[i]), func(cand []int) bool {
			trial := append([]temporal.Stream(nil), streams...)
			trial[i] = withOnlyStables(streams[i], cand)
			return failsOn(trial)
		})
		streams[i] = withOnlyStables(streams[i], kept)
	}

	if !failsOn(streams) {
		// Flaky to the end: fall back to the unminimized workload.
		streams = render(sc.Histories, renderPlan(div.Class, div.Seed, opt.Streams))
		hs = sc.Histories
	}
	m := &Minimized{Streams: streams, Plan: plan, Histories: len(hs)}
	for _, s := range streams {
		m.Elements += len(s)
	}
	if divs := replay(div.Config, div.Seed, streams, opt); len(divs) > 0 {
		m.Divergence = divs[0]
		m.Divergence.Class = div.Class
	} else {
		m.Divergence = div
	}
	return m
}

// detailKind maps a divergence detail to a coarse failure mode, so the
// minimizer can tell "the same bug, at a different timestamp" apart from "a
// different problem entirely".
func detailKind(detail string) string {
	for _, k := range []string{
		"snapshot",
		"frozen surface",
		"final TDB",
		"stable point stalled",
		"consistency warnings",
		"not a valid stream",
		"invalid",
		"not mutually consistent",
	} {
		if strings.Contains(detail, k) {
			return k
		}
	}
	return "other"
}

// ddmin is the classic delta-debugging reduction: it returns a subsequence of
// items, 1-minimal up to chunk granularity, on which fails still holds. If
// fails rejects the full input, items is returned unchanged.
func ddmin[T any](items []T, fails func([]T) bool) []T {
	if len(items) == 0 || !fails(items) {
		return items
	}
	n := 2
	for len(items) >= 2 {
		chunk := (len(items) + n - 1) / n
		reduced := false
		for lo := 0; lo < len(items); lo += chunk {
			hi := min(lo+chunk, len(items))
			// Try the complement of [lo, hi).
			cand := make([]T, 0, len(items)-(hi-lo))
			cand = append(cand, items[:lo]...)
			cand = append(cand, items[hi:]...)
			if len(cand) > 0 && fails(cand) {
				items = cand
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(items) {
				break
			}
			n = min(2*n, len(items))
		}
	}
	return items
}

// stableIndexes returns the positions of stable elements in s.
func stableIndexes(s temporal.Stream) []int {
	var idx []int
	for i, e := range s {
		if e.Kind == temporal.KindStable {
			idx = append(idx, i)
		}
	}
	return idx
}

// withOnlyStables copies s, keeping only the stable elements at positions in
// keep (ascending) and every non-stable element.
func withOnlyStables(s temporal.Stream, keep []int) temporal.Stream {
	out := make(temporal.Stream, 0, len(s))
	k := 0
	for i, e := range s {
		if e.Kind == temporal.KindStable {
			if k < len(keep) && keep[k] == i {
				out = append(out, e)
				k++
			}
			continue
		}
		out = append(out, e)
	}
	return out
}
