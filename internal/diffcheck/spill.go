package diffcheck

import (
	"fmt"

	"lmerge/internal/core"
	"lmerge/internal/spill"
	"lmerge/internal/temporal"
)

// spillStarved is the pathological spill configuration the differential axes
// run under: a 1-byte budget (checked at every element, with a zero-width
// watermark gap so no attempt is ever gated) forces every frozen-eligible
// node out of core immediately, and arity 2 keeps the background compactor
// merging constantly. Runs stay in memory (Dir empty) but still round-trip
// through the durable run codec, so framing bugs surface here too.
func spillStarved() spill.Config {
	return spill.Config{Budget: 1, Arity: 2}
}

// runSpill is runDirect with the merger spill-wrapped under the starvation
// config: the same deterministic interleaving, oracle comparison, and
// per-stable snapshot checks, but with most agreed state living in runs —
// Snapshot must replay them, stables must re-admit them ahead of
// absent-treatment sweeps, and re-presented keys must be absorbed or
// re-admitted by the fingerprint consult path.
func runSpill(cfg Config, w *workload, opt Options) result {
	var out temporal.Stream
	var res result
	sp, err := spill.Wrap(
		cfg.Algo.NewMerger(func(e temporal.Element) { out = append(out, e) }),
		spillStarved())
	if err != nil {
		res.err = fmt.Errorf("spill wrap: %v; grid gate failed", err)
		return res
	}
	defer sp.Close()
	var m core.Merger = sp
	if opt.Mutate != nil {
		m = opt.Mutate(cfg, m)
	}
	for i := range w.streams {
		m.Attach(i)
	}
	prefix := temporal.NewTDB()
	applied := 0
	prevStable := temporal.MinTime
	sn, canSnap := m.(core.Snapshotter)
	pos := make([]int, len(w.streams))
	for _, s := range deliveryOrder(cfg.Order, streamLens(w.streams), w.seed) {
		e := w.streams[s][pos[s]]
		pos[s]++
		if err := m.Process(s, e); err != nil {
			res.err = fmt.Errorf("process %v from stream %d: %v", e, s, err)
			return res
		}
		for ; applied < len(out); applied++ {
			_ = prefix.Apply(out[applied])
		}
		if canSnap && m.MaxStable() > prevStable {
			prevStable = m.MaxStable()
			res.divs = append(res.divs, checkSnapshot(cfg, w, sn, prefix, prevStable)...)
		}
	}
	res.out = out
	res.warnings = m.Stats().ConsistencyWarnings
	return res
}
