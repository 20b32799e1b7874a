package gen

import (
	"math/rand"
	"sort"

	"lmerge/internal/temporal"
)

// RenderOptions controls one physical presentation of a script. Renderings
// with different options (or seeds) are physically divergent — different
// order, different stable placement, different insert/adjust splits — yet
// reconstitute to the same TDB, making them valid LMerge inputs.
type RenderOptions struct {
	// Seed drives the rendering's randomness (disorder pattern, stable
	// placement). Different seeds give physically different streams.
	Seed int64
	// Disorder is the fraction of elements delivered late relative to
	// timestamp order (paper default 20%). Implemented, as in the paper, by
	// holding elements back: a disordered element is delayed by up to
	// MaxLateness while the stream continues past it.
	Disorder float64
	// MaxLateness bounds how far a disordered element is displaced, in
	// ticks (default 3×MaxGap).
	MaxLateness temporal.Time
	// StableFreq is the probability that a stable element is emitted after
	// any given element (paper default 1%). At least one insert separates
	// consecutive stables by construction.
	StableFreq float64
	// StableEvery, when positive, additionally forces a stable element after
	// every StableEvery-th element (at the largest timestamp the remaining
	// suffix allows). Deterministic mid-stream stable points let differential
	// drivers compare intermediate TDB surfaces at known cut points instead of
	// relying on StableFreq's coin flips.
	StableEvery int
	// SplitInserts renders each event as insert(p, Vs, ∞) followed by an
	// adjust to its first end time, as sources that do not know event ends a
	// priori do (the process-monitoring pattern of Sec. I).
	SplitInserts bool
	// NoFinalStable suppresses the closing stable(∞) that normally flushes
	// the stream.
	NoFinalStable bool
	// DropFrac omits this fraction of histories from the rendering entirely
	// — a faulty stream with missing elements (paper Sec. V-C). Renderings
	// with drops are no longer strictly equivalent to the script, only
	// consistent with it up to the dropped events.
	DropFrac float64
}

func (o RenderOptions) withDefaults(cfg Config) RenderOptions {
	if o.MaxLateness == 0 {
		o.MaxLateness = 3 * cfg.MaxGap
	}
	if o.StableFreq == 0 {
		o.StableFreq = 0.01
	}
	return o
}

// Render produces one physical presentation of the script.
func (sc *Script) Render(o RenderOptions) temporal.Stream {
	o = o.withDefaults(sc.Cfg)
	rng := rand.New(rand.NewSource(o.Seed))

	// Lay out each history's canonical elements across its lifetime: the
	// insert fires at Vs, revisions are spread towards the first end time.
	type slot struct {
		history int
		at      temporal.Time
	}
	var slots []slot
	dropped := make(map[int]bool)
	if o.DropFrac > 0 {
		for hi := range sc.Histories {
			if rng.Float64() < o.DropFrac {
				dropped[hi] = true
			}
		}
	}
	for hi := range sc.Histories {
		if dropped[hi] {
			continue
		}
		h := &sc.Histories[hi]
		n := len(historyElements(*h, o.SplitInserts))
		span := h.Ves[0] - h.Vs
		for i := 0; i < n; i++ {
			at := h.Vs
			if n > 1 && i > 0 {
				at += span * temporal.Time(i) / temporal.Time(n-1)
			}
			slots = append(slots, slot{history: hi, at: at})
		}
	}

	// Disorder: displace a fraction of elements to a later delivery time.
	for i := range slots {
		if o.Disorder > 0 && rng.Float64() < o.Disorder {
			slots[i].at += 1 + temporal.Time(rng.Int63n(int64(o.MaxLateness)))
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].at < slots[j].at })

	// Restore per-history element order (an adjust chain must follow its
	// insert): within the slots each history occupies, reinstate canonical
	// order while keeping the slot positions.
	perHistory := make(map[int][]int)
	for i, s := range slots {
		perHistory[s.history] = append(perHistory[s.history], i)
	}
	ordered := make([]temporal.Element, len(slots))
	for hi, idxs := range perHistory {
		// idxs is ascending; refill those positions with the history's
		// canonical sequence.
		canon := historyElements(sc.Histories[hi], o.SplitInserts)
		for j, pos := range idxs {
			ordered[pos] = canon[j]
		}
	}

	// Place stable elements. A stable(t) at position i is valid iff every
	// later element has all its time references >= t; the suffix minimum of
	// element time floors gives the largest valid t.
	suffixMin := make([]temporal.Time, len(ordered)+1)
	suffixMin[len(ordered)] = temporal.Infinity
	for i := len(ordered) - 1; i >= 0; i-- {
		suffixMin[i] = temporal.MinT(suffixMin[i+1], floor(ordered[i]))
	}
	out := make(temporal.Stream, 0, len(ordered)+len(ordered)/64+1)
	lastStable := temporal.MinTime
	sinceInsert := false // ensure an insert separates consecutive stables
	for i, el := range ordered {
		out = append(out, el)
		if el.Kind == temporal.KindInsert {
			sinceInsert = true
		}
		forced := o.StableEvery > 0 && (i+1)%o.StableEvery == 0
		if forced || sinceInsert && rng.Float64() < o.StableFreq {
			if t := suffixMin[i+1]; t > lastStable && !t.IsInf() {
				out = append(out, temporal.Stable(t))
				lastStable = t
				sinceInsert = false
			}
		}
	}
	if !o.NoFinalStable {
		out = append(out, temporal.Stable(temporal.Infinity))
	}
	return out
}

// historyElements returns the canonical element sequence for one history.
func historyElements(h History, split bool) []temporal.Element {
	var els []temporal.Element
	if split {
		els = append(els, temporal.Insert(h.P, h.Vs, temporal.Infinity))
		els = append(els, temporal.Adjust(h.P, h.Vs, temporal.Infinity, h.Ves[0]))
	} else {
		els = append(els, temporal.Insert(h.P, h.Vs, h.Ves[0]))
	}
	for i := 1; i < len(h.Ves); i++ {
		els = append(els, temporal.Adjust(h.P, h.Vs, h.Ves[i-1], h.Ves[i]))
	}
	if h.Removed {
		last := h.Ves[len(h.Ves)-1]
		els = append(els, temporal.Adjust(h.P, h.Vs, last, h.Vs))
	}
	return els
}

// floor returns the smallest time reference of an element: a later stable(t)
// is valid only if t <= floor for every remaining element.
func floor(e temporal.Element) temporal.Time {
	switch e.Kind {
	case temporal.KindInsert:
		return e.Vs
	case temporal.KindAdjust:
		return temporal.MinT(e.VOld, e.Ve)
	default:
		return temporal.Infinity
	}
}

// RenderOrdered produces the in-order, insert-only presentations of cases
// R0–R2. The script must have been generated without revisions or
// removals. kind selects the tie-order treatment:
//
//	OrderedStrict         every element strictly increasing Vs (R0)
//	OrderedDeterministic  same-Vs elements in payload order (R1)
//	OrderedShuffledTies   same-Vs elements shuffled per rendering (R2)
func (sc *Script) RenderOrdered(kind OrderedKind, o RenderOptions) temporal.Stream {
	o = o.withDefaults(sc.Cfg)
	rng := rand.New(rand.NewSource(o.Seed))
	// An ordered, insert-only presentation carries final lifetimes only:
	// revisions are collapsed and cancelled events never appear.
	hs := make([]History, 0, len(sc.Histories))
	for _, h := range sc.Histories {
		ve, alive := h.Final()
		if !alive {
			continue
		}
		hs = append(hs, History{P: h.P, Vs: h.Vs, Ves: []temporal.Time{ve}})
	}
	sort.SliceStable(hs, func(i, j int) bool {
		if hs[i].Vs != hs[j].Vs {
			return hs[i].Vs < hs[j].Vs
		}
		return hs[i].P.Compare(hs[j].P) < 0
	})
	if kind == OrderedShuffledTies {
		for lo := 0; lo < len(hs); {
			hi := lo + 1
			for hi < len(hs) && hs[hi].Vs == hs[lo].Vs {
				hi++
			}
			rng.Shuffle(hi-lo, func(i, j int) { hs[lo+i], hs[lo+j] = hs[lo+j], hs[lo+i] })
			lo = hi
		}
	}
	out := make(temporal.Stream, 0, len(hs)+len(hs)/64+1)
	lastStable := temporal.MinTime
	sinceInsert := false
	for i, h := range hs {
		out = append(out, temporal.Insert(h.P, h.Vs, h.Ves[0]))
		sinceInsert = true
		forced := o.StableEvery > 0 && (i+1)%o.StableEvery == 0
		if (forced || sinceInsert && rng.Float64() < o.StableFreq) && i+1 < len(hs) {
			if t := hs[i+1].Vs; t > lastStable {
				out = append(out, temporal.Stable(t))
				lastStable = t
				sinceInsert = false
			}
		}
	}
	if !o.NoFinalStable {
		out = append(out, temporal.Stable(temporal.Infinity))
	}
	return out
}

// OrderedKind selects the tie handling of RenderOrdered.
type OrderedKind uint8

// The ordered rendering kinds (see RenderOrdered).
const (
	OrderedStrict OrderedKind = iota
	OrderedDeterministic
	OrderedShuffledTies
)
