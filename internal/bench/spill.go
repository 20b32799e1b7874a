package bench

import (
	"fmt"
	"os"
	"time"

	"lmerge/internal/core"
	"lmerge/internal/gen"
	"lmerge/internal/obs"
	"lmerge/internal/spill"
	"lmerge/internal/temporal"
)

// SpillBudget is the fixed resident budget the memory-bound experiment runs
// under: small enough that every swept point is well past it, so the curve
// shows the controller holding a flat plateau while the unbounded index
// grows linearly with the accumulated key population.
const SpillBudget = 32 << 10

// SpillBoundResult carries the memory-bound curve (PR-8 acceptance
// experiment; see EXPERIMENTS.md "Bounded resident state"): peak resident
// SizeBytes of an R3 merge as the accumulated key population grows, with and
// without the out-of-core spill tier, plus what the budgeted run paid for
// the bound (runs written, bytes shipped to disk, per-element cost).
type SpillBoundResult struct {
	Events        []int
	UnboundedPeak []int // peak resident SizeBytes, plain R3
	BoundedPeak   []int // peak resident SizeBytes, spill.Wrap at SpillBudget
	// ManifestBytes is the resident manifest's share of BoundedPeak at the
	// end of the run: 112B per live run descriptor plus an 8B fingerprint
	// per spilled key (the hint that routes re-presentations of a spilled
	// key to its run). The index proper is held at the budget; the manifest
	// is the irreducible per-key residue, so the unbounded/bounded ratio
	// approaches frame-bytes/8 rather than growing without bound.
	ManifestBytes []int
	RunsWritten   []int64
	SpilledBytes  []int64
	// Per-element wall cost of each run; both loops pay the same external
	// SizeBytes sampling, so the delta is the spill tier's overhead.
	UnboundedNsPerEl []float64
	BoundedNsPerEl   []float64
	Table            *Table
}

// spillStreams renders the accumulating workload: insert-only events with
// near-infinite lifetimes, so unanimous frozen-started state piles up behind
// the stable frontier and resident size grows linearly in the unbounded run.
// Insert-only is load-bearing, not a simplification: a pending revision or
// removal renders as an adjust at the ORIGINAL event's Vs, so with long
// lifetimes it would pin the stable frontier near zero and nothing would
// ever freeze — the regime where spilling is impossible by design, not the
// one this experiment measures.
func spillStreams(events int) []temporal.Stream {
	sc := gen.NewScript(gen.Config{
		Events:        events,
		Seed:          88,
		EventDuration: 1 << 20,
		MaxGap:        9,
		PayloadBytes:  6,
	})
	streams := make([]temporal.Stream, 3)
	for i := range streams {
		streams[i] = sc.Render(gen.RenderOptions{
			Seed:        int64(8800 + i),
			StableFreq:  0.06,
			StableEvery: 7 + i,
			Disorder:    []float64{0.3, 0.1, 0.5}[i],
		})
	}
	return streams
}

// runSpillBound interleaves the streams into m one element at a time (the
// single-goroutine engine contract), always advancing the stream with the
// least fractional progress. The streams render different stable cadences so
// their lengths differ by a few percent; plain positional round-robin would
// let them drift linearly apart in script time, and the merge's
// not-yet-unanimous window — state that CANNOT spill — would grow with the
// sweep instead of staying bounded by the disorder window. Progress-balanced
// delivery models synchronized replicas, the regime the bound is about.
// Resident SizeBytes is sampled every sampleEvery deliveries: the probe
// walks the index, so per-element sampling would be quadratic, and a coarse
// cadence plus a final probe captures the (monotone-ish) peak.
func runSpillBound(m core.Merger, streams []temporal.Stream, sampleEvery int) (peak int, nsPerEl float64) {
	idx := make([]int, len(streams))
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	fed := 0
	start := time.Now()
	for fed < total {
		next, frac := -1, 2.0
		for s := range streams {
			if idx[s] >= len(streams[s]) {
				continue
			}
			if f := float64(idx[s]) / float64(len(streams[s])); f < frac {
				next, frac = s, f
			}
		}
		if err := m.Process(core.StreamID(next), streams[next][idx[next]]); err != nil {
			panic(fmt.Sprintf("bench: spill merge: %v", err))
		}
		idx[next]++
		if fed++; fed%sampleEvery == 0 {
			if sz := m.SizeBytes(); sz > peak {
				peak = sz
			}
		}
	}
	if sz := m.SizeBytes(); sz > peak {
		peak = sz
	}
	return peak, float64(time.Since(start).Nanoseconds()) / float64(total)
}

// SpillBound sweeps the accumulated key population (scale.Events/8 up to
// scale.Events) and records peak resident bytes for a plain R3 merge vs the
// same merge wrapped by the spill tier at a fixed 32 KiB budget. Expected
// shape: the unbounded column grows linearly with events at the full frame
// cost (~120B/key); the budgeted column's index share is pinned at the
// budget, leaving only the manifest residue — an 8B fingerprint per spilled
// key — so the ratio climbs toward the frame/fingerprint size ratio and the
// absolute saving grows linearly with the population.
func SpillBound(scale Scale) SpillBoundResult {
	res := SpillBoundResult{
		Table: &Table{
			ID:    "spill",
			Title: fmt.Sprintf("Peak resident index bytes vs accumulated keys (R3, %s spill budget)", fmtBytes(SpillBudget)),
			Columns: []string{"events", "unbounded peak", "budgeted peak", "manifest", "ratio",
				"runs", "spilled", "ns/el", "ns/el budgeted"},
		},
	}
	for _, frac := range []int{8, 4, 2, 1} {
		events := max(scale.Events/frac, 64)
		streams := spillStreams(events)
		sampleEvery := max(events/32, 32)

		um := core.NewR3(func(temporal.Element) {})
		for s := range streams {
			um.Attach(core.StreamID(s))
		}
		uPeak, uNs := runSpillBound(um, streams, sampleEvery)

		dir, err := os.MkdirTemp("", "lmbench-spill-")
		if err != nil {
			panic(fmt.Sprintf("bench: spill dir: %v", err))
		}
		tel := &obs.Spill{}
		bm, err := spill.Wrap(core.NewR3(func(temporal.Element) {}), spill.Config{
			Budget: SpillBudget,
			Dir:    dir,
			Arity:  4,
			Tel:    tel,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: spill wrap: %v", err))
		}
		for s := range streams {
			bm.Attach(core.StreamID(s))
		}
		bPeak, bNs := runSpillBound(bm, streams, sampleEvery)
		snap := tel.Snapshot()
		bm.Close() // removes dir
		manifest := 8*int(snap.OutOfCore) + 112*int(snap.Runs)

		res.Events = append(res.Events, events)
		res.UnboundedPeak = append(res.UnboundedPeak, uPeak)
		res.BoundedPeak = append(res.BoundedPeak, bPeak)
		res.ManifestBytes = append(res.ManifestBytes, manifest)
		res.RunsWritten = append(res.RunsWritten, snap.RunsWritten)
		res.SpilledBytes = append(res.SpilledBytes, snap.SpilledBytes)
		res.UnboundedNsPerEl = append(res.UnboundedNsPerEl, uNs)
		res.BoundedNsPerEl = append(res.BoundedNsPerEl, bNs)
		res.Table.AddRow(fmt.Sprintf("%d", events),
			fmtBytes(uPeak), fmtBytes(bPeak), fmtBytes(manifest),
			fmt.Sprintf("%.1fx", float64(uPeak)/float64(bPeak)),
			fmt.Sprintf("%d", snap.RunsWritten), fmtBytes(int(snap.SpilledBytes)),
			fmt.Sprintf("%.0f", uNs), fmt.Sprintf("%.0f", bNs))
	}
	res.Table.Note("workload: 3 replicas, insert-only, near-infinite lifetimes — resident state accumulates with every event")
	res.Table.Note("budgeted peak = index held at the budget + manifest (112B/run + 8B fingerprint per spilled key)")
	res.Table.Note("paper shape: unbounded ~120B/key linear; budgeted residue ~8B/key, ratio -> frame/fingerprint (~16x)")
	return res
}
