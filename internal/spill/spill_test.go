package spill

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lmerge/internal/core"
	"lmerge/internal/gen"
	"lmerge/internal/obs"
	"lmerge/internal/temporal"
)

// renderWorkload renders nStreams physically divergent presentations of one
// seeded logical script — general/multiset-class inputs (disorder, revisions,
// removals, split inserts), the richest streams R3/R4 legally consume, with a
// dense stable cadence so state keeps freezing and spill keeps triggering.
func renderWorkload(seed int64, events, nStreams int, dup bool) []temporal.Stream {
	cfg := gen.Config{
		Events:        events,
		Seed:          seed,
		EventDuration: 60,
		MaxGap:        9,
		PayloadBytes:  6,
		Revisions:     0.5,
		RemoveProb:    0.25,
	}
	if dup {
		cfg.DupProb = 0.3
	}
	sc := gen.NewScript(cfg)
	streams := make([]temporal.Stream, nStreams)
	for i := range streams {
		streams[i] = sc.Render(gen.RenderOptions{
			Seed:         seed*101 + int64(i) + 1,
			StableFreq:   0.06,
			StableEvery:  7 + i,
			Disorder:     []float64{0.3, 0.1, 0.5}[i%3],
			SplitInserts: i%2 == 1,
		})
	}
	return streams
}

// drive round-robins the streams into m (stream IDs 1..n), invoking each
// after every delivery when non-nil.
func drive(t *testing.T, m core.Merger, streams []temporal.Stream, each func()) {
	t.Helper()
	pos := make([]int, len(streams))
	for {
		done := true
		for i, s := range streams {
			if pos[i] >= len(s) {
				continue
			}
			done = false
			if err := m.Process(core.StreamID(i+1), s[pos[i]]); err != nil {
				t.Fatalf("stream %d element %d: %v", i+1, pos[i], err)
			}
			pos[i]++
			if each != nil {
				each()
			}
		}
		if done {
			return
		}
	}
}

func attachAll(m core.Merger, n int) {
	for i := 1; i <= n; i++ {
		m.Attach(core.StreamID(i))
	}
}

// tdbOf reconstitutes an output stream to its temporal database.
func tdbOf(t *testing.T, out temporal.Stream, what string) *temporal.TDB {
	t.Helper()
	tdb, err := temporal.Reconstitute(out)
	if err != nil {
		t.Fatalf("%s does not reconstitute: %v", what, err)
	}
	return tdb
}

// requireSameTDB asserts two output streams describe the same temporal
// database (event multiset + stable point); emission order may differ.
func requireSameTDB(t *testing.T, got, want temporal.Stream, what string) {
	t.Helper()
	g, w := tdbOf(t, got, what), tdbOf(t, want, what+" reference")
	if g.Stable() != w.Stable() {
		t.Fatalf("%s: stable %v, want %v", what, g.Stable(), w.Stable())
	}
	ge, we := g.Events(), w.Events()
	if !reflect.DeepEqual(ge, we) {
		t.Fatalf("%s: %d distinct events, want %d (first divergence hunt: %v vs %v)",
			what, len(ge), len(we), ge, we)
	}
	for _, ev := range we {
		if g.Count(ev) != w.Count(ev) {
			t.Fatalf("%s: event %v count %d, want %d", what, ev, g.Count(ev), w.Count(ev))
		}
	}
}

func newCase(dup bool) core.Case {
	if dup {
		return core.CaseR4
	}
	return core.CaseR3
}

// TestWrapCapability: wrapping requires the frozen-extraction face; R0 has
// none and must be refused with a named capability gap.
func TestWrapCapability(t *testing.T) {
	r0 := core.New(core.CaseR0, func(temporal.Element) {})
	if Capable(r0) {
		t.Error("R0 reported spill-capable")
	}
	if _, err := Wrap(r0, Config{Budget: 1}); err == nil {
		t.Error("Wrap(R0): want error")
	}
	for _, c := range []core.Case{core.CaseR3, core.CaseR4} {
		m := core.New(c, func(temporal.Element) {})
		if !Capable(m) {
			t.Errorf("%v not spill-capable", c)
		}
	}
}

// TestSpillEquivalence drives a starved-budget wrapped merger and an
// unwrapped reference over identical divergent presentations: the final
// temporal databases must match exactly, and the spill path must actually
// have been exercised (runs written, runs re-admitted).
func TestSpillEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		dup  bool
		dir  bool
	}{
		{"R3-mem", false, false},
		{"R4-mem", true, false},
		{"R3-disk", false, true},
		{"R4-disk", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			streams := renderWorkload(11, 180, 3, tc.dup)
			var refOut temporal.Stream
			ref := core.New(newCase(tc.dup), func(e temporal.Element) { refOut = append(refOut, e) })
			attachAll(ref, len(streams))
			drive(t, ref, streams, nil)

			tel := &obs.Spill{}
			cfg := Config{Budget: 1, Arity: 2, Tel: tel}
			if tc.dir {
				cfg.Dir = t.TempDir()
			}
			var out temporal.Stream
			sp, err := Wrap(core.New(newCase(tc.dup), func(e temporal.Element) { out = append(out, e) }), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sp.Close()
			attachAll(sp, len(streams))
			drive(t, sp, streams, nil)

			requireSameTDB(t, out, refOut, "final output")
			if sp.MaxStable() != ref.MaxStable() {
				t.Errorf("MaxStable %v, want %v", sp.MaxStable(), ref.MaxStable())
			}
			snap := tel.Snapshot()
			if snap.RunsWritten == 0 {
				t.Error("starved budget never spilled a run")
			}
			if snap.Unspills == 0 {
				t.Error("no run was ever re-admitted")
			}
		})
	}
}

// TestSpillSnapshotIncludesSpilled cuts mid-stream with frames out of core:
// Snapshot must replay them — a checkpoint taken here is the recovery seed,
// so a frame missing from it is lost state.
func TestSpillSnapshotIncludesSpilled(t *testing.T) {
	for _, dup := range []bool{false, true} {
		streams := renderWorkload(23, 160, 3, dup)
		// Truncate each presentation to a prefix so live + frozen coexist.
		half := make([]temporal.Stream, len(streams))
		for i, s := range streams {
			half[i] = s[:len(s)/2]
		}
		ref := core.New(newCase(dup), func(temporal.Element) {})
		attachAll(ref, len(half))
		drive(t, ref, half, nil)

		tel := &obs.Spill{}
		sp, err := Wrap(core.New(newCase(dup), func(temporal.Element) {}), Config{Budget: 1, Arity: 2, Tel: tel})
		if err != nil {
			t.Fatal(err)
		}
		attachAll(sp, len(half))
		drive(t, sp, half, nil)

		if runs, _ := sp.st.stats(); runs == 0 {
			t.Fatalf("dup=%v: no runs out of core at the cut", dup)
		}
		got := sp.Snapshot()
		want := ref.(core.Snapshotter).Snapshot()
		requireSameTDB(t, got, want, "mid-stream snapshot")
		if tel.Snapshot().Replays == 0 {
			t.Errorf("dup=%v: snapshot never replayed a run", dup)
		}
		sp.Close()
	}
}

// TestSpillDetach detaches a stream while its vouched frames are out of
// core, then finishes the remaining streams: results must match a resident
// merger doing the same sequence.
func TestSpillDetach(t *testing.T) {
	for _, dup := range []bool{false, true} {
		streams := renderWorkload(37, 160, 3, dup)
		run := func(m core.Merger) {
			attachAll(m, len(streams))
			// Stream 3 delivers only a prefix; the others run to completion,
			// then 3 detaches with its vouched state possibly out of core.
			short := append([]temporal.Stream(nil), streams...)
			short[2] = short[2][:len(short[2])/3]
			drive(t, m, short, nil)
			m.Detach(core.StreamID(3))
		}
		var refOut temporal.Stream
		ref := core.New(newCase(dup), func(e temporal.Element) { refOut = append(refOut, e) })
		run(ref)

		var out temporal.Stream
		sp, err := Wrap(core.New(newCase(dup), func(e temporal.Element) { out = append(out, e) }), Config{Budget: 1, Arity: 2})
		if err != nil {
			t.Fatal(err)
		}
		run(sp)
		requireSameTDB(t, out, refOut, "post-detach output")
		requireSameTDB(t, sp.Snapshot(), ref.(core.Snapshotter).Snapshot(), "post-detach snapshot")
		sp.Close()
	}
}

// soakStreams renders the memory-bound workload: long-lived insert-only
// events (Ve far past the script horizon) under divergent disorder. The
// stable frontier tracks Vs, so state freezes steadily and accumulates
// instead of expiring — resident size grows linearly without a budget.
// (Revisions and removals are off on purpose: a pending revision renders as
// an adjust at the ORIGINAL Vs, so long lifetimes would pin the stable
// frontier near zero and nothing would ever freeze.)
func soakStreams(seed int64, events int, dup bool) []temporal.Stream {
	cfg := gen.Config{
		Events:        events,
		Seed:          seed,
		EventDuration: 1 << 20,
		MaxGap:        9,
		PayloadBytes:  6,
	}
	if dup {
		cfg.DupProb = 0.3
	}
	sc := gen.NewScript(cfg)
	streams := make([]temporal.Stream, 3)
	for i := range streams {
		streams[i] = sc.Render(gen.RenderOptions{
			Seed:        seed*101 + int64(i) + 1,
			StableFreq:  0.06,
			StableEvery: 7 + i,
			Disorder:    []float64{0.3, 0.1, 0.5}[i%3],
		})
	}
	return streams
}

// TestSpillSoak is the budget-adherence soak (`make spill-soak` runs it with
// the race detector, exercising the background compactor concurrently): tens
// of thousands of deliveries of accumulating long-lived state against a
// 32 KiB budget. The unwrapped reference peaks an order of magnitude above
// the budget; the wrapped merger must stay within a small soft-budget factor
// (live not-yet-unanimous state cannot be spilled), produce the identical
// temporal database, and leave zeroed gauges after Close.
func TestSpillSoak(t *testing.T) {
	for _, tc := range []struct {
		name string
		dup  bool
	}{{"R3", false}, {"R4", true}} {
		t.Run(tc.name, func(t *testing.T) {
			const budget = 32 << 10
			streams := soakStreams(71, 3000, tc.dup)

			refPeak := 0
			var refOut temporal.Stream
			ref := core.New(newCase(tc.dup), func(e temporal.Element) { refOut = append(refOut, e) })
			attachAll(ref, len(streams))
			n := 0
			drive(t, ref, streams, func() {
				if n++; n%8 != 0 {
					return
				}
				if sz := ref.SizeBytes(); sz > refPeak {
					refPeak = sz
				}
			})

			tel := &obs.Spill{}
			var out temporal.Stream
			sp, err := Wrap(core.New(newCase(tc.dup), func(e temporal.Element) { out = append(out, e) }),
				Config{Budget: budget, Arity: 3, Dir: t.TempDir(), Tel: tel})
			if err != nil {
				t.Fatal(err)
			}
			attachAll(sp, len(streams))
			peak := 0
			n = 0
			drive(t, sp, streams, func() {
				if n++; n%8 != 0 {
					return
				}
				if sz := sp.SizeBytes(); sz > peak {
					peak = sz
				}
			})

			// Budget adherence: soft (hot state is not spillable), but the
			// resident peak must stay within a small factor of the budget
			// while the unbounded reference blows far past it.
			if peak > 3*budget {
				t.Errorf("resident peak %d exceeds 3x budget %d", peak, budget)
			}
			if refPeak < 8*budget {
				t.Fatalf("soak too small to be meaningful: reference peak %d", refPeak)
			}
			if 4*peak > refPeak {
				t.Errorf("spilling barely helped: peak %d vs unbounded %d", peak, refPeak)
			}
			requireSameTDB(t, out, refOut, "soak output")
			if sp.MaxStable() != temporal.Infinity {
				t.Errorf("stable stalled at %v", sp.MaxStable())
			}
			// Unspills stay zero here by design: insert-only unique keys
			// vouched by every stream never need re-admission — the ideal
			// out-of-core case. Re-admission paths are asserted by the
			// revision-heavy equivalence tests above.
			snap := tel.Snapshot()
			if snap.RunsWritten == 0 {
				t.Errorf("spill path idle: %+v", snap)
			}
			sp.Close()
			end := tel.Snapshot()
			if end.ResidentBytes != 0 || end.OutOfCore != 0 || end.Runs != 0 {
				t.Errorf("gauges not drained after Close: resident=%d frames=%d runs=%d",
					end.ResidentBytes, end.OutOfCore, end.Runs)
			}
			t.Logf("%s: peak=%d reference=%d runs=%d merged=%d unspills=%d",
				tc.name, peak, refPeak, snap.RunsWritten, snap.RunsMerged, snap.Unspills)
		})
	}
}

// TestSpillHandoffRoundTrip extracts every key mid-stream (the repartition
// donation path, which must first re-admit all runs), installs the state
// back, finishes the input, and checks equivalence.
func TestSpillHandoffRoundTrip(t *testing.T) {
	streams := renderWorkload(53, 160, 3, true)
	halfLen := func(s temporal.Stream) int { return len(s) / 2 }

	var refOut temporal.Stream
	ref := core.New(core.CaseR4, func(e temporal.Element) { refOut = append(refOut, e) })
	attachAll(ref, len(streams))

	var out temporal.Stream
	sp, err := Wrap(core.New(core.CaseR4, func(e temporal.Element) { out = append(out, e) }), Config{Budget: 1, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	attachAll(sp, len(streams))

	for phase := 0; phase < 2; phase++ {
		part := make([]temporal.Stream, len(streams))
		for i, s := range streams {
			if phase == 0 {
				part[i] = s[:halfLen(s)]
			} else {
				part[i] = s[halfLen(s):]
			}
		}
		drive(t, ref, part, nil)
		drive(t, sp, part, nil)
		if phase == 0 {
			if !sp.HandoffCapable() {
				t.Fatal("wrapped merger lost handoff capability")
			}
			hs, err := sp.ExtractKeys(func(temporal.Payload) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			if runs, _ := sp.st.stats(); runs != 0 {
				t.Fatalf("%d runs still out of core after ExtractKeys", runs)
			}
			// Every key left: the running byte total and the manifest
			// overhead must both be back at zero, not merely small.
			if sp.SizeBytes() != 0 {
				t.Fatalf("emptied merger reports %d bytes (inner %d, manifest %d)",
					sp.SizeBytes(), sp.inner.SizeBytes(), sp.st.overheadBytes())
			}
			sp.InstallKeys(hs)
			// With every run re-admitted the wrapper holds exactly the state
			// the never-spilled reference holds, to the byte.
			if got, want := sp.SizeBytes(), ref.SizeBytes(); got != want {
				t.Fatalf("SizeBytes after handoff round trip %d, reference %d", got, want)
			}
		}
	}
	requireSameTDB(t, out, refOut, "post-handoff output")
}

// countingExtractor counts ExtractFrozen calls reaching the inner merger.
type countingExtractor struct {
	core.FrozenExtractor
	calls int
}

func (c *countingExtractor) ExtractFrozen(shed int) (core.FrozenSlice, bool) {
	c.calls++
	return c.FrozenExtractor.ExtractFrozen(shed)
}

// TestSpillRetryGate pins the retry-storm fix. Two streams are attached but
// only one presents: every node lacks the laggard's vouch, so the whole
// index is hot and no extraction can free a byte, while never-ending events
// push resident bytes to many times the budget. With the watermark checked
// at every element, an ungated controller would rescan the frozen-started
// prefix once per element; the gate allows one attempt per stable-frontier
// advance plus one per watermark gap of growth.
func TestSpillRetryGate(t *testing.T) {
	const budget = 64 << 10
	inner := &countingExtractor{FrozenExtractor: core.NewR3(func(temporal.Element) {})}
	sp, err := Wrap(inner, Config{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	attachAll(sp, 2)
	const elements = 4000
	advances := 0
	for i := 0; i < elements; i++ {
		v := temporal.Time(i + 1)
		e := temporal.Insert(temporal.Payload{ID: int64(i), Data: "hot"}, v, temporal.Infinity)
		if i%200 == 199 {
			e = temporal.Stable(v)
		}
		before := sp.MaxStable()
		if err := sp.Process(1, e); err != nil {
			t.Fatal(err)
		}
		if sp.MaxStable() > before {
			advances++
		}
	}
	size := sp.SizeBytes()
	if runs, _ := sp.st.stats(); runs != 0 || size < 4*budget {
		t.Fatalf("setup: %d runs, %d resident bytes; want nothing extractable and >= %d", runs, size, 4*budget)
	}
	if advances == 0 {
		t.Fatal("setup: the frontier never advanced")
	}
	// One attempt when the budget first binds, then one per frontier
	// advance and one per gap of growth.
	limit := 1 + advances + (size-budget)/sp.watermarkGap()
	if inner.calls == 0 || inner.calls > limit {
		t.Errorf("%d ExtractFrozen calls over %d elements (%d frontier advances, %d -> %d bytes); want 1..%d",
			inner.calls, elements, advances, budget, size, limit)
	}
	t.Logf("%d ExtractFrozen calls, %d frontier advances, %d elements", inner.calls, advances, elements)
}

// TestSpillExtractKeysUnreadableRun: a donor whose run file was damaged
// behind its back cannot reach all of its state, so ExtractKeys must refuse —
// returning the error with every resident key still in place — instead of
// handing off the resident part and stranding the rest. (In-memory blobs
// cannot fail this way: a run claimed by takeAny has left the manifest, so
// the compactor's commit over it aborts and never removes its blob, and the
// payload is our own encoder's output. TestSpillHandoffRoundTrip covers that
// side.)
func TestSpillExtractKeysUnreadableRun(t *testing.T) {
	streams := renderWorkload(53, 160, 3, false)
	for i, s := range streams {
		streams[i] = s[:len(s)/2]
	}
	dir := t.TempDir()
	sp, err := Wrap(core.New(core.CaseR3, func(temporal.Element) {}), Config{Budget: 1, Arity: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	attachAll(sp, len(streams))
	drive(t, sp, streams, nil)
	runs := sp.st.all()
	if len(runs) == 0 {
		t.Fatal("setup: nothing out of core")
	}
	if err := os.Truncate(filepath.Join(dir, runs[0].name), 5); err != nil {
		t.Fatal(err)
	}
	hs, err := sp.ExtractKeys(func(temporal.Payload) bool { return true })
	if err == nil {
		t.Fatal("ExtractKeys over a truncated run file: want an error")
	}
	if hs.Keys != 0 || sp.inner.SizeBytes() == 0 {
		t.Errorf("failed handoff moved state: %d keys extracted, %d bytes left resident", hs.Keys, sp.inner.SizeBytes())
	}
}

// liveRound returns a closure feeding m one round of the long-lived-state
// shape — 64 fresh events presented on both inputs, a stable after every
// stableEvery-th event, each event living `window` ticks so about that many
// stay resident — and returning the number of elements it fed. The 1000-byte
// data string is shared, as a decoded batch's payloads are not, which only
// makes the per-element bookkeeping stand out more.
func liveRound(tb testing.TB, m core.Merger, window, stableEvery temporal.Time) (round func() int) {
	m.Attach(0)
	m.Attach(1)
	data := strings.Repeat("x", 1000)
	v := temporal.Time(0)
	return func() int {
		fed := 0
		for i := 0; i < 64; i++ {
			v++
			e := temporal.Insert(temporal.Payload{ID: int64(v), Data: data}, v, v+window)
			for s := 0; s < 2; s++ {
				if err := m.Process(s, e); err != nil {
					tb.Fatalf("stream %d rejected %v: %v", s, e, err)
				}
			}
			fed += 2
			if v%stableEvery == 0 {
				if err := m.Process(0, temporal.Stable(v-8)); err != nil {
					tb.Fatalf("stable rejected: %v", err)
				}
				fed++
			}
		}
		return fed
	}
}

// idleBudget is far above anything the tests and benchmarks below hold
// resident: the budget never binds and the store stays empty.
const idleBudget = 1 << 30

// TestIdleBudgetAllocs: a budget that does not bind must not cost an
// allocation — the wrapped merger allocates exactly what the bare one does
// for the same elements (index nodes), nothing for consulting an empty store
// or checking the watermark.
func TestIdleBudgetAllocs(t *testing.T) {
	measure := func(m core.Merger) float64 {
		round := liveRound(t, m, 64, 16)
		for i := 0; i < 50; i++ {
			round() // steady state: scratch slices at capacity
		}
		return testing.AllocsPerRun(20, func() { round() })
	}
	bare := measure(core.NewR3(func(temporal.Element) {}))
	sp, err := Wrap(core.NewR3(func(temporal.Element) {}), Config{Budget: idleBudget, Tel: &obs.Spill{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	wrapped := measure(sp)
	if runs, _ := sp.st.stats(); runs != 0 {
		t.Fatalf("setup: budget bound, %d runs", runs)
	}
	if wrapped != bare || bare == 0 {
		t.Errorf("allocs per round: wrapped %.0f, bare %.0f; want equal and non-zero", wrapped, bare)
	}
}

// benchLive times m at steady state with ~10K live 1000-byte events. Every
// stable sweeps all of them (they are half frozen), so stables are spaced a
// batch apart, as publishers send them, to keep the sweep from drowning the
// per-element costs being compared.
func benchLive(b *testing.B, m core.Merger) {
	const live = 10_000
	round := liveRound(b, m, live, 256)
	for i := 0; i < live/64+1; i++ {
		round()
	}
	elements := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		elements += round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(elements), "ns/element")
}

// BenchmarkBareLiveState is the unwrapped twin of BenchmarkSpillIdleBudget.
func BenchmarkBareLiveState(b *testing.B) {
	benchLive(b, core.NewR3(func(temporal.Element) {}))
}

// BenchmarkSpillIdleBudget is the same merge under a budget that never
// binds: the difference from BenchmarkBareLiveState is the whole cost of
// bounded-memory mode while it has nothing to do.
func BenchmarkSpillIdleBudget(b *testing.B) {
	sp, err := Wrap(core.NewR3(func(temporal.Element) {}), Config{Budget: idleBudget, Tel: &obs.Spill{}})
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	benchLive(b, sp)
}
