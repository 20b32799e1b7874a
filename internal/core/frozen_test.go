package core

import (
	"reflect"
	"testing"

	"lmerge/internal/index"
	"lmerge/internal/temporal"
)

// feedBoth delivers e on both streams 0 and 1.
func feedBoth(t *testing.T, m Merger, e temporal.Element) {
	t.Helper()
	feedOne(t, m, 0, e)
	feedOne(t, m, 1, e)
}

// TestR3ExtractFrozenEligibility builds an index with one unanimous frozen-
// started node, one unanimous infinite-lifetime node, and one node past the
// stable frontier, then checks exactly the first two are carved out — in
// ascending Vs order, under the right clock and member set — and that their
// resident footprint is actually freed.
func TestR3ExtractFrozenEligibility(t *testing.T) {
	rec := newRecorder(t)
	m := NewR3(rec.emit)
	m.Attach(0)
	m.Attach(1)
	a := temporal.Insert(temporal.P(1), 10, 100)
	b := temporal.Insert(temporal.P(2), 20, temporal.Infinity)
	c := temporal.Insert(temporal.P(3), 60, temporal.Infinity) // Vs >= stable: hot
	for _, e := range []temporal.Element{a, b, c} {
		feedBoth(t, m, e)
	}
	feedBoth(t, m, temporal.Stable(50))

	before := m.SizeBytes()
	fs, ok := m.ExtractFrozen(0)
	if !ok {
		t.Fatal("nothing extracted from a frozen-heavy index")
	}
	if fs.Clock != 50 {
		t.Errorf("Clock = %v, want 50", fs.Clock)
	}
	if !reflect.DeepEqual(fs.Members, []StreamID{0, 1}) {
		t.Errorf("Members = %v, want [0 1]", fs.Members)
	}
	if len(fs.Frames) != 2 {
		t.Fatalf("extracted %d frames, want 2 (a, b): %+v", len(fs.Frames), fs.Frames)
	}
	if fs.Frames[0].Vs != 10 || fs.Frames[0].MaxVe() != 100 {
		t.Errorf("frame 0 = %+v, want Vs=10 Ve=100", fs.Frames[0])
	}
	if fs.Frames[1].Vs != 20 || !fs.Frames[1].MaxVe().IsInf() {
		t.Errorf("frame 1 = %+v, want Vs=20 Ve=inf", fs.Frames[1])
	}
	if fs.Bytes <= 0 || m.SizeBytes() != before-fs.Bytes {
		t.Errorf("footprint: freed %d, size %d -> %d", fs.Bytes, before, m.SizeBytes())
	}
	requireExactSize(t, m, "after ExtractFrozen")

	// Re-admission restores the snapshot surface exactly.
	m.InstallFrozen(fs)
	requireExactSize(t, m, "after InstallFrozen")
	if m.SizeBytes() != before {
		t.Errorf("footprint after reinstall %d, want %d", m.SizeBytes(), before)
	}
	ref := NewR3(func(temporal.Element) {})
	ref.Attach(0)
	ref.Attach(1)
	for _, e := range []temporal.Element{a, b, c} {
		feedOne(t, ref, 0, e)
		feedOne(t, ref, 1, e)
	}
	feedOne(t, ref, 0, temporal.Stable(50))
	feedOne(t, ref, 1, temporal.Stable(50))
	if got, want := m.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot after reinstall:\n got %v\nwant %v", got, want)
	}

	// A shed target stops the scan once enough bytes are freed: asking for a
	// single byte takes only the oldest frame.
	fs2, ok := m.ExtractFrozen(1)
	if !ok || len(fs2.Frames) != 1 || fs2.Frames[0].Vs != 10 {
		t.Fatalf("shed=1: ok=%v frames=%+v, want just Vs=10", ok, fs2.Frames)
	}
	m.InstallFrozen(fs2)
}

// TestR3ExtractFrozenExclusions: extraction requires eligible state, attached
// streams, and a policy whose output clock is data-independent.
func TestR3ExtractFrozenExclusions(t *testing.T) {
	m := NewR3(func(temporal.Element) {})
	if _, ok := m.ExtractFrozen(0); ok {
		t.Error("extracted from a merger with no attached streams")
	}
	m.Attach(0)
	if _, ok := m.ExtractFrozen(0); ok {
		t.Error("extracted from an empty index")
	}
	feedOne(t, m, 0, temporal.Insert(temporal.P(1), 10, 100))
	if _, ok := m.ExtractFrozen(0); ok {
		t.Error("extracted with the stable frontier still at the floor")
	}

	ff := NewR3(func(temporal.Element) {}, R3Options{Insert: InsertFullyFrozen})
	ff.Attach(0)
	if _, ok := ff.ExtractFrozen(0); ok {
		t.Error("InsertFullyFrozen policy must refuse extraction")
	}
	if ff.HandoffCapable() {
		t.Error("InsertFullyFrozen reported handoff-capable")
	}
}

// TestR3ExtractFrozenSkipsNonUnanimous: a key one attached stream has not
// presented stays resident — its absence from that stream still matters to
// the next stable sweep.
func TestR3ExtractFrozenSkipsNonUnanimous(t *testing.T) {
	m := NewR3(func(temporal.Element) {})
	m.Attach(0)
	m.Attach(1)
	feedBoth(t, m, temporal.Insert(temporal.P(1), 10, 100))
	// Stream 0 runs ahead: only it has presented key 2.
	feedOne(t, m, 0, temporal.Insert(temporal.P(2), 12, 100))
	feedOne(t, m, 0, temporal.Stable(50))
	// Output stable still MinTime (stream 1 lags), so nothing is extractable
	// yet; raise stream 1 to advance the output frontier past both keys' Vs.
	feedOne(t, m, 1, temporal.Stable(50))
	fs, ok := m.ExtractFrozen(0)
	if !ok || len(fs.Frames) != 1 || fs.Frames[0].Payload.ID != 1 {
		t.Fatalf("fs=%+v ok=%v, want exactly key 1", fs, ok)
	}
	m.InstallFrozen(fs)
}

// TestR3InstallFrozenDropsDeadFrames: a frame whose whole lifetime froze
// while it was out of core is NOT re-admitted — the resident twin would have
// been retired by the sweep that froze it.
func TestR3InstallFrozenDropsDeadFrames(t *testing.T) {
	rec := newRecorder(t)
	m := NewR3(rec.emit)
	m.Attach(0)
	m.Attach(1)
	feedBoth(t, m, temporal.Insert(temporal.P(1), 10, 100))
	feedBoth(t, m, temporal.Stable(50))
	fs, ok := m.ExtractFrozen(0)
	if !ok || len(fs.Frames) != 1 {
		t.Fatalf("setup: fs=%+v ok=%v", fs, ok)
	}
	live := m.Live()
	feedBoth(t, m, temporal.Stable(200)) // freezes Ve=100 while spilled
	m.InstallFrozen(fs)
	if m.Live() != live {
		t.Errorf("dead frame re-admitted: Live %d, want %d", m.Live(), live)
	}
	if live != 0 || m.SizeBytes() != 0 {
		t.Errorf("emptied index: Live %d, SizeBytes %d, want 0, 0", live, m.SizeBytes())
	}
	// The output saw the insert exactly once, no withdrawal.
	if got := rec.tdb.Count(temporal.Ev(temporal.P(1), 10, 100)); got != 1 {
		t.Errorf("output count = %d, want 1", got)
	}
}

// TestR4ExtractInstallMultiset exercises the R4 face: multisets with
// duplicate occurrences and split lifetimes must round-trip through
// extraction bit-exactly, and per-stream multiset disagreement must block
// extraction of that key.
func TestR4ExtractInstallMultiset(t *testing.T) {
	rec := newRecorder(t)
	m := NewR4(rec.emit)
	m.Attach(0)
	m.Attach(1)
	dupA := temporal.Insert(temporal.P(1), 10, 100)
	splitB1 := temporal.Insert(temporal.P(2), 12, 80)
	splitB2 := temporal.Insert(temporal.P(2), 12, 120)
	skewC := temporal.Insert(temporal.P(3), 14, 100)
	feedBoth(t, m, dupA)
	feedBoth(t, m, dupA) // duplicate occurrence: count 2
	feedBoth(t, m, splitB1)
	feedBoth(t, m, splitB2)
	feedBoth(t, m, skewC)
	feedOne(t, m, 0, skewC) // stream 0 holds one more occurrence than 1
	feedBoth(t, m, temporal.Stable(50))

	fs, ok := m.ExtractFrozen(0)
	if !ok || len(fs.Frames) != 2 {
		t.Fatalf("fs=%+v ok=%v, want keys 1 and 2 only", fs, ok)
	}
	if want := []index.VeCount{{Ve: 100, Count: 2}}; !reflect.DeepEqual(fs.Frames[0].Ves, want) {
		t.Errorf("dup frame Ves = %+v, want %+v", fs.Frames[0].Ves, want)
	}
	if want := []index.VeCount{{Ve: 80, Count: 1}, {Ve: 120, Count: 1}}; !reflect.DeepEqual(fs.Frames[1].Ves, want) {
		t.Errorf("split frame Ves = %+v, want %+v", fs.Frames[1].Ves, want)
	}

	requireExactSize(t, m, "after ExtractFrozen")

	// Round-trip, then run to completion against an untouched reference.
	m.InstallFrozen(fs)
	requireExactSize(t, m, "after InstallFrozen")
	refRec := newRecorder(t)
	ref := NewR4(refRec.emit)
	ref.Attach(0)
	ref.Attach(1)
	replay := func(mm Merger) {
		for _, e := range []temporal.Element{dupA, dupA, splitB1, splitB2, skewC} {
			feedOne(t, mm, 0, e)
			feedOne(t, mm, 1, e)
		}
		feedOne(t, mm, 0, skewC)
		feedOne(t, mm, 0, temporal.Stable(50))
		feedOne(t, mm, 1, temporal.Stable(50))
	}
	replay(ref)
	// Balance stream 1's missing occurrence, then close both mergers out.
	finish := func(mm Merger) {
		feedOne(t, mm, 1, skewC)
		feedOne(t, mm, 0, temporal.Stable(temporal.Infinity))
		feedOne(t, mm, 1, temporal.Stable(temporal.Infinity))
	}
	finish(m)
	finish(ref)
	if !reflect.DeepEqual(rec.tdb.Events(), refRec.tdb.Events()) {
		t.Errorf("final TDB diverges after extract/install round-trip:\n got %v\nwant %v",
			rec.tdb.Events(), refRec.tdb.Events())
	}
	for _, ev := range refRec.tdb.Events() {
		if rec.tdb.Count(ev) != refRec.tdb.Count(ev) {
			t.Errorf("event %v count %d, want %d", ev, rec.tdb.Count(ev), refRec.tdb.Count(ev))
		}
	}
}

// TestR4ExtractFrozenEmpty covers the R4 refusal paths.
func TestR4ExtractFrozenEmpty(t *testing.T) {
	m := NewR4(func(temporal.Element) {})
	if _, ok := m.ExtractFrozen(0); ok {
		t.Error("extracted from a merger with no attached streams")
	}
	m.Attach(0)
	if _, ok := m.ExtractFrozen(0); ok {
		t.Error("extracted from an empty index")
	}
}
