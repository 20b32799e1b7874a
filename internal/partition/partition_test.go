package partition

import (
	"math/rand"
	"testing"

	"lmerge/internal/core"
	"lmerge/internal/gen"
	"lmerge/internal/temporal"
)

func TestFrontierMatchesNaiveMin(t *testing.T) {
	const parts = 9
	f := newFrontier(parts)
	if f.Min() != temporal.MinTime {
		t.Fatalf("fresh frontier Min = %v", f.Min())
	}
	naive := make([]temporal.Time, parts)
	for i := range naive {
		naive[i] = temporal.MinTime
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		p := rng.Intn(parts)
		t2 := temporal.Time(rng.Int63n(1 << 20))
		moved := f.Update(p, t2)
		if moved != (t2 > naive[p]) {
			t.Fatalf("step %d: Update(%d, %v) moved=%v, naive %v", i, p, t2, moved, naive[p])
		}
		naive[p] = temporal.MaxT(naive[p], t2)
		min, max := naive[0], naive[0]
		for _, v := range naive[1:] {
			min, max = temporal.MinT(min, v), temporal.MaxT(max, v)
		}
		if f.Min() != min || f.Max() != max {
			t.Fatalf("step %d: Min/Max = %v/%v, want %v/%v", i, f.Min(), f.Max(), min, max)
		}
		if f.Value(p) != naive[p] {
			t.Fatalf("step %d: Value(%d) = %v, want %v", i, p, f.Value(p), naive[p])
		}
	}
}

// testWorkload renders three divergent presentations of one script and
// returns them with the script's final TDB.
func testWorkload(t *testing.T, dup float64) ([]temporal.Stream, *temporal.TDB) {
	t.Helper()
	sc := gen.NewScript(gen.Config{
		Events:       300,
		Seed:         42,
		Revisions:    0.4,
		RemoveProb:   0.2,
		PayloadBytes: 6,
		ValueRange:   40, // few distinct IDs: keys repeat and skew partitions
		DupProb:      dup,
	})
	var streams []temporal.Stream
	for i := 0; i < 3; i++ {
		streams = append(streams, sc.Render(gen.RenderOptions{
			Seed:        int64(100 + i),
			Disorder:    0.25,
			StableEvery: 11 + i,
		}))
	}
	return streams, sc.TDB()
}

// interleave produces one (stream, element) feed order covering all inputs.
func interleave(streams []temporal.Stream, seed int64) (order []int) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]int, len(streams))
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	for len(order) < total {
		s := rng.Intn(len(streams))
		if pos[s] < len(streams[s]) {
			order = append(order, s)
			pos[s]++
		}
	}
	return order
}

func drive(t *testing.T, m core.Merger, streams []temporal.Stream, order []int, check func()) {
	t.Helper()
	pos := make([]int, len(streams))
	for s := range streams {
		m.Attach(s)
	}
	for _, s := range order {
		e := streams[s][pos[s]]
		pos[s]++
		if err := m.Process(s, e); err != nil {
			t.Fatalf("process stream %d element %v: %v", s, e, err)
		}
		if check != nil {
			check()
		}
	}
}

func TestPartitionedMatchesSingleR3(t *testing.T) {
	streams, want := testWorkload(t, 0)
	order := interleave(streams, 7)
	for _, parts := range []int{1, 2, 3, 5} {
		var single, parted temporal.Stream
		ref := core.NewR3(func(e temporal.Element) { single = append(single, e) })
		pm := New(core.CaseR3, parts, func(e temporal.Element) { parted = append(parted, e) })

		drive(t, ref, streams, order, nil)
		drive(t, pm, streams, order, nil)

		// The stable trajectories must be identical: stables are broadcast and
		// every partition algorithm advances its stable point to the raiser's
		// time, so the frontier minimum equals the single merger's stable.
		if got, want := stableTrajectory(parted), stableTrajectory(single); !equalTimes(got, want) {
			t.Fatalf("parts=%d: stable trajectory %v, want %v", parts, got, want)
		}
		if pm.MaxStable() != ref.MaxStable() {
			t.Fatalf("parts=%d: MaxStable %v, want %v", parts, pm.MaxStable(), ref.MaxStable())
		}
		// The reunified stream must be a valid stream reconstituting to the
		// same TDB as both the single-pipeline output and the script.
		got := temporal.MustReconstitute(parted)
		if !got.Equal(temporal.MustReconstitute(single)) {
			t.Fatalf("parts=%d: reunified TDB differs from single-pipeline TDB", parts)
		}
		if !got.Equal(want) {
			t.Fatalf("parts=%d: reunified TDB differs from script TDB", parts)
		}
	}
}

func stableTrajectory(s temporal.Stream) []temporal.Time {
	var ts []temporal.Time
	for _, e := range s {
		if e.Kind == temporal.KindStable {
			ts = append(ts, e.T())
		}
	}
	return ts
}

func equalTimes(a, b []temporal.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPartitionedSnapshotUnion(t *testing.T) {
	streams, _ := testWorkload(t, 0)
	order := interleave(streams, 13)
	ref := core.NewR3(nil)
	pm := New(core.CaseR3, 4, nil)
	snap, ok := pm.(core.Snapshotter)
	if !ok {
		t.Fatal("partitioned R3 must implement Snapshotter")
	}
	pos := make([]int, len(streams))
	for s := range streams {
		ref.Attach(s)
		pm.Attach(s)
	}
	checked := 0
	for _, s := range order {
		e := streams[s][pos[s]]
		pos[s]++
		if err := ref.Process(s, e); err != nil {
			t.Fatal(err)
		}
		if err := pm.Process(s, e); err != nil {
			t.Fatal(err)
		}
		if e.Kind != temporal.KindStable || pm.MaxStable() == temporal.MinTime {
			continue
		}
		checked++
		got := temporal.MustReconstitute(snap.Snapshot())
		want := temporal.MustReconstitute(ref.Snapshot())
		if !got.Equal(want) {
			t.Fatalf("snapshot union diverges at stable %v:\n got %v\nwant %v",
				pm.MaxStable(), got, want)
		}
	}
	if checked == 0 {
		t.Fatal("no snapshot checkpoints exercised")
	}
}

func TestPartitionedR4Multiset(t *testing.T) {
	streams, want := testWorkload(t, 0.3)
	order := interleave(streams, 21)
	var parted temporal.Stream
	pm := New(core.CaseR4, 3, func(e temporal.Element) { parted = append(parted, e) })
	drive(t, pm, streams, order, nil)
	if got := temporal.MustReconstitute(parted); !got.Equal(want) {
		t.Fatal("partitioned R4 TDB differs from script TDB")
	}
}

func TestSnapshotCapabilityMirrorsPartitions(t *testing.T) {
	if _, ok := New(core.CaseR0, 2, nil).(core.Snapshotter); ok {
		t.Fatal("partitioned R0 must not advertise Snapshotter")
	}
	for _, c := range []core.Case{core.CaseR3, core.CaseR4} {
		if _, ok := New(c, 2, nil).(core.Snapshotter); !ok {
			t.Fatalf("partitioned %v must advertise Snapshotter", c)
		}
	}
}

func TestPartitionedDetachReleasesState(t *testing.T) {
	pm := New(core.CaseR3, 3, nil)
	for s := 0; s < 2; s++ {
		pm.Attach(s)
	}
	for i := int64(0); i < 50; i++ {
		e := temporal.Insert(temporal.P(i), temporal.Time(i), temporal.Time(i+10))
		if err := pm.Process(0, e); err != nil {
			t.Fatal(err)
		}
	}
	before := pm.SizeBytes()
	pm.Detach(0)
	// Stream 1 never vouched for stream 0's events; the detach retires them
	// in every partition.
	if after := pm.SizeBytes(); after >= before {
		t.Fatalf("SizeBytes after detach = %d, want < %d", after, before)
	}
}
