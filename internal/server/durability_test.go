package server

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"lmerge/internal/core"
	"lmerge/internal/durable"
	"lmerge/internal/gen"
	"lmerge/internal/partition"
	"lmerge/internal/temporal"
)

// copyDataDir snapshots a live data directory's bytes into a fresh directory
// — the filesystem image a kill -9 would leave (possibly mid-record: the
// recovery path's checksum truncation owns that).
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if os.IsNotExist(err) {
			// The live server renamed a checkpoint temp file or pruned a
			// generation between the listing and the read; an image taken at
			// the later instant simply lacks it.
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func newDurableServer(t *testing.T, dir string, extra func(*Options)) *Server {
	t.Helper()
	opts := Options{Case: core.CaseR3, FeedbackLag: -1, DataDir: dir, CheckpointEvery: 50 * time.Millisecond}
	if extra != nil {
		extra(&opts)
	}
	s, err := NewWithOptions("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestDataDirRequiresSnapshotCase(t *testing.T) {
	_, err := NewWithOptions("127.0.0.1:0", Options{Case: core.CaseR1, DataDir: t.TempDir()})
	if err == nil {
		t.Fatal("R1 (no Snapshotter) accepted -data-dir")
	}
}

func TestCleanRestartFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sc := serverScript(400)
	s := newDurableServer(t, dir, nil)
	p, err := Connect(s.Addr(), temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SendStream(sc.Render(gen.RenderOptions{Seed: 401, Disorder: 0.2, StableFreq: 0.05})); err != nil {
		t.Fatal(err)
	}
	p.Close()
	waitStable(t, s, temporal.Infinity)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// A clean shutdown restarts from the final checkpoint alone.
	s2 := newDurableServer(t, dir, nil)
	if got := s2.MaxStable(); got != temporal.Infinity {
		t.Fatalf("recovered stable = %d, want ∞", int64(got))
	}
	if rec := s2.Durability().Recoveries; rec != 1 {
		t.Fatalf("recoveries = %d, want 1", rec)
	}
	sub, err := Subscribe(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	merged := collect(t, sub)
	got, err := temporal.Reconstitute(merged)
	if err != nil {
		t.Fatalf("recovered backlog invalid: %v", err)
	}
	if !got.Equal(sc.TDB()) {
		t.Fatal("recovered TDB diverged from oracle")
	}
}

func waitStable(t *testing.T, s *Server, want temporal.Time) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.MaxStable() < want {
		if time.Now().After(deadline) {
			t.Fatalf("stable stuck at %d, want %d", int64(s.MaxStable()), int64(want))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// crashRestartCase drives the in-process kill -9 equivalent: deliver a prefix
// mid-stream, snapshot the data directory's raw bytes (the crash image),
// optionally mutilate it, restart from the image, and verify (a) the output
// frontier did not regress past what any subscriber saw, (b) positional FROM
// resume is exact, and (c) full redelivery converges the TDB to the no-crash
// oracle.
func crashRestartCase(t *testing.T, opts func(*Options), corrupt func(t *testing.T, dir string)) {
	dir := t.TempDir()
	sc := serverScript(500)
	stream := sc.Render(gen.RenderOptions{Seed: 501, Disorder: 0.2, StableFreq: 0.05})
	s := newDurableServer(t, dir, opts)

	sub, err := Subscribe(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Connect(s.Addr(), temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver only a prefix — the crash happens mid-stream, before stable(∞).
	cut := len(stream) / 2
	if err := p.SendStream(stream[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// The prefix's own largest stable must surface in the merged output; once
	// it does, read the subscriber up to it. Everything the subscriber holds
	// is, by write-ahead, already in the WAL.
	target := temporal.MinTime
	for _, e := range stream[:cut] {
		if e.Kind == temporal.KindStable {
			target = temporal.MaxT(target, e.T())
		}
	}
	if target == temporal.MinTime {
		t.Fatal("prefix carries no stable; test is vacuous")
	}
	waitStable(t, s, target)
	var prefix temporal.Stream
	seenStable := temporal.MinTime
	for {
		e, ok := sub.Next()
		if !ok {
			t.Fatal("subscriber dropped before the crash point")
		}
		prefix = append(prefix, e)
		if e.Kind == temporal.KindStable {
			seenStable = temporal.MaxT(seenStable, e.T())
			if seenStable >= target {
				break
			}
		}
	}
	sub.Close()

	// The crash image: raw bytes of the data dir at this instant.
	img := copyDataDir(t, dir)
	p.Close()
	s.Close()
	if corrupt != nil {
		corrupt(t, img)
	}

	s2 := newDurableServer(t, img, opts)
	// Satellite: the recovered frontier must not regress past anything a
	// subscriber observed before the crash.
	if got := s2.MaxStable(); got < seenStable {
		t.Fatalf("frontier regressed: recovered %d < delivered stable %d", int64(got), int64(seenStable))
	}
	// Positional resume: FROM len(prefix) must splice exactly.
	resumed, err := subscribeVia(nil, s2.Addr(), len(prefix), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()

	// Redeliver the full stream (resilient-publisher semantics: replay from
	// the top, duplicates absorbed) and finish it.
	p2, err := Connect(s2.Addr(), temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.SendStream(stream); err != nil {
		t.Fatal(err)
	}
	waitStable(t, s2, temporal.Infinity)

	rest := collect(t, resumed)
	combined := append(append(temporal.Stream{}, prefix...), rest...)
	got, err := temporal.Reconstitute(combined)
	if err != nil {
		t.Fatalf("prefix+resume stream invalid: %v", err)
	}
	if !got.Equal(sc.TDB()) {
		t.Fatal("post-recovery TDB diverged from no-crash oracle")
	}
}

func TestCrashRestartMidStream(t *testing.T) {
	crashRestartCase(t, nil, nil)
}

func TestCrashRestartMidStreamPartitioned(t *testing.T) {
	crashRestartCase(t, func(o *Options) {
		o.Partitions = 3
		o.Rebalance = &partition.RebalanceConfig{}
	}, nil)
}

func TestCrashRestartTornFinalRecord(t *testing.T) {
	crashRestartCase(t, nil, func(t *testing.T, dir string) {
		tearNewestWAL(t, dir, 3)
	})
}

func TestCrashRestartPartialCheckpoint(t *testing.T) {
	crashRestartCase(t, nil, func(t *testing.T, dir string) {
		corruptNewestCheckpoint(t, dir)
	})
}

// newestWAL returns the path of dir's newest WAL generation.
func newestWAL(t *testing.T, dir string) string {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "wal-*.lmwal"))
	if len(paths) == 0 {
		t.Fatal("no WAL in " + dir)
	}
	return paths[len(paths)-1]
}

// appendTornRecord leaves a strict prefix of one well-formed record frame
// after the newest WAL's last record: the image of a crash during an append.
func appendTornRecord(t *testing.T, dir string) {
	t.Helper()
	frame := durable.AppendRecord(nil, durable.Record{Kind: durable.RecEmit, Els: temporal.Stream{temporal.Stable(1)}})
	f, err := os.OpenFile(newestWAL(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(frame[:len(frame)-2]); err != nil {
		t.Fatal(err)
	}
}

// tearNewestWAL chops n bytes off the newest WAL generation — a final record
// lost to the crash (power loss without -fsync).
func tearNewestWAL(t *testing.T, dir string, n int) {
	t.Helper()
	path := newestWAL(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < n {
		n = len(data)
	}
	if err := os.WriteFile(path, data[:len(data)-n], 0o644); err != nil {
		t.Fatal(err)
	}
}

// corruptNewestCheckpoint flips bytes in the newest checkpoint so recovery
// must fall back to the previous generation (or to WAL-only replay).
func corruptNewestCheckpoint(t *testing.T, dir string) {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.lmck"))
	if len(paths) == 0 {
		return // crash image predates the first checkpoint: WAL-only replay
	}
	path := paths[len(paths)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data); i += 7 {
		data[i] ^= '#'
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALFailureStopsMergeAndDelivery: once a WAL append fails (here the
// log file is closed under the server mid-stream), the failure is sticky —
// nothing the WAL did not take is merged, acknowledged or delivered, new
// publishers are refused, no checkpoint is written, and the durability
// telemetry carries the error.
func TestWALFailureStopsMergeAndDelivery(t *testing.T) {
	dir := t.TempDir()
	s := newDurableServer(t, dir, func(o *Options) { o.CheckpointEvery = time.Hour })
	sub, err := Subscribe(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	received := make(chan int, 1)
	go func() {
		n := 0
		for {
			if _, ok := sub.Next(); !ok {
				break
			}
			n++
		}
		received <- n
	}()

	sc := serverScript(700)
	stream := sc.Render(gen.RenderOptions{Seed: 701, Disorder: 0.2, StableFreq: 0.05})
	p, err := Connect(s.Addr(), temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cut := len(stream) / 2
	target := temporal.MinTime
	for _, e := range stream[:cut] {
		if e.Kind == temporal.KindStable {
			target = temporal.MaxT(target, e.T())
		}
	}
	if target == temporal.MinTime {
		t.Fatal("prefix carries no stable; test is vacuous")
	}
	if err := p.SendStream(stream[:cut]); err != nil {
		t.Fatal(err)
	}
	waitStable(t, s, target)

	s.dur.mu.Lock()
	log := s.dur.log
	s.dur.mu.Unlock()
	log.Close() // every later Append fails with os.ErrInvalid
	// The server may hang up mid-send, so a write error here is expected.
	_ = p.SendStream(stream[cut:])
	select {
	case <-p.Acked():
		t.Fatal("publisher acknowledged a stream whose tail the WAL never took")
	case <-p.sigDone:
		// The server answered the failed batch with ERR and hung up.
	case <-time.After(10 * time.Second):
		t.Fatal("publisher neither refused nor acknowledged")
	}
	if p2, err := Connect(s.Addr(), temporal.MinTime); err == nil {
		p2.Close()
		t.Fatal("new publisher accepted after the WAL failed")
	}
	if msg := s.Durability().WALError; msg == "" {
		t.Fatal("durability snapshot does not report the WAL failure")
	}

	recs, _, err := durable.ReadLog(log.Path())
	if err != nil {
		t.Fatal(err)
	}
	emits := 0
	for _, r := range recs {
		if r.Kind == durable.RecEmit {
			emits++
		}
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close reported no error after the WAL failed")
	}
	if cks, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.lmck")); len(cks) != 0 {
		t.Fatalf("checkpoint written after the WAL failed: %v", cks)
	}
	n := <-received
	if n == 0 {
		t.Fatal("subscriber received nothing before the failure; test is vacuous")
	}
	if n > emits {
		t.Fatalf("subscriber received %d elements, the WAL holds only %d emissions", n, emits)
	}
}

// TestCheckpointPrunesGenerations verifies the retention policy end to end:
// after several checkpoints, old generations are gone but at least two
// checkpoint generations remain for corruption fallback.
func TestCheckpointPrunesGenerations(t *testing.T) {
	dir := t.TempDir()
	s := newDurableServer(t, dir, nil)
	p, err := Connect(s.Addr(), temporal.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sc := serverScript(600)
	if err := p.SendStream(sc.Render(gen.RenderOptions{Seed: 601, Disorder: 0.1, StableFreq: 0.05})); err != nil {
		t.Fatal(err)
	}
	waitStable(t, s, temporal.Infinity)
	for i := 0; i < 4; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	cks, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.lmck"))
	if len(cks) != 2 {
		t.Fatalf("retained %d checkpoints, want 2", len(cks))
	}
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.lmwal"))
	if len(wals) > 3 {
		t.Fatalf("retained %d WAL generations, want <= 3", len(wals))
	}
	if s.Durability().Checkpoints < 4 {
		t.Fatalf("checkpoint counter = %d, want >= 4", s.Durability().Checkpoints)
	}
}
