package spill

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lmerge/internal/core"
	"lmerge/internal/durable"
	"lmerge/internal/obs"
	"lmerge/internal/temporal"
)

// Config tunes one spill-wrapped merger.
type Config struct {
	// Budget is the resident high watermark in SizeBytes units. The
	// controller checks it after every element (SizeBytes is a field read)
	// and spills down to 3/4 of it when resident bytes exceed it.
	// Non-positive disables spilling (pass-through).
	Budget int
	// Dir is the run directory, owned (wiped at Wrap, removed at Close) by
	// this merger. Empty keeps runs in memory — used by the differential
	// oracle, which still round-trips every run through the durable codec.
	Dir string
	// Arity is the background merger's fan-in: member-set groups reaching
	// this many runs are compacted into one. Default 4.
	Arity int
	// Tel receives spill telemetry; nil is fine, and one Tel may be shared
	// across workers (gauges are maintained by delta).
	Tel *obs.Spill
}

// Capable reports whether m supports spill wrapping: it must expose the
// frozen-extraction face and be handoff-capable (the InsertFullyFrozen R3
// policy is excluded for the same data-dependent-clock reason it cannot
// donate state to a partition peer).
func Capable(m core.Merger) bool {
	fx, ok := m.(core.FrozenExtractor)
	return ok && fx.HandoffCapable()
}

// Merger bounds an inner R3/R4 merger's resident state. It implements
// core.Merger, core.Snapshotter, core.Handoff, and core.Observable; the
// engine's single-goroutine Process contract carries over, with only the
// background run compactor running concurrently (it touches the run
// manifest and blobs, never the inner merger).
//
// Correctness rests on the inertness contract of core.ExtractFrozen: a
// spilled frame is unanimously agreed state below the stable frontier, so
// the only events that can still interact with it are (a) re-presentations
// of its own key — detected by resident fingerprints and either absorbed
// (exact agreement, R3) or re-admitted first; (b) a stable raised by a
// stream OUTSIDE the run's member set, whose absent-treatment sweep must
// see the frames — every such run is re-admitted before the stable is
// forwarded; (c) Snapshot/ExtractKeys, which replay runs through the same
// fold path checkpoints use.
type Merger struct {
	inner core.FrozenExtractor
	cfg   Config
	st    *store
	isR3  bool

	// floor is the inner stable frontier, mirrored atomically for the
	// background merger's frame GC (a stale floor is merely conservative).
	floor atomic.Int64

	// heldStable and heldBytes are the retry gate: the inner frontier and
	// the resident size after the last spill attempt that left the merger
	// over budget (everything else resident was hot). See maybeSpill.
	heldStable temporal.Time
	heldBytes  int

	lastBytes int64 // last resident-bytes gauge contribution reported

	kick   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// Wrap builds a spill-bounded view of m. The error names the capability gap
// when m cannot spill (not R3/R4, or a holdback policy).
func Wrap(m core.Merger, cfg Config) (*Merger, error) {
	fx, ok := m.(core.FrozenExtractor)
	if !ok {
		return nil, fmt.Errorf("spill: %v merger does not support frozen extraction", m.Case())
	}
	if !fx.HandoffCapable() {
		return nil, fmt.Errorf("spill: %v merger policy is not handoff-capable", m.Case())
	}
	if cfg.Arity < 2 {
		cfg.Arity = 4
	}
	var blobs blobStore
	if cfg.Dir == "" {
		blobs = newMemBlobs()
	} else {
		var err error
		if blobs, err = newDiskBlobs(cfg.Dir); err != nil {
			return nil, fmt.Errorf("spill: run dir: %w", err)
		}
	}
	w := &Merger{
		inner: fx,
		cfg:   cfg,
		st:    newStore(blobs, cfg.Tel),
		isR3:  m.Case() == core.CaseR3,
		kick:  make(chan struct{}, 1),

		heldStable: temporal.MinTime,
	}
	w.floor.Store(int64(temporal.MinTime))
	w.wg.Add(1)
	go w.mergeLoop()
	return w, nil
}

// Close stops the background merger and releases the run storage. Safe to
// call more than once.
func (w *Merger) Close() {
	if w.closed.Swap(true) {
		return
	}
	close(w.kick)
	w.wg.Wait()
	runs, frames := w.st.stats()
	w.st.close()
	w.cfg.Tel.AddResident(-w.lastBytes, -int64(frames), -int64(runs))
	w.lastBytes = 0
}

// Case implements core.Merger.
func (w *Merger) Case() core.Case { return w.inner.Case() }

// Attach implements core.Merger.
func (w *Merger) Attach(s core.StreamID) { w.inner.Attach(s) }

// Detach implements core.Merger. Runs vouched by s are rewritten without
// it; runs left with no members stay spilled — their frames are exactly the
// half-frozen zero-voucher nodes a resident Detach keeps for the next sweep
// — and the next foreign stable re-admits them.
func (w *Merger) Detach(s core.StreamID) {
	w.st.dropMember(s)
	w.inner.Detach(s)
}

// MaxStable implements core.Merger.
func (w *Merger) MaxStable() temporal.Time { return w.inner.MaxStable() }

// Stats implements core.Merger.
func (w *Merger) Stats() *core.Stats { return w.inner.Stats() }

// SizeBytes implements core.Merger: the inner resident footprint plus the
// manifest overhead (descriptors and fingerprints) — the budget bounds the
// sum.
func (w *Merger) SizeBytes() int { return w.inner.SizeBytes() + w.st.overheadBytes() }

// Live returns resident live nodes plus out-of-core frames.
func (w *Merger) Live() int {
	type liver interface{ Live() int }
	n := 0
	if lv, ok := w.inner.(liver); ok {
		n = lv.Live()
	}
	_, frames := w.st.stats()
	return n + frames
}

// Observe implements core.Observable, forwarding to the inner merger.
func (w *Merger) Observe(n *obs.Node) {
	if o, ok := w.inner.(core.Observable); ok {
		o.Observe(n)
	}
}

// Process implements core.Merger. Stables that would advance the frontier
// first re-admit every run not vouched by the raising stream (the sweep's
// absent-treatment must see those frames); inserts and adjusts consult the
// run fingerprints and either skip (provable no-op), re-admit, or fall
// through.
func (w *Merger) Process(s core.StreamID, e temporal.Element) error {
	if e.Kind == temporal.KindStable {
		if e.T() > w.inner.MaxStable() {
			if err := w.unspillForStable(s); err != nil {
				return err
			}
		}
		err := w.inner.Process(s, e)
		w.floor.Store(int64(w.inner.MaxStable()))
		w.maybeSpill()
		w.reportBytes()
		return err
	}
	if e.Kind == temporal.KindInsert || e.Kind == temporal.KindAdjust {
		skip, err := w.consult(s, e)
		if err != nil {
			return err
		}
		if skip {
			return nil
		}
	}
	err := w.inner.Process(s, e)
	w.maybeSpill()
	return err
}

// consult resolves e against the out-of-core state. A fingerprint hit is
// confirmed by decoding the run (collisions cost a read, never
// correctness); a confirmed key is skipped only in the R3 single-Ve case
// where the inner merger's action would provably be a no-op SetVe — the
// stream is a run member and re-presents the agreed end time. Anything else
// re-admits the run and lets the inner merger proceed normally.
func (w *Merger) consult(s core.StreamID, e temporal.Element) (bool, error) {
	// No run reaches e.Vs — in particular, nothing is out of core at all
	// (the fence then sits at MinTime): no hashing, locking or allocation.
	if int64(e.Vs) > w.st.fence.Load() {
		return false, nil
	}
retry:
	h := fingerprint(e.Vs, e.Payload)
	for _, r := range w.st.candidates(e.Vs, h) {
		frames, err := w.readRun(r)
		if err != nil {
			if !w.st.take(r) {
				goto retry // merged away underneath the failed read
			}
			return false, err
		}
		fr, found := findFrame(frames, e.Vs, e.Payload)
		if !found {
			continue // fingerprint collision
		}
		if w.isR3 && r.hasMember(s) &&
			len(fr.Ves) == 1 && fr.Ves[0].Count == 1 && fr.Ves[0].Ve == e.Ve {
			return true, nil // re-presentation of the agreed lifetime: no-op
		}
		if !w.st.take(r) {
			goto retry // a background merge moved the key; find it again
		}
		w.install(r, frames)
		return false, nil
	}
	return false, nil
}

// unspillForStable re-admits every run not vouched by raising stream s.
func (w *Merger) unspillForStable(s core.StreamID) error {
	for {
		r := w.st.takeWithout(s)
		if r == nil {
			return nil
		}
		frames, err := w.readRun(r)
		if err != nil {
			return err
		}
		w.install(r, frames)
	}
}

// unspillAll drains the store back into resident state (state handoff needs
// every node present).
func (w *Merger) unspillAll() error {
	for {
		r := w.st.takeAny()
		if r == nil {
			return nil
		}
		frames, err := w.readRun(r)
		if err != nil {
			return err
		}
		w.install(r, frames)
	}
}

// readRun fetches and decodes one run, recording replay latency.
func (w *Merger) readRun(r *run) ([]core.FrozenFrame, error) {
	start := time.Now()
	_, payload, err := w.st.blobs.read(r.name)
	if err != nil {
		return nil, err
	}
	frames, err := decodeFrames(payload)
	if err != nil {
		return nil, fmt.Errorf("spill: run %s: %w", r.name, err)
	}
	w.cfg.Tel.ReplayDone(time.Since(start).Nanoseconds())
	return frames, nil
}

// install re-admits a claimed run's frames and deletes its blob.
func (w *Merger) install(r *run, frames []core.FrozenFrame) {
	w.inner.InstallFrozen(core.FrozenSlice{Clock: r.clock, Members: r.members, Frames: frames})
	w.st.blobs.remove(r.name)
	w.cfg.Tel.Unspilled()
}

// maybeSpill is the watermark controller, run after every element: SizeBytes
// is a field read plus an atomic load, so under a budget that does not bind
// it costs one compare. Above the budget it extracts frozen state down to
// the low watermark.
//
// An attempt that leaves the merger over budget found everything else
// resident hot (or could not write the run), and extraction scans the whole
// frozen-started prefix, so it is not repeated per element: the next attempt
// waits until the stable frontier advances — the event that freezes state —
// or resident bytes grow by another watermark gap.
func (w *Merger) maybeSpill() {
	if w.cfg.Budget <= 0 {
		return
	}
	size := w.SizeBytes()
	if size <= w.cfg.Budget ||
		(w.inner.MaxStable() <= w.heldStable && size-w.heldBytes < w.watermarkGap()) {
		return
	}
	w.spillDown(size)
	if size = w.SizeBytes(); size > w.cfg.Budget {
		w.heldStable, w.heldBytes = w.inner.MaxStable(), size
	}
	w.reportBytes()
}

// watermarkGap is the distance between the high watermark (the budget) and
// the low one spills aim for.
func (w *Merger) watermarkGap() int { return w.cfg.Budget / 4 }

// spillDown extracts one frozen slice targeting the low watermark and
// publishes it as a run.
func (w *Merger) spillDown(size int) {
	low := w.cfg.Budget - w.watermarkGap()
	fs, ok := w.inner.ExtractFrozen(size - low)
	if !ok {
		return // everything resident is hot; nothing to do
	}
	payload := encodeFrames(fs.Frames)
	meta := durable.RunMeta{
		Clock:   fs.Clock,
		Members: fs.Members,
		Frames:  len(fs.Frames),
		MinVs:   fs.Frames[0].Vs,
		MaxVs:   fs.Frames[len(fs.Frames)-1].Vs,
	}
	name := w.st.nextName()
	if err := w.st.blobs.write(name, meta, payload); err != nil {
		// Run storage failed (disk full?): keep the state resident — the
		// budget goes soft but nothing is lost.
		w.inner.InstallFrozen(fs)
		return
	}
	hashes := make([]uint64, len(fs.Frames))
	for i, fr := range fs.Frames {
		hashes[i] = fingerprint(fr.Vs, fr.Payload)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	r := &run{
		name: name, members: fs.Members, clock: fs.Clock,
		minVs: meta.MinVs, maxVs: meta.MaxVs,
		frames: len(fs.Frames), bytes: len(payload), hashes: hashes,
	}
	w.st.add(r)
	w.cfg.Tel.RunWritten(int64(len(fs.Frames)), int64(len(payload)))
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// reportBytes maintains this merger's contribution to the shared
// resident-bytes gauge by delta. The gauge is shared across partition
// workers, so it is refreshed at stables and spill attempts, not per element.
func (w *Merger) reportBytes() {
	if w.cfg.Tel == nil || w.cfg.Budget <= 0 {
		return
	}
	size := int64(w.SizeBytes())
	w.cfg.Tel.AddResident(size-w.lastBytes, 0, 0)
	w.lastBytes = size
}

// Snapshot implements core.Snapshotter: spilled live frames replayed as
// inserts, composed with the inner snapshot (which contributes the closing
// stable). Reconstitute folds are order-insensitive over inserts, so the
// concatenation is a valid checkpoint stream.
func (w *Merger) Snapshot() temporal.Stream {
	ms := w.inner.MaxStable()
	// A concurrent merge commit can delete an input blob between our
	// manifest snapshot and the read; retrying re-fetches the manifest,
	// which then lists the merged output instead. Merges strictly shrink
	// the run count, so the loop terminates; the attempt cap only guards
	// against a genuinely unreadable blob.
	for attempt := 0; ; attempt++ {
		var out temporal.Stream
		ok := true
		for _, r := range w.st.all() {
			frames, err := w.readRun(r)
			if err != nil {
				if attempt < 8 {
					ok = false
					break
				}
				continue // unreadable for real; salvage the rest
			}
			for _, fr := range frames {
				for _, vc := range fr.Ves {
					if vc.Ve < ms {
						continue // froze while spilled; not live state
					}
					for i := 0; i < vc.Count; i++ {
						out = append(out, temporal.Insert(fr.Payload, fr.Vs, vc.Ve))
					}
				}
			}
		}
		if ok || attempt >= 8 {
			return append(out, w.inner.Snapshot()...)
		}
	}
}

// HandoffCapable implements core.Handoff.
func (w *Merger) HandoffCapable() bool { return w.inner.HandoffCapable() }

// ExtractKeys implements core.Handoff. The inner walk only sees resident
// nodes, so every run is re-admitted first — otherwise spilled keys would
// be stranded at the donor while routing sends their traffic elsewhere. An
// unreadable run (a damaged or deleted file; in-memory blobs cannot fail)
// aborts the handoff with every resident key still here.
func (w *Merger) ExtractKeys(match func(temporal.Payload) bool) (core.HandoffState, error) {
	if err := w.unspillAll(); err != nil {
		return core.HandoffState{}, fmt.Errorf("spill: re-admitting runs for handoff: %w", err)
	}
	return w.inner.ExtractKeys(match)
}

// InstallKeys implements core.Handoff. Incoming keys are disjoint from our
// runs by the routing contract (all presentations of one key go to one
// partition at a time), so direct delegation is sound.
func (w *Merger) InstallKeys(hs core.HandoffState) { w.inner.InstallKeys(hs) }

// mergeLoop is the background compactor: after each spill it repeatedly
// merges member-set groups that reached the arity cap — TPIE's arity-capped
// hierarchical merge, driven by bLSM's "merge when a level fills" trigger.
func (w *Merger) mergeLoop() {
	defer w.wg.Done()
	for range w.kick {
		for w.mergeOnce() {
		}
	}
}

// mergeOnce compacts one group of arity runs into a single run with dead
// frames garbage-collected. Inputs are read without claiming them; the
// commit (store.replace) validates that all inputs are still published and
// aborts otherwise — a foreground unspill or Detach won the race, and
// retrying immediately would only duplicate its work.
func (w *Merger) mergeOnce() bool {
	ins := w.st.mergeGroup(w.cfg.Arity)
	if ins == nil {
		return false
	}
	var frames []core.FrozenFrame
	maxClock := temporal.MinTime
	for _, r := range ins {
		fs, err := w.readRun(r)
		if err != nil {
			return false // an input vanished mid-read; abort this pass
		}
		frames = append(frames, fs...)
		if r.clock > maxClock {
			maxClock = r.clock
		}
	}
	// Disjoint key sets (a key lives in at most one run), so a plain sort
	// interleaves them.
	sort.Slice(frames, func(i, j int) bool {
		a := temporal.VsPayload{Vs: frames[i].Vs, Payload: frames[i].Payload}
		b := temporal.VsPayload{Vs: frames[j].Vs, Payload: frames[j].Payload}
		return a.Compare(b) < 0
	})
	// GC frames whose whole multiset froze: the resident twin would have
	// been retired by the sweep that froze it. The floor is a point-in-time
	// mirror of the inner frontier; staleness only keeps garbage longer.
	floor := temporal.Time(w.floor.Load())
	kept := frames[:0]
	gc := 0
	for _, fr := range frames {
		if fr.MaxVe() < floor {
			gc++
			continue
		}
		kept = append(kept, fr)
	}
	if len(kept) == 0 {
		if w.st.replace(ins, nil) {
			for _, r := range ins {
				w.st.blobs.remove(r.name)
			}
			w.cfg.Tel.RunsMerged(int64(len(ins)), 0, int64(gc))
		}
		return true
	}
	payload := encodeFrames(kept)
	meta := durable.RunMeta{
		Clock:   maxClock,
		Members: ins[0].members,
		Frames:  len(kept),
		MinVs:   kept[0].Vs,
		MaxVs:   kept[len(kept)-1].Vs,
	}
	name := w.st.nextName()
	if err := w.st.blobs.write(name, meta, payload); err != nil {
		return false
	}
	hashes := make([]uint64, len(kept))
	for i, fr := range kept {
		hashes[i] = fingerprint(fr.Vs, fr.Payload)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	merged := &run{
		name: name, members: ins[0].members, clock: maxClock,
		minVs: meta.MinVs, maxVs: meta.MaxVs,
		frames: len(kept), bytes: len(payload), hashes: hashes,
	}
	if !w.st.replace(ins, merged) {
		w.st.blobs.remove(name)
		return true
	}
	for _, r := range ins {
		w.st.blobs.remove(r.name)
	}
	w.cfg.Tel.RunsMerged(int64(len(ins)), int64(len(payload)), int64(gc))
	return true
}
