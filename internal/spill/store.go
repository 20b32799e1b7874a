// Package spill bounds a merger's resident state by moving frozen, inert
// index nodes out of core: a watermark controller extracts FrozenSlices
// (internal/core) when SizeBytes exceeds a budget, writes them as sorted
// CRC-framed runs (internal/durable run format — the same serialized stream
// form the checkpoints write), and re-admits them on the rare events that
// could still interact with them. A background goroutine compacts runs with
// arity-capped hierarchical merges, bLSM/TPIE style, garbage-collecting
// frames whose whole lifetime has frozen.
package spill

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"lmerge/internal/core"
	"lmerge/internal/durable"
	"lmerge/internal/index"
	"lmerge/internal/obs"
	"lmerge/internal/temporal"
)

// blobStore abstracts run-byte storage so the differential oracle can sweep
// the spill axis hermetically in memory while the server spills to disk.
type blobStore interface {
	write(name string, m durable.RunMeta, payload []byte) error
	read(name string) (durable.RunMeta, []byte, error)
	remove(name string)
	close()
}

// diskBlobs stores runs as files under one directory, which it owns: the
// directory is wiped at open (runs are crash-disposable — checkpoints
// subsume their content via Snapshot) and removed at close.
type diskBlobs struct{ dir string }

func newDiskBlobs(dir string) (*diskBlobs, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &diskBlobs{dir: dir}, nil
}

func (d *diskBlobs) write(name string, m durable.RunMeta, payload []byte) error {
	return durable.WriteRunFile(filepath.Join(d.dir, name), m, payload)
}

func (d *diskBlobs) read(name string) (durable.RunMeta, []byte, error) {
	return durable.ReadRunFile(filepath.Join(d.dir, name))
}

func (d *diskBlobs) remove(name string) { os.Remove(filepath.Join(d.dir, name)) }

func (d *diskBlobs) close() { os.RemoveAll(d.dir) }

// memBlobs keeps encoded runs in a map, still round-tripping through the
// durable run codec so the framing layer is exercised identically.
type memBlobs struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemBlobs() *memBlobs { return &memBlobs{m: make(map[string][]byte)} }

func (b *memBlobs) write(name string, m durable.RunMeta, payload []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[name] = durable.EncodeRun(m, payload)
	return nil
}

func (b *memBlobs) read(name string) (durable.RunMeta, []byte, error) {
	b.mu.Lock()
	data, ok := b.m[name]
	b.mu.Unlock()
	if !ok {
		return durable.RunMeta{}, nil, fmt.Errorf("spill: run %s: %w", name, os.ErrNotExist)
	}
	return durable.DecodeRun(data)
}

func (b *memBlobs) remove(name string) {
	b.mu.Lock()
	delete(b.m, name)
	b.mu.Unlock()
}

func (b *memBlobs) close() {
	b.mu.Lock()
	b.m = map[string][]byte{}
	b.mu.Unlock()
}

// fingerprint hashes (Vs, Payload.ID, Payload.Data) fnv-1a style, a 64-bit
// word per step: the resident fingerprint of one spilled key. A hit is only
// a hint — the run is decoded to confirm the key before any skip/unspill
// decision, so collisions cost a read, never correctness. Fingerprints never
// leave memory, so the function may change between builds.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func mix(h, v uint64) uint64 {
	h = (h ^ v) * fnvPrime64
	return h ^ h>>32 // multiplying only carries upward; fold the top back down
}

func fingerprint(vs temporal.Time, p temporal.Payload) uint64 {
	d := p.Data
	h := mix(mix(mix(fnvOffset64, uint64(vs)), uint64(p.ID)), uint64(len(d)))
	for ; len(d) >= 8; d = d[8:] {
		h = mix(h, uint64(d[0])|uint64(d[1])<<8|uint64(d[2])<<16|uint64(d[3])<<24|
			uint64(d[4])<<32|uint64(d[5])<<40|uint64(d[6])<<48|uint64(d[7])<<56)
	}
	var tail uint64
	for i := 0; i < len(d); i++ {
		tail |= uint64(d[i]) << (8 * i)
	}
	return mix(h, tail)
}

// runOverheadBytes approximates one run descriptor's resident cost beyond
// its fingerprint array.
const runOverheadBytes = 112

// run is the resident descriptor of one out-of-core batch. Descriptors are
// immutable once published: member-set changes (Detach) and merges replace
// them with fresh ones, so pointer identity doubles as a generation check
// for the background merger's commit validation.
type run struct {
	name         string
	members      []core.StreamID // sorted
	clock        temporal.Time
	minVs, maxVs temporal.Time
	frames       int
	bytes        int      // encoded payload size
	hashes       []uint64 // sorted key fingerprints
}

func (r *run) hasMember(s core.StreamID) bool {
	i := sort.SearchInts(r.members, s)
	return i < len(r.members) && r.members[i] == s
}

func (r *run) mayContain(vs temporal.Time, h uint64) bool {
	if vs < r.minVs || vs > r.maxVs {
		return false
	}
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	return i < len(r.hashes) && r.hashes[i] == h
}

func (r *run) overhead() int { return runOverheadBytes + 8*len(r.hashes) }

func memberKey(members []core.StreamID) string { return fmt.Sprint(members) }

// store is the manifest of live runs. All manifest access is under mu; blob
// reads happen outside it (blob stores synchronize themselves and the
// background merger tolerates reads of just-removed runs by aborting).
type store struct {
	blobs blobStore
	tel   *obs.Spill

	mu     sync.Mutex
	runs   []*run
	seq    uint64
	frames int // total frames across runs

	// fence is the largest maxVs over the published runs (MinTime when there
	// are none) and overhead the sum of their overhead(): mirrors of the
	// manifest the merge path reads per element without taking mu. Only the
	// merge path raises fence (add); the background merger can only lower it
	// by dropping dead frames, so a stale read errs toward the slow path.
	fence    atomic.Int64
	overhead atomic.Int64
}

func newStore(blobs blobStore, tel *obs.Spill) *store {
	st := &store{blobs: blobs, tel: tel}
	st.fence.Store(int64(temporal.MinTime))
	return st
}

// nextName reserves a fresh run file name.
func (st *store) nextName() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	return fmt.Sprintf("run-%08d.lmrun", st.seq)
}

// refreshLocked recomputes the fence, overhead and frame totals after a
// manifest change; callers hold mu.
func (st *store) refreshLocked(dFrames, dRuns int64) {
	fence, overhead := temporal.MinTime, 0
	st.frames = 0
	for _, r := range st.runs {
		fence = temporal.MaxT(fence, r.maxVs)
		overhead += r.overhead()
		st.frames += r.frames
	}
	st.fence.Store(int64(fence))
	st.overhead.Store(int64(overhead))
	st.tel.AddResident(0, dFrames, dRuns)
}

// add publishes a freshly written run.
func (st *store) add(r *run) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.runs = append(st.runs, r)
	st.refreshLocked(int64(r.frames), 1)
}

// take claims r: it is removed from the manifest iff still published.
// A false return means a concurrent merge replaced it — retry the lookup.
func (st *store) take(r *run) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, x := range st.runs {
		if x == r {
			st.runs = append(st.runs[:i], st.runs[i+1:]...)
			st.refreshLocked(-int64(r.frames), -1)
			return true
		}
	}
	return false
}

// takeWithout claims some run NOT vouched by stream s (nil when none).
func (st *store) takeWithout(s core.StreamID) *run {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, r := range st.runs {
		if !r.hasMember(s) {
			st.runs = append(st.runs[:i], st.runs[i+1:]...)
			st.refreshLocked(-int64(r.frames), -1)
			return r
		}
	}
	return nil
}

// takeAny claims an arbitrary run (nil when the store is empty).
func (st *store) takeAny() *run {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.runs) == 0 {
		return nil
	}
	r := st.runs[len(st.runs)-1]
	st.runs = st.runs[:len(st.runs)-1]
	st.refreshLocked(-int64(r.frames), -1)
	return r
}

// dropMember rewrites every run vouched by s to exclude it (fresh
// descriptors, invalidating in-flight merges over the old ones). Runs may
// end up with empty member sets; they stay spilled — their frames are
// exactly the half-frozen zero-voucher nodes a resident Detach would keep
// for the next sweep to retire — and the next foreign stable unspills them.
func (st *store) dropMember(s core.StreamID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, r := range st.runs {
		if !r.hasMember(s) {
			continue
		}
		nr := *r
		nr.members = make([]core.StreamID, 0, len(r.members)-1)
		for _, m := range r.members {
			if m != s {
				nr.members = append(nr.members, m)
			}
		}
		st.runs[i] = &nr
	}
}

// candidates returns the published runs that may contain (vs, h).
func (st *store) candidates(vs temporal.Time, h uint64) []*run {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []*run
	for _, r := range st.runs {
		if r.mayContain(vs, h) {
			out = append(out, r)
		}
	}
	return out
}

// all returns a snapshot of the published runs.
func (st *store) all() []*run {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]*run(nil), st.runs...)
}

// mergeGroup returns up to arity runs sharing one member set, oldest first,
// when at least arity such runs exist (nil otherwise). The runs stay
// published — the merge claims them only at commit, via replace.
func (st *store) mergeGroup(arity int) []*run {
	st.mu.Lock()
	defer st.mu.Unlock()
	groups := make(map[string][]*run)
	for _, r := range st.runs {
		k := memberKey(r.members)
		groups[k] = append(groups[k], r)
		if len(groups[k]) == arity {
			return append([]*run(nil), groups[k]...)
		}
	}
	return nil
}

// replace atomically swaps the input runs for the merged output (merged may
// be nil when every frame was garbage-collected). It fails — and the caller
// discards its output — if any input is no longer published, meaning a
// foreground unspill or Detach invalidated the merge.
func (st *store) replace(ins []*run, merged *run) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	idx := make(map[*run]bool, len(ins))
	for _, r := range ins {
		idx[r] = true
	}
	found := 0
	for _, r := range st.runs {
		if idx[r] {
			found++
		}
	}
	if found != len(ins) {
		return false
	}
	kept := st.runs[:0]
	dFrames, dRuns := int64(0), int64(0)
	for _, r := range st.runs {
		if idx[r] {
			dFrames -= int64(r.frames)
			dRuns--
			continue
		}
		kept = append(kept, r)
	}
	st.runs = kept
	if merged != nil {
		st.runs = append(st.runs, merged)
		dFrames += int64(merged.frames)
		dRuns++
	}
	st.refreshLocked(dFrames, dRuns)
	return true
}

// overheadBytes is the resident cost of the manifest (fingerprints and
// descriptors) — the part of the spill layer that still counts against the
// budget.
func (st *store) overheadBytes() int { return int(st.overhead.Load()) }

// stats returns the published run and frame counts.
func (st *store) stats() (runs, frames int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.runs), st.frames
}

func (st *store) close() {
	st.mu.Lock()
	st.runs = nil
	st.mu.Unlock()
	st.blobs.close()
}

// encodeFrames serialises frames as the checkpoint stream form: one insert
// element per occurrence, (Vs, Payload) ascending, Ve ascending within a
// frame.
func encodeFrames(frames []core.FrozenFrame) []byte {
	var buf []byte
	for _, fr := range frames {
		for _, vc := range fr.Ves {
			for i := 0; i < vc.Count; i++ {
				buf = core.AppendElement(buf, temporal.Insert(fr.Payload, fr.Vs, vc.Ve))
			}
		}
	}
	return buf
}

// decodeFrames parses a run payload back into frames, regrouping the
// occurrence inserts by (Vs, Payload).
func decodeFrames(payload []byte) ([]core.FrozenFrame, error) {
	s, err := core.DecodeStream(payload)
	if err != nil {
		return nil, err
	}
	var frames []core.FrozenFrame
	for _, e := range s {
		if e.Kind != temporal.KindInsert {
			return nil, fmt.Errorf("spill: run payload holds a %v element", e.Kind)
		}
		if n := len(frames); n > 0 && frames[n-1].Vs == e.Vs && frames[n-1].Payload == e.Payload {
			fr := &frames[n-1]
			if m := len(fr.Ves); fr.Ves[m-1].Ve == e.Ve {
				fr.Ves[m-1].Count++
			} else {
				fr.Ves = append(fr.Ves, index.VeCount{Ve: e.Ve, Count: 1})
			}
			continue
		}
		frames = append(frames, core.FrozenFrame{
			Vs: e.Vs, Payload: e.Payload,
			Ves: []index.VeCount{{Ve: e.Ve, Count: 1}},
		})
	}
	return frames, nil
}

// findFrame locates the frame for (vs, p) in an ascending frame slice.
func findFrame(frames []core.FrozenFrame, vs temporal.Time, p temporal.Payload) (core.FrozenFrame, bool) {
	k := temporal.VsPayload{Vs: vs, Payload: p}
	i := sort.Search(len(frames), func(i int) bool {
		return temporal.VsPayload{Vs: frames[i].Vs, Payload: frames[i].Payload}.Compare(k) >= 0
	})
	if i < len(frames) && frames[i].Vs == vs && frames[i].Payload == p {
		return frames[i], true
	}
	return core.FrozenFrame{}, false
}
