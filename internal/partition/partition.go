// Package partition is the keyed scale-out layer over Logical Merge.
//
// LMerge is defined per logical stream and the element algebra (paper
// Sec. III) is key-agnostic, so a keyed stream splits into independent
// logical substreams — one per payload key — each mergeable in isolation.
// This package exploits that: physical streams are hash-partitioned by
// payload key, one full LMerge instance runs per partition, and the
// partition outputs are reunified into a single stream.
//
// Three rules make the composition semantics-preserving (in the spirit of
// DBSP's composability result):
//
//   - Routing: insert and adjust elements go to the partition owning their
//     key's routing slot (slot = hash(Payload) mod Slots; a slot-ownership
//     table maps slots to partitions, initially round-robin). All elements of
//     one (Vs, Payload) key — including revisions and duplicates from other
//     input streams — land on the same partition, so each partition merges
//     mutually consistent presentations of its key-filtered slice of the TDB.
//     Slot ownership can move between partitions mid-stream (see Rebalancer
//     and DESIGN.md §11); at any instant each key still has exactly one owner.
//   - Stable broadcast: stable elements are progress assertions about the
//     whole stream, so they go to every partition. A partition that receives
//     no events still advances its stable point and never holds the global
//     frontier back.
//   - Min-frontier reunification: the reunified output forwards partition
//     inserts/adjusts as they come and emits as its own stable point the
//     minimum across per-partition stable frontiers (tracked in a
//     low-watermark heap, O(log N) per update). Forwarded elements stay
//     legal against the reunified stable point because each partition's
//     frontier is at least the global minimum.
//
// The reunified stream reconstitutes to the same TDB as the unpartitioned
// merge at every output stable point (proven continuously by the diffcheck
// harness's partitioned executor axes). It does not preserve global Vs
// ordering across keys — partition outputs interleave — so the composition
// targets the keyed cases: what comes out is an R3-class stream even when
// the per-partition algorithm is R0–R2.
//
// One policy is excluded from snapshot-capable composition: R3 with
// InsertFullyFrozen holds each partition's stable point back to its own
// earliest unemitted key, so per-partition stable frontiers diverge and a
// partition may retire (and drop from its snapshot) events that are still
// live relative to the smaller global stable point. Stream-level equivalence
// still holds; the union snapshot does not.
package partition

import (
	"fmt"
	"sort"

	"lmerge/internal/core"
	"lmerge/internal/obs"
	"lmerge/internal/temporal"
)

// KeyFunc maps a payload to the hash that routes it to a partition.
type KeyFunc func(temporal.Payload) uint64

// Rebalancer is implemented by partitioned mergers that can move key-range
// (routing-slot) ownership between partitions mid-stream, transplanting
// per-key merge state through core.Handoff — the paper's jumpstart/cutover
// machinery applied internally. Both implementations (the synchronous merger
// and the Sharded pool) honour one contract, and the differential harness
// forces migrations on both.
type Rebalancer interface {
	// MigrateSlot moves routing slot `slot` to partition `to`, reporting
	// whether the slot moved. When it did not — the slot already lives on
	// `to`, the algorithm cannot hand off, or the donor could not extract the
	// slot's keys — ownership and state are exactly as before the call.
	MigrateSlot(slot, to int) bool
	// SlotOwner returns the partition currently owning a routing slot.
	SlotOwner(slot int) int
}

// DefaultKey hashes the payload's integer field with a splitmix64 finaliser.
// Keying on ID alone is deliberately coarser than the (Vs, Payload) TDB key:
// co-locating every payload with the same ID is sufficient for correctness
// (all presentations of one key meet in one partition) and lets skewed ID
// distributions produce the partition imbalance the benchmarks study.
func DefaultKey(p temporal.Payload) uint64 {
	return mix64(uint64(p.ID))
}

// mix64 is the splitmix64 finaliser: a cheap bijective scrambler so that
// adjacent IDs spread across partitions instead of striping.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Option configures a partitioned merger.
type Option func(*options)

type options struct {
	key KeyFunc
}

func applyOptions(opts []Option) options {
	o := options{key: DefaultKey}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithKeyFunc overrides the payload→hash routing function.
func WithKeyFunc(fn KeyFunc) Option {
	return func(o *options) {
		if fn != nil {
			o.key = fn
		}
	}
}

// merger is the synchronous partitioned merger: N sub-mergers behind the
// standard core.Merger interface. It is the deterministic form of the
// subsystem — the public API wrapper and the differential harness's reference
// for Sharded, the concurrent form.
type merger struct {
	subs  []core.Merger
	emit  core.Emit
	key   KeyFunc
	table *routeTable
	front *frontier

	stats     core.Stats
	maxStable temporal.Time
	// tel observes the reunified stream (nil-safe). The "stream" fed to the
	// leadership monitor on output stables is the binding partition index —
	// the partition whose frontier update raised the reunified minimum — so
	// leadership here answers "which partition gates the frontier".
	tel *obs.Node
}

// New builds a partitioned merger running one case-c merger per partition.
func New(c core.Case, parts int, emit core.Emit, opts ...Option) core.Merger {
	return NewWith(parts, func(e core.Emit) core.Merger { return core.New(c, e) }, emit, opts...)
}

// NewWith builds a partitioned merger with mk constructing each partition's
// algorithm around its partition-local emit callback. The result implements
// core.Snapshotter exactly when every sub-merger does (see Snapshot).
func NewWith(parts int, mk func(core.Emit) core.Merger, emit core.Emit, opts ...Option) core.Merger {
	if parts < 1 {
		parts = 1
	}
	o := applyOptions(opts)
	if emit == nil {
		emit = func(temporal.Element) {}
	}
	m := &merger{
		emit:      emit,
		key:       o.key,
		table:     newRouteTable(parts),
		front:     newFrontier(parts),
		maxStable: temporal.MinTime,
	}
	m.subs = make([]core.Merger, parts)
	snaps := true
	for p := range m.subs {
		m.subs[p] = mk(m.partEmit(p))
		if _, ok := m.subs[p].(core.Snapshotter); !ok {
			snaps = false
		}
	}
	if snaps {
		return &snapshotMerger{m}
	}
	return m
}

// partEmit is partition p's output callback: inserts and adjusts are
// forwarded immediately (they are legal against the reunified stable point
// because partition p's frontier is at least the global minimum), while
// partition stables only feed the frontier — the merger's own stable point
// is the frontier minimum.
func (m *merger) partEmit(p int) core.Emit {
	return func(e temporal.Element) {
		switch e.Kind {
		case temporal.KindStable:
			if m.front.Update(p, e.T()) {
				if min := m.front.Min(); min > m.maxStable {
					m.maxStable = min
					m.stats.OutStables++
					m.tel.OutStable(p, min)
					m.emit(temporal.Stable(min))
				}
			}
		case temporal.KindInsert:
			m.stats.OutInserts++
			m.tel.OutInsert()
			m.emit(e)
		case temporal.KindAdjust:
			m.stats.OutAdjusts++
			m.tel.OutAdjust(e.Ve == e.Vs)
			m.emit(e)
		}
	}
}

// Observe implements core.Observable at the reunified level: the wrapper's
// own input/output counters feed n, not the per-partition sub-mergers (which
// would double count broadcast stables).
func (m *merger) Observe(n *obs.Node) { m.tel = n }

// Telemetry returns the attached telemetry node (nil when unobserved).
func (m *merger) Telemetry() *obs.Node { return m.tel }

// Case reports the sub-mergers' restriction case.
func (m *merger) Case() core.Case { return m.subs[0].Case() }

// Partitions returns the partition count.
func (m *merger) Partitions() int { return len(m.subs) }

// Process implements core.Merger: stables are broadcast to every partition,
// inserts and adjusts are routed by key hash.
func (m *merger) Process(s core.StreamID, e temporal.Element) error {
	switch e.Kind {
	case temporal.KindStable:
		m.stats.InStables++
		m.tel.In(s, e.Kind, e.Ve)
		for _, sub := range m.subs {
			if err := sub.Process(s, e); err != nil {
				return err
			}
		}
		return nil
	case temporal.KindInsert:
		m.stats.InInserts++
	case temporal.KindAdjust:
		m.stats.InAdjusts++
	default:
		return fmt.Errorf("partition: unsupported element %v", e)
	}
	m.tel.In(s, e.Kind, e.Ve)
	return m.subs[m.route(e.Payload)].Process(s, e)
}

func (m *merger) route(p temporal.Payload) int {
	return m.table.route(m.key(p))
}

// SlotOwner implements Rebalancer: the partition currently owning slot.
func (m *merger) SlotOwner(slot int) int { return int(m.table.owner[slot]) }

// MigrateSlot implements Rebalancer: it moves ownership of one routing slot
// to partition `to`, transplanting the donor's live state for the slot's
// keys through the core.Handoff surface. It reports whether a migration
// happened; it is a no-op when the slot already lives on `to`, when either
// side does not support handoff, or when the clocks cannot be ordered
// (recipient ahead of donor — impossible here, where every partition sees
// every stable synchronously, but checked for defence in depth).
//
// The synchronous merger has no in-flight elements, so the routing flip and
// the state transplant are one atomic step from the caller's perspective.
func (m *merger) MigrateSlot(slot, to int) bool {
	if slot < 0 || slot >= Slots || to < 0 || to >= len(m.subs) {
		return false
	}
	from := int(m.table.owner[slot])
	if from == to {
		return false
	}
	donor, ok := m.subs[from].(core.Handoff)
	if !ok || !donor.HandoffCapable() {
		return false
	}
	recipient, ok := m.subs[to].(core.Handoff)
	if !ok || !recipient.HandoffCapable() {
		return false
	}
	if m.subs[to].MaxStable() > m.subs[from].MaxStable() {
		return false
	}
	st, err := donor.ExtractKeys(slotMatcher(m.key, slot))
	if err != nil {
		return false // the donor kept every key: the slot stays where it is
	}
	m.table = m.table.clone()
	m.table.owner[slot] = int32(to)
	recipient.InstallKeys(st)
	m.tel.Migrated(from, to, st.Clock, st.Keys)
	return true
}

// Attach fans the registration out to every partition.
func (m *merger) Attach(s core.StreamID) {
	for _, sub := range m.subs {
		sub.Attach(s)
	}
}

// Detach fans the removal out to every partition.
func (m *merger) Detach(s core.StreamID) {
	for _, sub := range m.subs {
		sub.Detach(s)
	}
}

// MaxStable returns the reunified stable point (the frontier minimum).
func (m *merger) MaxStable() temporal.Time { return m.maxStable }

// SizeBytes sums the partition footprints.
func (m *merger) SizeBytes() int {
	n := 0
	for _, sub := range m.subs {
		n += sub.SizeBytes()
	}
	return n
}

// Stats returns the reunified traffic counters. Input and output counts are
// maintained by the wrapper itself (a broadcast stable counts once);
// Dropped and ConsistencyWarnings are refreshed from the partitions on each
// call.
func (m *merger) Stats() *core.Stats {
	var dropped, warns int64
	for _, sub := range m.subs {
		st := sub.Stats()
		dropped += st.Dropped
		warns += st.ConsistencyWarnings
	}
	m.stats.Dropped = dropped
	m.stats.ConsistencyWarnings = warns
	return &m.stats
}

// snapshotMerger is the snapshot-capable face of merger, returned only when
// every partition algorithm implements core.Snapshotter. Keeping it a
// distinct type means a partitioned R0–R2 does not falsely advertise
// snapshot support.
type snapshotMerger struct {
	*merger
}

// Snapshot unions the per-partition snapshots: every partition's live output
// events, re-sorted to the canonical (Vs, Payload) snapshot order and closed
// by the reunified stable point. Partition key-disjointness makes the union
// exact — no event can appear in two partition snapshots.
func (m *snapshotMerger) Snapshot() temporal.Stream {
	var out temporal.Stream
	for _, sub := range m.subs {
		for _, e := range sub.(core.Snapshotter).Snapshot() {
			if e.Kind == temporal.KindInsert {
				out = append(out, e)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if c := out[i].Key().Compare(out[j].Key()); c != 0 {
			return c < 0
		}
		return out[i].Ve < out[j].Ve
	})
	if m.maxStable != temporal.MinTime {
		out = append(out, temporal.Stable(m.maxStable))
	}
	return out
}
