package core

import (
	"lmerge/internal/index"
	"lmerge/internal/temporal"
)

// Handoff is the state-migration face of a merger: the paper's jumpstart /
// cutover machinery (Sec. II-4/5) applied internally, between partition
// instances of one keyed scale-out merge. Where Snapshot serialises live
// state as a stream for an *external* restart, Handoff moves the index nodes
// themselves — every per-stream entry intact — so a recipient instance
// continues exactly where the donor stopped, with no re-emission and no loss
// of vouching information.
//
// Contract (enforced by internal/partition's migration protocol):
//
//   - Key disjointness: the moved keys must be absent from the recipient's
//     index (hash routing guarantees this — all presentations of one key go
//     to one partition at a time).
//   - Clock ordering: the recipient's output stable point must not exceed
//     the donor's at install time. Unemitted donor nodes always satisfy
//     Vs >= donor stable, so under this ordering every deferred emission the
//     recipient later makes stays legal against its own output stream.
//   - Stable idempotence: the recipient may re-sweep stable points the donor
//     already processed over the transplanted nodes; reconciliation is
//     state-based, so a re-sweep is a no-op.
type Handoff interface {
	// HandoffCapable reports whether the merger's policy point supports
	// state handoff. The InsertFullyFrozen policy does not: its output
	// stable point is held back to a data-dependent key, so donor and
	// recipient clocks can differ even after both merged the same stables.
	HandoffCapable() bool
	// ExtractKeys removes and returns every live node whose payload matches,
	// together with the donor's output stable point at extraction. On error
	// nothing was removed: a donor that cannot reach all of its state (the
	// spill tier with an unreadable run) must not hand off a partial key set.
	ExtractKeys(match func(temporal.Payload) bool) (HandoffState, error)
	// InstallKeys merges a previously extracted state into this merger. The
	// state must come from a merger of the same algorithm and the moved keys
	// must be absent here.
	InstallKeys(st HandoffState)
}

// HandoffState is an opaque bundle of extracted per-key merge state.
type HandoffState struct {
	// Clock is the donor's output stable point at extraction time.
	Clock temporal.Time
	// Keys is the number of live (Vs, Payload) nodes moved.
	Keys int

	r3 []*index.Node2
	r4 []*index.Node3
}

// HandoffCapable implements Handoff for R3: every policy point except the
// fully-frozen insert holdback (whose output stable point is data-dependent).
func (m *R3) HandoffCapable() bool { return m.opts.Insert != InsertFullyFrozen }

// ExtractKeys implements Handoff for R3: matching nodes are unlinked from the
// two-tier index and handed over whole, second-tier entries included.
func (m *R3) ExtractKeys(match func(temporal.Payload) bool) (HandoffState, error) {
	st := HandoffState{Clock: m.maxStable}
	m.index.Ascend(func(n *index.Node2) bool {
		if match(n.Event().Payload) {
			st.r3 = append(st.r3, n)
		}
		return true
	})
	for _, n := range st.r3 {
		m.index.DeleteNode(n.Key())
	}
	st.Keys = len(st.r3)
	return st, nil
}

// InstallKeys implements Handoff for R3.
func (m *R3) InstallKeys(st HandoffState) {
	for _, n := range st.r3 {
		m.index.PutNode(n)
	}
}

// HandoffCapable implements Handoff for R4: the multiset merger has no
// holdback policies, so it always qualifies.
func (m *R4) HandoffCapable() bool { return true }

// ExtractKeys implements Handoff for R4: matching nodes are unlinked from the
// three-tier index and handed over whole, per-stream Ve multisets included.
func (m *R4) ExtractKeys(match func(temporal.Payload) bool) (HandoffState, error) {
	st := HandoffState{Clock: m.maxStable}
	m.index.Ascend(func(n *index.Node3) bool {
		if match(n.Event().Payload) {
			st.r4 = append(st.r4, n)
		}
		return true
	})
	for _, n := range st.r4 {
		m.index.DeleteNode(n.Key())
	}
	st.Keys = len(st.r4)
	return st, nil
}

// InstallKeys implements Handoff for R4.
func (m *R4) InstallKeys(st HandoffState) {
	for _, n := range st.r4 {
		m.index.PutNode(n)
	}
}
