package index

import "lmerge/internal/temporal"

// OutputStream is the distinguished hash-table key the paper writes as ∞: it
// tracks what has been reflected on the LMerge output for a node.
const OutputStream = -1

// In2t is the two-tier index of paper Figure 1 (left), used by Algorithm R3.
// The top tier is a red-black tree keyed by (Vs, Payload); each node carries
// the event (payload stored once, shared across inputs) and a second-tier
// hash table mapping stream id → current Ve on that stream, plus an
// OutputStream entry for the Ve most recently reflected on the output.
type In2t struct {
	tree *Tree[temporal.VsPayload, *Node2]
	// bytes is the running sum of Node2Bytes over the resident nodes, kept
	// current by every mutation so SizeBytes is a field read.
	bytes int
}

// Node2 is one top-tier node of an In2t.
type Node2 struct {
	event temporal.Event
	ve    veTable
	// home is the index holding the node (nil while it is in flight between
	// two indexes): entry changes adjust home's byte total.
	home *In2t
}

// veInline is the number of (stream, Ve) entries a node stores inline before
// spilling to a map. Paper runs use 2–3 inputs plus the output entry, so the
// inline array covers the common case with zero allocation and a scan that
// beats map hashing at these sizes.
const veInline = 8

// veEntry is one (stream id, current Ve) pair.
type veEntry struct {
	s  int
	ve temporal.Time
}

// veTable maps stream id → current Ve. Entries live in a small array sorted
// by stream id; once a node accumulates more than veInline entries they
// spill to an ordinary map (and stay there — spilling is rare and one-way).
type veTable struct {
	n     int
	small [veInline]veEntry
	spill map[int]temporal.Time
}

func (t *veTable) get(s int) (temporal.Time, bool) {
	if t.spill != nil {
		ve, ok := t.spill[s]
		return ve, ok
	}
	for i := 0; i < t.n; i++ {
		if t.small[i].s == s {
			return t.small[i].ve, true
		}
		if t.small[i].s > s {
			break
		}
	}
	return 0, false
}

func (t *veTable) put(s int, ve temporal.Time) {
	if t.spill != nil {
		t.spill[s] = ve
		return
	}
	i := 0
	for ; i < t.n; i++ {
		if t.small[i].s == s {
			t.small[i].ve = ve
			return
		}
		if t.small[i].s > s {
			break
		}
	}
	if t.n == veInline {
		t.spill = make(map[int]temporal.Time, veInline+1)
		for _, e := range t.small[:t.n] {
			t.spill[e.s] = e.ve
		}
		t.spill[s] = ve
		return
	}
	copy(t.small[i+1:t.n+1], t.small[i:t.n])
	t.small[i] = veEntry{s: s, ve: ve}
	t.n++
}

func (t *veTable) del(s int) {
	if t.spill != nil {
		delete(t.spill, s)
		return
	}
	for i := 0; i < t.n; i++ {
		if t.small[i].s == s {
			copy(t.small[i:t.n-1], t.small[i+1:t.n])
			t.n--
			return
		}
		if t.small[i].s > s {
			return
		}
	}
}

func (t *veTable) len() int {
	if t.spill != nil {
		return len(t.spill)
	}
	return t.n
}

// NewIn2t returns an empty index.
func NewIn2t() *In2t {
	return &In2t{tree: NewTree[temporal.VsPayload, *Node2](temporal.VsPayload.Compare)}
}

// Len returns the number of live (Vs, Payload) nodes.
func (x *In2t) Len() int { return x.tree.Len() }

// SameVsPayload returns the node for e's (Vs, Payload), if present
// (Algorithm R3 line 4/12).
func (x *In2t) SameVsPayload(e temporal.Element) (*Node2, bool) {
	return x.Get(e.Key())
}

// Get returns the node for key k, if present.
func (x *In2t) Get(k temporal.VsPayload) (*Node2, bool) {
	return x.tree.Get(k)
}

// AddNode creates a node for e's (Vs, Payload) storing e as the shared event
// (Algorithm R3 line 7). The caller must have checked the node is absent.
func (x *In2t) AddNode(e temporal.Element) *Node2 {
	n := &Node2{event: temporal.Event{Payload: e.Payload, Vs: e.Vs, Ve: e.Ve}}
	x.PutNode(n)
	return n
}

// DeleteNode removes the node for key k (Algorithm R3 line 27). The node
// keeps its entries but stops counting toward any index.
func (x *In2t) DeleteNode(k temporal.VsPayload) bool {
	n, ok := x.tree.Pop(k)
	if ok {
		x.bytes -= Node2Bytes(n)
		n.home = nil
	}
	return ok
}

// PutNode installs an existing node under its own key, transplanting it from
// another In2t with every per-stream entry intact (the state-handoff path of
// partition rebalancing). The caller must ensure the key is absent here and
// that the node was deleted from its previous index.
func (x *In2t) PutNode(n *Node2) {
	x.tree.Put(n.Key(), n)
	n.home = x
	x.bytes += Node2Bytes(n)
}

// FindHalfFrozen returns, in (Vs, Payload) order, the nodes whose Vs is less
// than t — the nodes that become half frozen when stable(t) is processed
// (Algorithm R3 line 17). The slice is a snapshot, so the caller may delete
// nodes while walking it.
func (x *In2t) FindHalfFrozen(t temporal.Time) []*Node2 {
	return x.FindHalfFrozenInto(t, nil)
}

// FindHalfFrozenInto is FindHalfFrozen appending into buf (reset to length
// zero first), letting stable sweeps reuse one scratch slice instead of
// allocating per stable.
func (x *In2t) FindHalfFrozenInto(t temporal.Time, buf []*Node2) []*Node2 {
	buf = buf[:0]
	x.tree.Ascend(func(k temporal.VsPayload, n *Node2) bool {
		if k.Vs >= t {
			return false // keys are Vs-major, so no later node qualifies
		}
		buf = append(buf, n)
		return true
	})
	return buf
}

// Ascend visits all nodes in key order.
func (x *In2t) Ascend(fn func(*Node2) bool) {
	x.tree.Ascend(func(_ temporal.VsPayload, n *Node2) bool { return fn(n) })
}

// SizeBytes approximates the memory footprint: per node, one shared payload
// plus tree overhead, and 16 bytes per hash entry (the sum of Node2Bytes
// over the resident nodes, maintained incrementally).
func (x *In2t) SizeBytes() int { return x.bytes }

// nodeOverhead approximates tree-node and header bytes per index node.
const nodeOverhead = 64

// Event returns the node's shared event (payload, Vs, and first-seen Ve).
func (n *Node2) Event() temporal.Event { return n.event }

// Key returns the node's (Vs, Payload).
func (n *Node2) Key() temporal.VsPayload { return n.event.Key() }

// Ve returns the hash-table entry for stream s (Algorithm R3 GetHashEntry).
func (n *Node2) Ve(s int) (temporal.Time, bool) { return n.ve.get(s) }

// SetVe adds or updates the hash-table entry for stream s (AddHashEntry /
// UpdateHashEntry in Algorithm R3).
func (n *Node2) SetVe(s int, ve temporal.Time) {
	before := n.ve.len()
	n.ve.put(s, ve)
	n.grow(veEntryBytes * (n.ve.len() - before))
}

// DeleteStream drops stream s's entry, used when an input detaches.
func (n *Node2) DeleteStream(s int) {
	before := n.ve.len()
	n.ve.del(s)
	n.grow(veEntryBytes * (n.ve.len() - before))
}

// grow charges d bytes to the home index.
func (n *Node2) grow(d int) {
	if d != 0 && n.home != nil {
		n.home.bytes += d
	}
}

// Streams returns the number of entries (inputs plus output).
func (n *Node2) Streams() int { return n.ve.len() }

// Vouchers returns the number of input-stream entries (OutputStream
// excluded) the node still holds.
func (n *Node2) Vouchers() int {
	c := n.ve.len()
	if _, ok := n.ve.get(OutputStream); ok {
		c--
	}
	return c
}
