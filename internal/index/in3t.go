package index

import "lmerge/internal/temporal"

// In3t is the three-tier index of paper Figure 1 (right), used by Algorithm
// R4. It generalises In2t for the multiset case: since many elements can
// share (Vs, Payload) with different Ve values (and true duplicates), each
// second-tier entry holds a Ve-ordered multiset of occurrence counts.
type In3t struct {
	tree *Tree[temporal.VsPayload, *Node3]
	// bytes is the running sum of Node3Bytes over the resident nodes, kept
	// current by every mutation so SizeBytes is a field read.
	bytes int
}

// n3Inline is the number of per-stream multisets a node stores inline
// before spilling to a map. Paper runs use 2–3 inputs plus the output
// entry, so the inline array covers the common case with zero allocation.
const n3Inline = 4

// Node3 is one top-tier node of an In3t. Stream entries live in a small
// array sorted by stream id; once a node accumulates more than n3Inline
// streams they spill to a map (rare and one-way).
type Node3 struct {
	event temporal.Event
	n     int
	small [n3Inline]streamVes
	spill map[int]*VeSet
	// home is the index holding the node (nil while it is in flight between
	// two indexes): stream and distinct-Ve changes adjust home's byte total.
	home *In3t
}

// streamVes is one (stream id, Ve multiset) entry of a Node3.
type streamVes struct {
	s  int
	vs VeSet
}

// veSetInline is the number of distinct Ve values a VeSet stores inline
// before spilling to a tree. Even disordered multiset workloads rarely hold
// more than a few in-flight end times per (Vs, Payload, stream).
const veSetInline = 4

// VeSet is a third-tier index: a multiset of Ve values for one stream.
// Distinct values live in a small Ve-sorted array of counts; past
// veSetInline they spill to a Ve-ordered tree (one-way). total is the
// multiset's cardinality.
type VeSet struct {
	n     int
	total int
	small [veSetInline]VeCount
	spill *Tree[temporal.Time, int]
}

// VeCount is one (Ve, multiplicity) pair of a VeSet.
type VeCount struct {
	Ve    temporal.Time
	Count int
}

func compareTime(a, b temporal.Time) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// inc records one more occurrence of ve.
func (v *VeSet) inc(ve temporal.Time) {
	v.total++
	if v.spill != nil {
		c, _ := v.spill.Get(ve)
		v.spill.Put(ve, c+1)
		return
	}
	i := 0
	for ; i < v.n; i++ {
		if v.small[i].Ve == ve {
			v.small[i].Count++
			return
		}
		if v.small[i].Ve > ve {
			break
		}
	}
	if v.n == veSetInline {
		v.spill = NewTree[temporal.Time, int](compareTime)
		for _, e := range v.small[:v.n] {
			v.spill.Put(e.Ve, e.Count)
		}
		v.spill.Put(ve, 1)
		return
	}
	copy(v.small[i+1:v.n+1], v.small[i:v.n])
	v.small[i] = VeCount{Ve: ve, Count: 1}
	v.n++
}

// dec removes one occurrence of ve, reporting whether one existed.
func (v *VeSet) dec(ve temporal.Time) bool {
	if v.spill != nil {
		c, ok := v.spill.Get(ve)
		if !ok || c == 0 {
			return false
		}
		if c == 1 {
			v.spill.Delete(ve)
		} else {
			v.spill.Put(ve, c-1)
		}
		v.total--
		return true
	}
	for i := 0; i < v.n; i++ {
		if v.small[i].Ve == ve {
			v.small[i].Count--
			if v.small[i].Count == 0 {
				copy(v.small[i:v.n-1], v.small[i+1:v.n])
				v.n--
			}
			v.total--
			return true
		}
		if v.small[i].Ve > ve {
			return false
		}
	}
	return false
}

// countOf returns the multiplicity of ve.
func (v *VeSet) countOf(ve temporal.Time) int {
	if v.spill != nil {
		c, _ := v.spill.Get(ve)
		return c
	}
	for i := 0; i < v.n; i++ {
		if v.small[i].Ve == ve {
			return v.small[i].Count
		}
		if v.small[i].Ve > ve {
			break
		}
	}
	return 0
}

// maxVe returns the largest Ve; ok is false for an empty multiset.
func (v *VeSet) maxVe() (temporal.Time, bool) {
	if v.total == 0 {
		return 0, false
	}
	if v.spill != nil {
		ve, _, ok := v.spill.Max()
		return ve, ok
	}
	return v.small[v.n-1].Ve, true
}

// ascend visits the (Ve, count) pairs in Ve order.
func (v *VeSet) ascend(fn func(ve temporal.Time, count int) bool) {
	if v.spill != nil {
		v.spill.Ascend(fn)
		return
	}
	for i := 0; i < v.n; i++ {
		if !fn(v.small[i].Ve, v.small[i].Count) {
			return
		}
	}
}

// distinct returns the number of distinct Ve values.
func (v *VeSet) distinct() int {
	if v.spill != nil {
		return v.spill.Len()
	}
	return v.n
}

// NewIn3t returns an empty index.
func NewIn3t() *In3t {
	return &In3t{tree: NewTree[temporal.VsPayload, *Node3](temporal.VsPayload.Compare)}
}

// Len returns the number of live (Vs, Payload) nodes.
func (x *In3t) Len() int { return x.tree.Len() }

// SameVsPayload returns the node for e's (Vs, Payload), if present.
func (x *In3t) SameVsPayload(e temporal.Element) (*Node3, bool) {
	return x.Get(e.Key())
}

// Get returns the node for key k, if present.
func (x *In3t) Get(k temporal.VsPayload) (*Node3, bool) {
	return x.tree.Get(k)
}

// AddNode creates a node for e's (Vs, Payload).
func (x *In3t) AddNode(e temporal.Element) *Node3 {
	n := &Node3{event: temporal.Event{Payload: e.Payload, Vs: e.Vs, Ve: e.Ve}}
	x.PutNode(n)
	return n
}

// DeleteNode removes the node for key k. The node keeps its multisets but
// stops counting toward any index.
func (x *In3t) DeleteNode(k temporal.VsPayload) bool {
	n, ok := x.tree.Pop(k)
	if ok {
		x.bytes -= Node3Bytes(n)
		n.home = nil
	}
	return ok
}

// PutNode installs an existing node under its own key, transplanting it from
// another In3t with every per-stream multiset intact (the state-handoff path
// of partition rebalancing). The caller must ensure the key is absent here
// and that the node was deleted from its previous index.
func (x *In3t) PutNode(n *Node3) {
	x.tree.Put(n.Key(), n)
	n.home = x
	x.bytes += Node3Bytes(n)
}

// FindHalfFrozen returns, in key order, a snapshot of nodes with Vs < t.
func (x *In3t) FindHalfFrozen(t temporal.Time) []*Node3 {
	return x.FindHalfFrozenInto(t, nil)
}

// FindHalfFrozenInto is FindHalfFrozen appending into buf (reset to length
// zero first), letting stable sweeps reuse one scratch slice instead of
// allocating per stable.
func (x *In3t) FindHalfFrozenInto(t temporal.Time, buf []*Node3) []*Node3 {
	buf = buf[:0]
	x.tree.Ascend(func(k temporal.VsPayload, n *Node3) bool {
		if k.Vs >= t {
			return false
		}
		buf = append(buf, n)
		return true
	})
	return buf
}

// Ascend visits all nodes in key order.
func (x *In3t) Ascend(fn func(*Node3) bool) {
	x.tree.Ascend(func(_ temporal.VsPayload, n *Node3) bool { return fn(n) })
}

// SizeBytes approximates memory: one shared payload per node plus, per
// stream entry, 16 bytes and half a node overhead for each distinct Ve (the
// sum of Node3Bytes over the resident nodes, maintained incrementally).
func (x *In3t) SizeBytes() int { return x.bytes }

// Event returns the node's shared representative event.
func (n *Node3) Event() temporal.Event { return n.event }

// Key returns the node's (Vs, Payload).
func (n *Node3) Key() temporal.VsPayload { return n.event.Key() }

// set returns stream s's VeSet, creating it if asked. The pointer is
// invalidated by the next stream insertion or deletion on this node, so
// callers must not retain it.
func (n *Node3) set(s int, create bool) *VeSet {
	if n.spill != nil {
		vs, ok := n.spill[s]
		if !ok && create {
			vs = &VeSet{}
			n.spill[s] = vs
		}
		return vs
	}
	i := 0
	for ; i < n.n; i++ {
		if n.small[i].s == s {
			return &n.small[i].vs
		}
		if n.small[i].s > s {
			break
		}
	}
	if !create {
		return nil
	}
	if n.n == n3Inline {
		n.spill = make(map[int]*VeSet, n3Inline+1)
		for j := range n.small[:n.n] {
			vs := n.small[j].vs
			n.spill[n.small[j].s] = &vs
		}
		vs := &VeSet{}
		n.spill[s] = vs
		return vs
	}
	copy(n.small[i+1:n.n+1], n.small[i:n.n])
	n.small[i] = streamVes{s: s}
	n.n++
	return &n.small[i].vs
}

// eachStream visits every (stream, VeSet) entry, in stream order for the
// inline representation.
func (n *Node3) eachStream(fn func(s int, vs *VeSet) bool) {
	if n.spill != nil {
		for s, vs := range n.spill {
			if !fn(s, vs) {
				return
			}
		}
		return
	}
	for i := 0; i < n.n; i++ {
		if !fn(n.small[i].s, &n.small[i].vs) {
			return
		}
	}
}

// streams returns the number of stream entries (inputs plus output).
func (n *Node3) streams() int {
	if n.spill != nil {
		return len(n.spill)
	}
	return n.n
}

// grow charges d bytes to the home index.
func (n *Node3) grow(d int) {
	if d != 0 && n.home != nil {
		n.home.bytes += d
	}
}

// IncrementCount records one more occurrence of ve on stream s.
func (n *Node3) IncrementCount(s int, ve temporal.Time) {
	streams := n.streams()
	vs := n.set(s, true)
	distinct := vs.distinct()
	vs.inc(ve)
	n.grow(veEntryBytes*(n.streams()-streams) + distinctVeBytes*(vs.distinct()-distinct))
}

// DecrementCount removes one occurrence of ve on stream s, reporting whether
// an occurrence existed.
func (n *Node3) DecrementCount(s int, ve temporal.Time) bool {
	vs := n.set(s, false)
	if vs == nil {
		return false
	}
	distinct := vs.distinct()
	ok := vs.dec(ve)
	n.grow(distinctVeBytes * (vs.distinct() - distinct))
	return ok
}

// Count returns the total number of events for this node on stream s
// (GetCount in Algorithm R4).
func (n *Node3) Count(s int) int {
	if vs := n.set(s, false); vs != nil {
		return vs.total
	}
	return 0
}

// CountOf returns the number of occurrences of a specific ve on stream s.
func (n *Node3) CountOf(s int, ve temporal.Time) int {
	if vs := n.set(s, false); vs != nil {
		return vs.countOf(ve)
	}
	return 0
}

// MaxVe returns the largest Ve on stream s (GetMaxVe in Algorithm R4); ok is
// false if the stream holds no events for this node.
func (n *Node3) MaxVe(s int) (temporal.Time, bool) {
	vs := n.set(s, false)
	if vs == nil {
		return 0, false
	}
	return vs.maxVe()
}

// AscendVe visits stream s's (Ve, count) pairs in Ve order (FindAllVe in
// Algorithm R4).
func (n *Node3) AscendVe(s int, fn func(ve temporal.Time, count int) bool) {
	if vs := n.set(s, false); vs != nil {
		vs.ascend(fn)
	}
}

// VeCounts returns a snapshot of stream s's Ve multiset in ascending order.
func (n *Node3) VeCounts(s int) []VeCount {
	var out []VeCount
	n.AscendVe(s, func(ve temporal.Time, c int) bool {
		out = append(out, VeCount{Ve: ve, Count: c})
		return true
	})
	return out
}

// DeleteStream drops stream s's VeSet, used when an input detaches.
func (n *Node3) DeleteStream(s int) {
	vs := n.set(s, false)
	if vs == nil {
		return
	}
	n.grow(-(veEntryBytes + distinctVeBytes*vs.distinct()))
	if n.spill != nil {
		delete(n.spill, s)
		return
	}
	for i := 0; i < n.n; i++ {
		if n.small[i].s == s {
			copy(n.small[i:n.n-1], n.small[i+1:n.n])
			n.small[n.n-1] = streamVes{}
			n.n--
			return
		}
		if n.small[i].s > s {
			return
		}
	}
}

// Vouchers returns the number of input streams (OutputStream excluded) still
// holding at least one occurrence for this node.
func (n *Node3) Vouchers() int {
	v := 0
	n.eachStream(func(s int, vs *VeSet) bool {
		if s != OutputStream && vs.total > 0 {
			v++
		}
		return true
	})
	return v
}
