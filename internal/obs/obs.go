// Package obs is the observability layer of the system: per-node telemetry
// that makes the paper's evaluation observables (Sec. VI) measurable from a
// *running* graph rather than only from offline experiment drivers — output
// freshness/lag versus the leading input, which source the merge is
// following, fast-forward and adjust compensation counts, and per-operator
// state size.
//
// The design constraint is zero allocation on the merge hot path: every
// per-element update is a handful of atomic operations on a pre-allocated
// Node, so observers can stay attached in production (lmserved, the
// concurrent runtime) without perturbing the throughput they measure. All
// read-side methods (Snapshot, the HTTP handlers) are cold paths and may
// allocate freely; they never block a writer.
//
// A Node is nil-safe: every hot-path method on a nil *Node is a no-op, so
// instrumented code paths cost a single predictable branch when no observer
// is attached.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lmerge/internal/temporal"
)

// Node is one operator's telemetry block: traffic counters, gauges, a
// freshness tracker, and an input-leadership monitor. All fields are updated
// with atomics; a Node may be written from one merge goroutine while any
// number of readers snapshot it.
type Node struct {
	name string

	// Element traffic, by kind and direction (the merge-level view: what the
	// algorithm consumed and emitted).
	inInserts, inAdjusts, inStables    atomic.Int64
	outInserts, outAdjusts, outStables atomic.Int64

	// edgeIn/edgeOut count elements crossing this node's engine ports
	// (transport-level view, maintained by the engine dispatch layer; equal
	// to the merge-level counts for a pure merge node, richer for operators
	// that filter or amplify).
	edgeIn, edgeOut atomic.Int64

	// dropped counts input elements absorbed without output effect
	// (duplicates from slower streams, elements past the stable point — the
	// fast-forward skip work the merge saves downstream).
	dropped atomic.Int64
	// warnings counts mutual-consistency violations the merge skipped.
	warnings atomic.Int64
	// withdrawals counts output adjusts that removed an event entirely
	// (Ve set back to Vs): the compensation traffic of Sec. V-C.
	withdrawals atomic.Int64
	// ffSignals counts fast-forward signals sent upstream (Sec. V-D).
	ffSignals atomic.Int64

	// Gauges. inFrontier is the maximum stable point any input has presented;
	// outFrontier is the output's stable point; liveNodes and stateBytes
	// describe the merge index (liveNodes updated on stable advance,
	// stateBytes sampled by cold-path collectors since sizing walks the
	// index).
	inFrontier, outFrontier atomic.Int64
	liveNodes, stateBytes   atomic.Int64
	// queueDepth is the pending-work gauge for nodes with an ingress queue
	// (partition workers: elements waiting in their rings; engine nodes:
	// mailbox backlog). Sampled by cold-path collectors.
	queueDepth atomic.Int64
	// migrations counts key-range migrations this node participated in as
	// the donor (see EventMigrate for the traced detail).
	migrations atomic.Int64

	fresh Freshness
	lead  Leadership

	// trace receives this node's significant events (attach, detach, leader
	// switch, warnings, panics); shared across the registry. May be nil.
	trace *Trace
}

// NewNode returns a standalone telemetry node (not attached to a registry,
// no trace). Most callers want Registry.Node instead.
func NewNode(name string) *Node {
	n := &Node{name: name}
	n.inFrontier.Store(int64(temporal.MinTime))
	n.outFrontier.Store(int64(temporal.MinTime))
	n.lead.init()
	return n
}

// Name returns the node's registration name.
func (n *Node) Name() string {
	if n == nil {
		return ""
	}
	return n.name
}

// Trace returns the trace this node records events into (nil when detached).
func (n *Node) Trace() *Trace {
	if n == nil {
		return nil
	}
	return n.trace
}

// In records one input element from stream s. For stable elements it also
// advances the input frontier gauge — the "leading input" clock freshness is
// measured against.
func (n *Node) In(s int, k temporal.Kind, t temporal.Time) {
	if n == nil {
		return
	}
	switch k {
	case temporal.KindInsert:
		n.inInserts.Add(1)
	case temporal.KindAdjust:
		n.inAdjusts.Add(1)
	case temporal.KindStable:
		n.inStables.Add(1)
		atomicMax(&n.inFrontier, int64(t))
	}
}

// InBulk records a routed batch's input traffic in one shot: ins inserts,
// adjs adjusts, stbs stables, with maxStable the batch's largest stable
// timestamp (MinTime when the batch carried no stable). It is the batched
// form of In for callers that count per batch instead of per element.
func (n *Node) InBulk(ins, adjs, stbs int64, maxStable temporal.Time) {
	if n == nil {
		return
	}
	if ins != 0 {
		n.inInserts.Add(ins)
	}
	if adjs != 0 {
		n.inAdjusts.Add(adjs)
	}
	if stbs != 0 {
		n.inStables.Add(stbs)
		atomicMax(&n.inFrontier, int64(maxStable))
	}
}

// OutBulk records a staged emission batch's insert/adjust traffic in one
// shot: ins inserts and adjs adjusts, of which withdrawals removed their event
// entirely. Stable advances are not bulked — they carry freshness and
// leadership sampling, so callers report them individually via OutStable.
func (n *Node) OutBulk(ins, adjs, withdrawals int64) {
	if n == nil {
		return
	}
	if ins != 0 {
		n.outInserts.Add(ins)
	}
	if adjs != 0 {
		n.outAdjusts.Add(adjs)
	}
	if withdrawals != 0 {
		n.withdrawals.Add(withdrawals)
	}
}

// OutInsert records one output insert.
func (n *Node) OutInsert() {
	if n == nil {
		return
	}
	n.outInserts.Add(1)
}

// OutAdjust records one output adjust; withdrawal marks an adjust that
// removed its event entirely (Ve == Vs).
func (n *Node) OutAdjust(withdrawal bool) {
	if n == nil {
		return
	}
	n.outAdjusts.Add(1)
	if withdrawal {
		n.withdrawals.Add(1)
	}
}

// OutStable records an output stable advance to t, raised while processing
// input stream s: it moves the output frontier, samples freshness lag
// against the input frontier, and feeds the leadership monitor (the paper's
// "which input is the output following" concern, Figs. 8–10).
func (n *Node) OutStable(s int, t temporal.Time) {
	if n == nil {
		return
	}
	n.outStables.Add(1)
	atomicMax(&n.outFrontier, int64(t))
	// End-of-stream transitions are excluded on both sides: an ∞ output
	// stable has no lag, and once any input reaches ∞ the "lag behind the
	// freshest input" is unbounded until the output completes too — sampling
	// either would swamp the steady-state quantiles with 2^63-scale values.
	if in := temporal.Time(n.inFrontier.Load()); in != temporal.MinTime && !in.IsInf() && !t.IsInf() {
		lag := in - t
		if lag < 0 {
			// The output ran ahead of every input frontier this node has
			// *seen* — possible only for transport-level nodes that observe a
			// subset of traffic; clamp so freshness stays a lag.
			lag = 0
		}
		n.fresh.Observe(int64(lag))
	}
	if s >= 0 {
		if n.lead.lead(s) && n.trace != nil {
			n.trace.Record(Event{Kind: EventLeaderSwitch, Node: n.name, Stream: s, T: t})
		}
	}
}

// Dropped records input elements absorbed without output effect.
func (n *Node) Dropped() {
	if n == nil {
		return
	}
	n.dropped.Add(1)
}

// Warning records a skipped mutual-consistency violation and traces it.
func (n *Node) Warning(s int, t temporal.Time) {
	if n == nil {
		return
	}
	n.warnings.Add(1)
	if n.trace != nil {
		n.trace.Record(Event{Kind: EventWarning, Node: n.name, Stream: s, T: t})
	}
}

// FF records one fast-forward signal sent upstream.
func (n *Node) FF(s int, t temporal.Time) {
	if n == nil {
		return
	}
	n.ffSignals.Add(1)
	if n.trace != nil {
		n.trace.Record(Event{Kind: EventFastForward, Node: n.name, Stream: s, T: t})
	}
}

// EdgeIn counts one element arriving on an engine input port.
func (n *Node) EdgeIn() {
	if n == nil {
		return
	}
	n.edgeIn.Add(1)
}

// EdgeOut counts one element emitted to engine downstream edges.
func (n *Node) EdgeOut() {
	if n == nil {
		return
	}
	n.edgeOut.Add(1)
}

// SetLive updates the live index-node gauge (cheap; called on stable
// advances).
func (n *Node) SetLive(nodes int) {
	if n == nil {
		return
	}
	n.liveNodes.Store(int64(nodes))
}

// SetStateBytes updates the state-size gauge. Collectors call it when they
// are polled (stats queries, periodic logs), not per element.
func (n *Node) SetStateBytes(b int) {
	if n == nil {
		return
	}
	n.stateBytes.Store(int64(b))
}

// SetQueueDepth updates the pending-work gauge (elements waiting in this
// node's ingress queue). Sampled by cold-path collectors, never per element.
func (n *Node) SetQueueDepth(d int) {
	if n == nil {
		return
	}
	n.queueDepth.Store(int64(d))
}

// Migrated records one key-range migration with this node as the donor and
// traces it: from/to are the donor and recipient partition indices, t the
// donor's stable point at extraction, moved the number of live keys moved.
func (n *Node) Migrated(from, to int, t temporal.Time, moved int) {
	if n == nil {
		return
	}
	n.migrations.Add(1)
	if n.trace != nil {
		n.trace.Record(Event{Kind: EventMigrate, Node: n.name, Stream: from, T: t, Aux: int64(to)<<32 | int64(moved)&0xffffffff})
	}
}

// Attached traces a stream attach on this node.
func (n *Node) Attached(s int, joinTime temporal.Time) {
	if n == nil || n.trace == nil {
		return
	}
	n.trace.Record(Event{Kind: EventAttach, Node: n.name, Stream: s, T: joinTime})
}

// Detached traces a stream detach on this node.
func (n *Node) Detached(s int) {
	if n == nil || n.trace == nil {
		return
	}
	n.trace.Record(Event{Kind: EventDetach, Node: n.name, Stream: s, T: temporal.MinTime})
}

// Fault traces a node fault (recovered panic, injected failure); detail is
// carried in the event's Aux field as a best-effort numeric code.
func (n *Node) Fault(aux int64) {
	if n == nil || n.trace == nil {
		return
	}
	n.trace.Record(Event{Kind: EventFault, Node: n.name, Stream: -1, Aux: aux})
}

// InFrontier returns the maximum input stable point seen.
func (n *Node) InFrontier() temporal.Time {
	if n == nil {
		return temporal.MinTime
	}
	return temporal.Time(n.inFrontier.Load())
}

// OutFrontier returns the output stable point.
func (n *Node) OutFrontier() temporal.Time {
	if n == nil {
		return temporal.MinTime
	}
	return temporal.Time(n.outFrontier.Load())
}

// Leadership exposes the node's input-leadership monitor.
func (n *Node) Leadership() *Leadership {
	if n == nil {
		return nil
	}
	return &n.lead
}

// Freshness exposes the node's freshness tracker.
func (n *Node) Freshness() *Freshness {
	if n == nil {
		return nil
	}
	return &n.fresh
}

// atomicMax advances a monotone atomic gauge to v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur {
			return
		}
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot is a consistent-enough point-in-time copy of a Node for
// reporting. Individual counters are read atomically; cross-counter sums may
// be torn by in-flight updates, which reporting tolerates.
type Snapshot struct {
	Name string `json:"name"`

	InInserts  int64 `json:"in_inserts"`
	InAdjusts  int64 `json:"in_adjusts"`
	InStables  int64 `json:"in_stables"`
	OutInserts int64 `json:"out_inserts"`
	OutAdjusts int64 `json:"out_adjusts"`
	OutStables int64 `json:"out_stables"`

	EdgeIn  int64 `json:"edge_in,omitempty"`
	EdgeOut int64 `json:"edge_out,omitempty"`

	Dropped     int64 `json:"dropped"`
	Warnings    int64 `json:"warnings"`
	Withdrawals int64 `json:"withdrawals"`
	FFSignals   int64 `json:"ff_signals"`

	InFrontier  int64 `json:"in_frontier"`
	OutFrontier int64 `json:"out_frontier"`
	LiveNodes   int64 `json:"live_nodes"`
	StateBytes  int64 `json:"state_bytes"`
	QueueDepth  int64 `json:"queue_depth,omitempty"`
	Migrations  int64 `json:"migrations,omitempty"`

	Freshness  FreshnessSnapshot  `json:"freshness"`
	Leadership LeadershipSnapshot `json:"leadership"`
}

// InElements returns total input traffic.
func (s Snapshot) InElements() int64 { return s.InInserts + s.InAdjusts + s.InStables }

// OutElements returns total output traffic.
func (s Snapshot) OutElements() int64 { return s.OutInserts + s.OutAdjusts + s.OutStables }

// Snapshot copies the node's current state.
func (n *Node) Snapshot() Snapshot {
	if n == nil {
		return Snapshot{}
	}
	return Snapshot{
		Name:        n.name,
		InInserts:   n.inInserts.Load(),
		InAdjusts:   n.inAdjusts.Load(),
		InStables:   n.inStables.Load(),
		OutInserts:  n.outInserts.Load(),
		OutAdjusts:  n.outAdjusts.Load(),
		OutStables:  n.outStables.Load(),
		EdgeIn:      n.edgeIn.Load(),
		EdgeOut:     n.edgeOut.Load(),
		Dropped:     n.dropped.Load(),
		Warnings:    n.warnings.Load(),
		Withdrawals: n.withdrawals.Load(),
		FFSignals:   n.ffSignals.Load(),
		InFrontier:  n.inFrontier.Load(),
		OutFrontier: n.outFrontier.Load(),
		LiveNodes:   n.liveNodes.Load(),
		StateBytes:  n.stateBytes.Load(),
		QueueDepth:  n.queueDepth.Load(),
		Migrations:  n.migrations.Load(),
		Freshness:   n.fresh.Snapshot(),
		Leadership:  n.lead.Snapshot(),
	}
}

// String renders the snapshot as one log line.
func (s Snapshot) String() string {
	return fmt.Sprintf("%s in=%d out=%d dropped=%d warn=%d withdrawn=%d ff=%d stable=%d lag(p50=%d p95=%d max=%d) leader=%d switches=%d live=%d",
		s.Name, s.InElements(), s.OutElements(), s.Dropped, s.Warnings,
		s.Withdrawals, s.FFSignals, s.OutFrontier,
		int64(s.Freshness.P50), int64(s.Freshness.P95), s.Freshness.Max,
		s.Leadership.Leader, s.Leadership.Switches, s.LiveNodes)
}

// Registry is a set of telemetry nodes sharing one event trace — typically
// one registry per server or per engine graph.
type Registry struct {
	mu    sync.Mutex
	nodes []*Node
	trace *Trace
}

// NewRegistry returns a registry with a trace ring of the default capacity.
func NewRegistry() *Registry {
	return &Registry{trace: NewTrace(DefaultTraceCapacity)}
}

// Node returns the registered node with the given name, creating it on first
// use. Names are unique within a registry.
func (r *Registry) Node(name string) *Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.nodes {
		if n.name == name {
			return n
		}
	}
	n := NewNode(name)
	n.trace = r.trace
	r.nodes = append(r.nodes, n)
	return n
}

// Nodes returns the registered nodes in registration order.
func (r *Registry) Nodes() []*Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Node(nil), r.nodes...)
}

// Trace returns the registry's shared event trace.
func (r *Registry) Trace() *Trace { return r.trace }

// Snapshot copies every node's state, in registration order.
func (r *Registry) Snapshot() []Snapshot {
	nodes := r.Nodes()
	out := make([]Snapshot, len(nodes))
	for i, n := range nodes {
		out[i] = n.Snapshot()
	}
	return out
}
