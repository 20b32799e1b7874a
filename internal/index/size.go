package index

import "unsafe"

// NodeBytes returns the allocated footprint of one red-black tree node
// keyed K holding V — the real `unsafe.Sizeof` of the node struct, so
// operator- and merger-level SizeBytes estimates track the actual layout
// instead of hand-rolled magic numbers (which silently go stale when a
// struct grows). Exported because treeNode itself is not.
func NodeBytes[K, V any]() int {
	return int(unsafe.Sizeof(treeNode[K, V]{}))
}

// veEntryBytes is one second-tier entry (stream → Ve, or stream → VeSet
// header); distinctVeBytes is one third-tier distinct Ve.
const (
	veEntryBytes    = 16
	distinctVeBytes = nodeOverhead / 2
)

// Node2Bytes returns one in2t node's contribution to SizeBytes: tree-node
// and header overhead, the shared payload, and 16 bytes per hash entry.
func Node2Bytes(n *Node2) int {
	return nodeOverhead + n.event.Payload.SizeBytes() + veEntryBytes*n.ve.len()
}

// Node3Bytes returns one in3t node's contribution to SizeBytes: tree-node
// and header overhead, the shared payload, and per stream entry 16 bytes
// plus half a node overhead for each distinct Ve.
func Node3Bytes(n *Node3) int {
	total := nodeOverhead + n.event.Payload.SizeBytes()
	n.eachStream(func(_ int, vs *VeSet) bool {
		total += veEntryBytes + distinctVeBytes*vs.distinct()
		return true
	})
	return total
}
