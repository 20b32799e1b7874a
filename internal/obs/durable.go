package obs

import (
	"sync/atomic"

	"lmerge/internal/metrics"
)

// recoveryWindow is how many recovery-duration samples Durability retains for
// quantile summaries. Recoveries are rare (one per restart, plus the chaos
// soak's deliberate loop), so a small ring is plenty.
const recoveryWindow = 64

// Durability aggregates the persistence tier's counters: WAL traffic, fsync
// count, checkpoints written, and recovery durations. Like Node, it is
// nil-safe and every write is a plain atomic — the WAL append path touches it
// once per record, so it must never take a lock or allocate.
type Durability struct {
	walRecords atomic.Int64
	walBytes   atomic.Int64
	fsyncs     atomic.Int64
	ckpts      atomic.Int64
	ckptBytes  atomic.Int64
	replayed   atomic.Int64
	tornBytes  atomic.Int64

	recoveries atomic.Int64
	recLast    atomic.Int64
	recRing    [recoveryWindow]atomic.Int64

	walErr atomic.Pointer[string] // first failed WAL append
}

// WALAppended records one WAL record of n framed bytes hitting the file.
func (d *Durability) WALAppended(n int64) {
	if d == nil {
		return
	}
	d.walRecords.Add(1)
	d.walBytes.Add(n)
}

// WALFailed records the WAL append failure that made the state non-durable;
// only the first one is kept.
func (d *Durability) WALFailed(err error) {
	if d == nil {
		return
	}
	msg := err.Error()
	d.walErr.CompareAndSwap(nil, &msg)
}

// Fsynced records one fsync on the WAL file.
func (d *Durability) Fsynced() {
	if d == nil {
		return
	}
	d.fsyncs.Add(1)
}

// Checkpointed records one checkpoint of n bytes committed (post-rename).
func (d *Durability) Checkpointed(n int64) {
	if d == nil {
		return
	}
	d.ckpts.Add(1)
	d.ckptBytes.Add(n)
}

// RecoveryDone records one completed recovery: records replayed from the WAL
// tail, torn tail bytes discarded by checksum truncation, and wall duration.
func (d *Durability) RecoveryDone(replayed, tornBytes, durNS int64) {
	if d == nil {
		return
	}
	d.replayed.Add(replayed)
	d.tornBytes.Add(tornBytes)
	i := d.recoveries.Add(1) - 1
	d.recRing[i%recoveryWindow].Store(durNS)
	d.recLast.Store(durNS)
}

// DurabilitySnapshot is a point-in-time copy of the durability counters, with
// recovery-duration quantiles (type-7, shared with the experiment plumbing)
// over the retained sample window.
type DurabilitySnapshot struct {
	WALRecords      int64   `json:"wal_records"`
	WALBytes        int64   `json:"wal_bytes"`
	Fsyncs          int64   `json:"fsyncs"`
	Checkpoints     int64   `json:"checkpoints"`
	CheckpointBytes int64   `json:"checkpoint_bytes"`
	ReplayedRecords int64   `json:"replayed_records"`
	TornBytes       int64   `json:"torn_bytes"`
	Recoveries      int64   `json:"recoveries"`
	RecoveryLastNS  int64   `json:"recovery_last_ns"`
	RecoveryP50NS   float64 `json:"recovery_p50_ns"`
	RecoveryP95NS   float64 `json:"recovery_p95_ns"`
	RecoveryP99NS   float64 `json:"recovery_p99_ns"`
	RecoveryMaxNS   float64 `json:"recovery_max_ns"`
	// WALError is the first failed WAL append (empty while the log is
	// healthy); once set, the server merges and delivers nothing more.
	WALError string `json:"wal_error,omitempty"`
}

// Snapshot copies the counters and summarises the recovery-duration ring.
func (d *Durability) Snapshot() DurabilitySnapshot {
	if d == nil {
		return DurabilitySnapshot{}
	}
	s := DurabilitySnapshot{
		WALRecords:      d.walRecords.Load(),
		WALBytes:        d.walBytes.Load(),
		Fsyncs:          d.fsyncs.Load(),
		Checkpoints:     d.ckpts.Load(),
		CheckpointBytes: d.ckptBytes.Load(),
		ReplayedRecords: d.replayed.Load(),
		TornBytes:       d.tornBytes.Load(),
		Recoveries:      d.recoveries.Load(),
		RecoveryLastNS:  d.recLast.Load(),
	}
	if msg := d.walErr.Load(); msg != nil {
		s.WALError = *msg
	}
	n := s.Recoveries
	if n == 0 {
		return s
	}
	k := n
	if k > recoveryWindow {
		k = recoveryWindow
	}
	vals := make([]float64, k)
	for i := int64(0); i < k; i++ {
		vals[i] = float64(d.recRing[i].Load())
	}
	sum := metrics.Summarize(vals)
	s.RecoveryP50NS = sum.P50
	s.RecoveryP95NS = sum.P95
	s.RecoveryP99NS = sum.P99
	s.RecoveryMaxNS = sum.Max
	return s
}
