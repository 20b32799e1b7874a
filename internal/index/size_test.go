package index

import (
	"fmt"
	"math/rand"
	"testing"

	"lmerge/internal/temporal"
)

// walkSizeBytes is the reference SizeBytes: the per-node formula summed over
// a full tree walk, which is what the running total must equal at all times.
func (x *In2t) walkSizeBytes() int {
	total := 0
	x.Ascend(func(n *Node2) bool {
		total += Node2Bytes(n)
		return true
	})
	return total
}

func (x *In3t) walkSizeBytes() int {
	total := 0
	x.Ascend(func(n *Node3) bool {
		total += Node3Bytes(n)
		return true
	})
	return total
}

// sizeKeys is the key universe of the randomized sequences: small enough
// that adds, deletes and transplants keep hitting the same nodes, with
// payloads of several lengths so a misattributed node shows up in the sum.
func sizeKeys() []temporal.Element {
	var keys []temporal.Element
	for i := 0; i < 24; i++ {
		p := temporal.Payload{ID: int64(i), Data: fmt.Sprintf("%0*d", 1+7*(i%5), i)}
		keys = append(keys, temporal.Insert(p, temporal.Time(i/2), temporal.Time(i/2+10)))
	}
	return keys
}

// sizeStreams exceeds veInline and n3Inline (with the output entry), so the
// sequences cross both inline→map spills.
const sizeStreams = 12

func randStream(rng *rand.Rand) int { return rng.Intn(sizeStreams+1) + OutputStream }

// TestIn2tSizeBytesExact drives two indexes through a seeded random mix of
// every mutation that can move Node2Bytes, transplants included, checking
// the running total against the walk after each one.
func TestIn2tSizeBytesExact(t *testing.T) {
	crossed := false // some veTable spilled inline→map
	defer func() {
		if !crossed {
			t.Error("no veTable ever spilled to a map")
		}
	}()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := sizeKeys()
		xs := [2]*In2t{NewIn2t(), NewIn2t()}
		var flight []*Node2 // deleted nodes awaiting a transplant
		// held reports whether e's key lives in either index or in flight
		// (AddNode and PutNode both require an absent key).
		held := func(e temporal.Element) bool {
			_, a := xs[0].SameVsPayload(e)
			_, b := xs[1].SameVsPayload(e)
			for _, n := range flight {
				a = a || n.Key() == e.Key()
			}
			return a || b
		}
		check := func(op string, step int) {
			t.Helper()
			for i, x := range xs {
				if got, want := x.SizeBytes(), x.walkSizeBytes(); got != want {
					t.Fatalf("seed %d step %d (%s): index %d SizeBytes %d, walk %d", seed, step, op, i, got, want)
				}
			}
		}
		for step := 0; step < 4000; step++ {
			x := xs[rng.Intn(2)]
			e := keys[rng.Intn(len(keys))]
			n, ok := x.SameVsPayload(e)
			crossed = crossed || (ok && n.ve.spill != nil)
			op := ""
			switch r := rng.Intn(10); {
			case !ok && r < 6:
				op = "add"
				if !held(e) {
					x.AddNode(e).SetVe(randStream(rng), e.Ve)
				}
			case !ok:
				op = "put"
				if len(flight) > 0 {
					i := rng.Intn(len(flight))
					x.PutNode(flight[i])
					flight = append(flight[:i], flight[i+1:]...)
				}
			case r < 5:
				op = "set"
				n.SetVe(randStream(rng), temporal.Time(rng.Intn(50)))
			case r < 7:
				op = "delstream"
				n.DeleteStream(randStream(rng))
			case r < 8:
				op = "delete"
				x.DeleteNode(n.Key())
			default:
				op = "transplant"
				x.DeleteNode(n.Key())
				// Entries edited in flight belong to no index until PutNode.
				n.SetVe(randStream(rng), 7)
				n.DeleteStream(randStream(rng))
				flight = append(flight, n)
			}
			check(op, step)
		}
		for _, x := range xs {
			for _, n := range x.FindHalfFrozen(temporal.Infinity) {
				x.DeleteNode(n.Key())
			}
			if x.Len() != 0 || x.SizeBytes() != 0 {
				t.Fatalf("seed %d: emptied index holds %d nodes, %d bytes", seed, x.Len(), x.SizeBytes())
			}
		}
	}
}

// TestIn3tSizeBytesExact is the in3t twin: stream entries appear on first
// increment and stay (16 B each) when their multiset drains to zero, and
// distinct Ve values come and go with inc/dec, crossing the VeSet inline→tree
// spill as well as the per-node stream spill.
func TestIn3tSizeBytesExact(t *testing.T) {
	crossedStreams, crossedVes := false, false
	defer func() {
		if !crossedStreams || !crossedVes {
			t.Errorf("spills crossed: streams→map %v, VeSet→tree %v; want both", crossedStreams, crossedVes)
		}
	}()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := sizeKeys()
		xs := [2]*In3t{NewIn3t(), NewIn3t()}
		var flight []*Node3
		held := func(e temporal.Element) bool {
			_, a := xs[0].SameVsPayload(e)
			_, b := xs[1].SameVsPayload(e)
			for _, n := range flight {
				a = a || n.Key() == e.Key()
			}
			return a || b
		}
		check := func(op string, step int) {
			t.Helper()
			for i, x := range xs {
				if got, want := x.SizeBytes(), x.walkSizeBytes(); got != want {
					t.Fatalf("seed %d step %d (%s): index %d SizeBytes %d, walk %d", seed, step, op, i, got, want)
				}
			}
		}
		randVe := func() temporal.Time { return temporal.Time(20 + rng.Intn(2*veSetInline)) }
		for step := 0; step < 6000; step++ {
			x := xs[rng.Intn(2)]
			e := keys[rng.Intn(len(keys))]
			n, ok := x.SameVsPayload(e)
			if ok {
				crossedStreams = crossedStreams || n.spill != nil
				n.eachStream(func(_ int, vs *VeSet) bool {
					crossedVes = crossedVes || vs.spill != nil
					return true
				})
			}
			op := ""
			switch r := rng.Intn(12); {
			case !ok && r < 7:
				op = "add"
				if !held(e) {
					x.AddNode(e).IncrementCount(randStream(rng), e.Ve)
				}
			case !ok:
				op = "put"
				if len(flight) > 0 {
					i := rng.Intn(len(flight))
					x.PutNode(flight[i])
					flight = append(flight[:i], flight[i+1:]...)
				}
			case r < 5:
				op = "inc"
				n.IncrementCount(randStream(rng), randVe())
			case r < 8:
				op = "dec"
				// Drain one stream's multiset to zero now and then.
				s := randStream(rng)
				for _, vc := range n.VeCounts(s) {
					for i := 0; i < vc.Count && rng.Intn(4) > 0; i++ {
						n.DecrementCount(s, vc.Ve)
					}
				}
				n.DecrementCount(s, randVe()) // usually absent: must not move the total
			case r < 9:
				op = "delstream"
				n.DeleteStream(randStream(rng))
			case r < 10:
				op = "delete"
				x.DeleteNode(n.Key())
			default:
				op = "transplant"
				x.DeleteNode(n.Key())
				n.IncrementCount(randStream(rng), randVe())
				n.DeleteStream(randStream(rng))
				flight = append(flight, n)
			}
			check(op, step)
		}
		for _, x := range xs {
			for _, n := range x.FindHalfFrozen(temporal.Infinity) {
				x.DeleteNode(n.Key())
			}
			if x.Len() != 0 || x.SizeBytes() != 0 {
				t.Fatalf("seed %d: emptied index holds %d nodes, %d bytes", seed, x.Len(), x.SizeBytes())
			}
		}
	}
}
