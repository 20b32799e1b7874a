package core

import (
	"testing"

	"lmerge/internal/gen"
	"lmerge/internal/index"
	"lmerge/internal/temporal"
)

// requireExactSize asserts that m's running SizeBytes equals the per-node
// formula summed over a walk of its index — the definition the incremental
// counter replaced, and the unit ExtractFrozen's fs.Bytes is counted in.
func requireExactSize(t *testing.T, m Merger, when string) {
	t.Helper()
	walk := 0
	switch m := m.(type) {
	case *R3:
		m.index.Ascend(func(n *index.Node2) bool {
			walk += index.Node2Bytes(n)
			return true
		})
	case *R4:
		m.index.Ascend(func(n *index.Node3) bool {
			walk += index.Node3Bytes(n)
			return true
		})
	default:
		t.Fatalf("requireExactSize: unsupported merger %T", m)
	}
	if got := m.SizeBytes(); got != walk {
		t.Fatalf("%s: SizeBytes %d, index walk %d", when, got, walk)
	}
}

// TestSizeBytesExactAcrossStateMoves runs divergent presentations of one
// script through R3 and R4 while state keeps leaving and re-entering the
// index by every route there is — stable sweeps, frozen extraction and
// re-installation, whole-key handoff to a peer and back, and a detach — and
// checks the running byte total against the walk after each step.
func TestSizeBytesExactAcrossStateMoves(t *testing.T) {
	for _, c := range []Case{CaseR3, CaseR4} {
		t.Run(c.String(), func(t *testing.T) {
			cfg := gen.Config{
				Events: 400, Seed: 5, EventDuration: 60, MaxGap: 9,
				PayloadBytes: 24, Revisions: 0.5, RemoveProb: 0.25,
			}
			if c == CaseR4 {
				cfg.DupProb = 0.3
			}
			sc := gen.NewScript(cfg)
			streams := make([]temporal.Stream, 3)
			for i := range streams {
				streams[i] = sc.Render(gen.RenderOptions{
					Seed: int64(i + 1), StableFreq: 0.06, StableEvery: 7 + i,
					Disorder: []float64{0.3, 0.1, 0.5}[i], SplitInserts: i == 1,
				})
			}
			m := New(c, func(temporal.Element) {})
			peer := New(c, func(temporal.Element) {})
			for s := range streams {
				m.Attach(s)
				peer.Attach(s)
			}
			fx, hm, hp := m.(FrozenExtractor), m.(Handoff), peer.(Handoff)
			moved := 0
			for i, n := 0, 0; ; i++ {
				fed := false
				for s, st := range streams {
					if s == 2 && i >= len(st)/2 {
						continue // stream 2 stops half way and detaches below
					}
					if i >= len(st) {
						continue
					}
					fed = true
					feedOne(t, m, s, st[i])
					requireExactSize(t, m, "after Process")
					switch n++; n % 40 {
					case 0:
						if fs, ok := fx.ExtractFrozen(0); ok {
							moved += len(fs.Frames)
							requireExactSize(t, m, "after ExtractFrozen")
							fx.InstallFrozen(fs)
							requireExactSize(t, m, "after InstallFrozen")
						}
					case 20:
						hs, err := hm.ExtractKeys(func(p temporal.Payload) bool { return p.ID%2 == 0 })
						if err != nil {
							t.Fatal(err)
						}
						moved += hs.Keys
						requireExactSize(t, m, "after ExtractKeys")
						hp.InstallKeys(hs)
						requireExactSize(t, peer, "peer after InstallKeys")
						hs, _ = hp.ExtractKeys(func(temporal.Payload) bool { return true })
						if peer.SizeBytes() != 0 {
							t.Fatalf("emptied peer reports %d bytes", peer.SizeBytes())
						}
						hm.InstallKeys(hs)
						requireExactSize(t, m, "after InstallKeys")
					}
				}
				if i == len(streams[2])/2 {
					m.Detach(2)
					requireExactSize(t, m, "after Detach")
				}
				if !fed {
					break
				}
			}
			if moved == 0 {
				t.Error("no state ever left the index; the test exercised nothing")
			}
			if live := m.(interface{ Live() int }).Live(); live != 0 || m.SizeBytes() != 0 {
				t.Errorf("run to stable(∞) left %d nodes, %d bytes", live, m.SizeBytes())
			}
		})
	}
}
