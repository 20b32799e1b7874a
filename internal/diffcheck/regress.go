package diffcheck

import (
	"bytes"
	"fmt"
	"strings"

	"lmerge/internal/temporal"
)

// goName renders the algorithm's Go identifier for generated tests.
func (a Algo) goName() string {
	switch a {
	case AlgoR0:
		return "AlgoR0"
	case AlgoR1:
		return "AlgoR1"
	case AlgoR2:
		return "AlgoR2"
	case AlgoR2Dup:
		return "AlgoR2Dup"
	case AlgoR3:
		return "AlgoR3"
	case AlgoR3Eager:
		return "AlgoR3Eager"
	case AlgoR3HalfFrozen:
		return "AlgoR3HalfFrozen"
	case AlgoR3FullyFrozen:
		return "AlgoR3FullyFrozen"
	case AlgoR3Quorum2:
		return "AlgoR3Quorum2"
	case AlgoR3Leader:
		return "AlgoR3Leader"
	case AlgoR3Naive:
		return "AlgoR3Naive"
	case AlgoR4:
		return "AlgoR4"
	}
	return fmt.Sprintf("Algo(%d)", uint8(a))
}

// goName renders the exec mode's Go identifier.
func (x Exec) goName() string {
	switch x {
	case ExecDirect:
		return "ExecDirect"
	case ExecSync:
		return "ExecSync"
	case ExecRuntime:
		return "ExecRuntime"
	case ExecRuntimeUnbatched:
		return "ExecRuntimeUnbatched"
	case ExecPartitioned:
		return "ExecPartitioned"
	case ExecPartitionedRebal:
		return "ExecPartitionedRebal"
	case ExecSharded:
		return "ExecSharded"
	case ExecCrashRecover:
		return "ExecCrashRecover"
	case ExecSpill:
		return "ExecSpill"
	case ExecSpillCrash:
		return "ExecSpillCrash"
	}
	return fmt.Sprintf("Exec(%d)", uint8(x))
}

// goName renders the pipeline's Go identifier.
func (p Pipeline) goName() string {
	switch p {
	case PipeNone:
		return "PipeNone"
	case PipeUnion:
		return "PipeUnion"
	case PipeCount:
		return "PipeCount"
	case PipeCountAggressive:
		return "PipeCountAggressive"
	case PipeTopK:
		return "PipeTopK"
	}
	return fmt.Sprintf("Pipeline(%d)", uint8(p))
}

// goTime renders a time literal, spelling out the sentinels.
func goTime(t temporal.Time) string {
	switch t {
	case temporal.Infinity:
		return "temporal.Infinity"
	case temporal.MinTime:
		return "temporal.MinTime"
	}
	return fmt.Sprintf("%d", int64(t))
}

// goPayload renders a payload literal.
func goPayload(p temporal.Payload) string {
	if p.Data == "" {
		return fmt.Sprintf("temporal.P(%d)", p.ID)
	}
	return fmt.Sprintf("temporal.Payload{ID: %d, Data: %q}", p.ID, p.Data)
}

// goElement renders one element constructor call.
func goElement(e temporal.Element) string {
	switch e.Kind {
	case temporal.KindInsert:
		return fmt.Sprintf("temporal.Insert(%s, %s, %s)", goPayload(e.Payload), goTime(e.Vs), goTime(e.Ve))
	case temporal.KindAdjust:
		return fmt.Sprintf("temporal.Adjust(%s, %s, %s, %s)", goPayload(e.Payload), goTime(e.Vs), goTime(e.VOld), goTime(e.Ve))
	default:
		return fmt.Sprintf("temporal.Stable(%s)", goTime(e.T()))
	}
}

// GoTest renders a ready-to-paste regression test for the minimized failure,
// in package diffcheck style: the literal streams, the failing configuration,
// and a Replay assertion. name must be a valid Go identifier suffix.
func (m *Minimized) GoTest(name string) string {
	var b strings.Builder
	d := m.Divergence
	fmt.Fprintf(&b, "// TestRegress%s pins a divergence found by the differential harness\n", name)
	fmt.Fprintf(&b, "// (seed %d, class %v, config %v):\n", d.Seed, d.Class, d.Config)
	fmt.Fprintf(&b, "//\n//\t%s\n", d.Detail)
	fmt.Fprintf(&b, "func TestRegress%s(t *testing.T) {\n", name)
	b.WriteString("\tstreams := []temporal.Stream{\n")
	for _, s := range m.Streams {
		b.WriteString("\t\t{\n")
		for _, e := range s {
			fmt.Fprintf(&b, "\t\t\t%s,\n", goElement(e))
		}
		b.WriteString("\t\t},\n")
	}
	b.WriteString("\t}\n")
	fmt.Fprintf(&b, "\tcfg := Config{Algo: %s, Exec: %s, Pipeline: %s, Order: %q}\n",
		d.Config.Algo.goName(), d.Config.Exec.goName(), d.Config.Pipeline.goName(), d.Config.Order)
	fmt.Fprintf(&b, "\tfor _, d := range Replay(cfg, %d, streams) {\n", d.Seed)
	b.WriteString("\t\tt.Errorf(\"%v\", d)\n")
	b.WriteString("\t}\n}\n")
	return b.String()
}

// FuzzCorpus renders each minimized stream as a "go test fuzz v1" corpus
// file body for internal/temporal's FuzzReconstitute, seeding the fuzzer with
// stream shapes that once exposed real divergences. The encoding is the wire
// format FuzzReconstitute decodes (temporal.WriteStream / ReadStream).
func (m *Minimized) FuzzCorpus() []string {
	var out []string
	for _, s := range m.Streams {
		var buf bytes.Buffer
		if err := temporal.WriteStream(&buf, s); err != nil {
			continue
		}
		out = append(out, fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", buf.Bytes()))
	}
	return out
}
