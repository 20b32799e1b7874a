package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// The per-layer metrics, in the order of the README's table. Every workload
// reports all of them; a layer that is not on a workload's path reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"wire.decode_ns_per_el", "ns"},
	{"wire.encode_ns_per_el", "ns"},
	{"wire.bytes_per_el", "B"},
	{"wire.allocs_per_el", "count"},
	{"wire.blocklog_append_ns_per_el", "ns"},
	{"wire.copyout_ns_per_sub_el", "ns"},
	{"wire.retained_bytes_peak", "B"},
	{"temporal.marshal_ns_per_el", "ns"},
	{"temporal.unmarshal_ns_per_el", "ns"},
	{"temporal.json_bytes_per_el", "B"},
	{"core.merge_ns_per_el", "ns"},
	{"core.allocs_per_el", "count"},
	{"core.out_per_in", "ratio"},
	{"core.state_peak_bytes", "B"},
	{"partition.process_ns_per_el", "ns"},
	{"partition.overhead_ns_per_el", "ns"},
	{"partition.load_skew", "ratio"},
	{"durable.wal_append_ns_per_rec", "ns"},
	{"durable.wal_bytes_per_el", "B"},
	{"durable.checkpoint_ms_full_history", "ms"},
	{"durable.checkpoint_bytes", "B"},
	{"durable.recover_ms", "ms"},
	{"spill.process_ns_per_el", "ns"},
	{"spill.runs_written", "count"},
	{"spill.bytes_spilled", "B"},
	{"spill.readmits", "count"},
	{"spill.resident_peak_bytes", "B"},
	{"server.backlog_len", "count"},
	{"server.credit_stalls", "count"},
	{"server.evictions", "count"},
	{"server.cpu_ns_per_el", "ns"},
	{"server.unattributed_frac", "ratio"},
	{"gen.late_p99_ms", "ms"},
	{"gen.cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"e2e.latency_p99_ms", "ms"},
	{"e2e.catchup_eps", "1/s"},
	{"e2e.failed_frac", "ratio"},
	{"e2e.spill_throughput_eps", "1/s"},
	{"e2e.spill_rss_peak_mb", "MiB"},
	{"e2e.spill_failed_frac", "ratio"},
	{"e2e.spill_runs_written", "count"},
	{"e2e.spill_readmits", "count"},
}

// lateSubscribers is how many catch-up subscribers drain the history, one
// after another, after each saturation rep of a traced run.
const lateSubscribers = 3

// minLatencySamples is what the p99 needs: ten samples beyond it.
const minLatencySamples = 1000

// tightBudget is the issue's -mem-budget for bigstate: an eighth of the merge
// state's peak, so the live server extracts and re-admits spill runs
// throughout. The gated runs use a budget that never binds (workloads.go says
// why); a traced run adds one saturation rep under this one.
const tightBudget = 4 << 20

// genLateLimitMS and genBusyLimit mark a run invalid: past them the load
// generator, not the server, is what the end-to-end numbers measure.
const (
	genLateLimitMS = 5.0
	genBusyLimit   = 0.9
)

// measureLayers is a --trace 1 run. Its first half is measureE2E with one
// set-up and catch-up subscribers, which gives the demoted end-to-end
// metrics, the /metrics counts and the server's CPU per element. Then, with
// no child left running, the in-process replay gives the cost lines,
// repeated while time remains, medians reported.
func measureLayers(o runOpts) (result, error) {
	begin := time.Now()
	e := o
	e.seconds, e.setups, e.lateSubs = o.seconds/2, 1, lateSubscribers
	live, det, err := measureE2E(e)
	if err != nil {
		return result{}, err
	}
	if det.LatencySamples < minLatencySamples && o.events == 0 {
		return result{}, fmt.Errorf("a paced run gave %d latency samples; the p99 needs %d", det.LatencySamples, minLatencySamples)
	}
	env, in := det.env, det.env.in
	var tight satRep
	var tightTally tally
	if o.w.MemBudget > 0 {
		w := o.w
		w.MemBudget = tightBudget
		c, err := startChild(env.root, env.bin, w)
		if err != nil {
			return result{}, err
		}
		tight, _ = saturationRep(w, c, in, 0, &tightTally)
		c.stop()
	}

	enc := make([][]byte, publishers)
	for p, s := range in.streams {
		if enc[p], err = encodeStream(s, o.w.Text); err != nil {
			return result{}, err
		}
	}
	scratch := filepath.Join(env.root, buildDir, "replay-"+o.w.Name)
	var passes []layerPass
	deadline := begin.Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; n < 5; n++ {
		passStart := time.Now()
		lp, err := runLayerPass(o.w, in, enc, scratch)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, lp)
		cost := time.Since(passStart)
		if o.reps > 0 || time.Now().Add(cost).After(deadline) {
			break
		}
	}
	last := passes[len(passes)-1]
	if err := writeTrace(env.root, o.w, last.spans); err != nil {
		return result{}, err
	}

	med := func(f func(layerPass) float64) float64 {
		v := make([]float64, len(passes))
		for i, lp := range passes {
			v[i] = f(lp)
		}
		return median(v)
	}
	inEls := float64(in.elements)
	outEls := float64(last.outputs)
	selfPer := func(name string, per float64) float64 {
		if per == 0 {
			return 0
		}
		return med(func(lp layerPass) float64 { return float64(lp.self[name]) / per })
	}
	var encBytes int
	for _, b := range enc {
		encBytes += len(b)
	}
	stageSum := med(func(lp layerPass) float64 {
		var sum time.Duration
		for _, d := range lp.self {
			sum += d
		}
		return float64(sum) / inEls
	})
	cpuNS := live.Metrics["server_cpu_s_per_mel"].Value * 1e3
	coreNS := med(func(lp layerPass) float64 { return lp.core.nsPerEl })
	partNS := med(func(lp layerPass) float64 { return lp.partNS })

	v := map[string]float64{
		"core.merge_ns_per_el":               coreNS,
		"core.allocs_per_el":                 last.core.allocsPerEl,
		"core.out_per_in":                    last.core.outPerIn,
		"core.state_peak_bytes":              float64(last.core.statePeak),
		"durable.wal_append_ns_per_rec":      selfPer("durable.wal_append", float64(last.walRecs)),
		"durable.wal_bytes_per_el":           float64(last.walBytes) / inEls,
		"durable.checkpoint_ms_full_history": med(func(lp layerPass) float64 { return lp.ckptMS }),
		"durable.checkpoint_bytes":           float64(last.ckptBytes),
		"durable.recover_ms":                 med(func(lp layerPass) float64 { return lp.loadMS }),
		"spill.process_ns_per_el":            med(func(lp layerPass) float64 { return lp.spill.nsPerEl }),
		"spill.runs_written":                 float64(last.spill.tel.RunsWritten),
		"spill.bytes_spilled":                float64(last.spill.tel.SpilledBytes),
		"spill.readmits":                     float64(last.spill.tel.Unspills),
		"spill.resident_peak_bytes":          float64(last.spill.residentPeak),
		"partition.process_ns_per_el":        partNS,
		"partition.load_skew":                last.skew,
		"server.backlog_len":                 float64(det.Counters.Service.Backlog),
		"server.credit_stalls":               float64(det.Counters.Service.Wire.CreditStalls),
		"server.evictions":                   float64(det.Counters.Service.Wire.Evictions),
		"server.cpu_ns_per_el":               cpuNS,
		"server.unattributed_frac":           1 - stageSum/cpuNS,
		"gen.late_p99_ms":                    det.GenLateP99,
		"gen.cpu_frac":                       det.GenBusy,
		"trace.overhead_frac":                med(func(lp layerPass) float64 { return float64(lp.traced)/float64(lp.untraced) - 1 }),
		"e2e.latency_p99_ms":                 det.LatencyP99,
		"e2e.catchup_eps":                    det.CatchupEPS,
		"e2e.failed_frac":                    float64(live.Failed) / float64(live.Attempted),
		"e2e.spill_throughput_eps":           tight.throughput,
		"e2e.spill_rss_peak_mb":              tight.rssMiB,
		"e2e.spill_runs_written":             float64(tight.counters.Service.Spill.RunsWritten),
		"e2e.spill_readmits":                 float64(tight.counters.Service.Spill.Readmits),
	}
	if tightTally.attempted > 0 {
		v["e2e.spill_failed_frac"] = float64(tightTally.failed) / float64(tightTally.attempted)
	}
	if o.w.Partitions > 1 {
		v["partition.overhead_ns_per_el"] = partNS - coreNS
	}
	if o.w.Text {
		v["temporal.unmarshal_ns_per_el"] = selfPer("temporal.unmarshal", inEls)
		v["temporal.marshal_ns_per_el"] = selfPer("temporal.marshal", outEls)
		v["temporal.json_bytes_per_el"] = float64(encBytes) / inEls
	} else {
		v["wire.decode_ns_per_el"] = selfPer("wire.decode", inEls)
		v["wire.encode_ns_per_el"] = med(func(lp layerPass) float64 { return lp.encodeNS })
		v["wire.bytes_per_el"] = float64(encBytes) / inEls
		v["wire.allocs_per_el"] = last.wireAlloc
		v["wire.blocklog_append_ns_per_el"] = selfPer("wire.blocklog_append", outEls)
		v["wire.copyout_ns_per_sub_el"] = selfPer("wire.copyout", outEls*float64(o.w.Subs))
		v["wire.retained_bytes_peak"] = float64(last.retained)
	}

	res := result{
		Correct:   live.Correct && !tightTally.wrong,
		Attempted: live.Attempted + tightTally.attempted,
		Failed:    live.Failed + tightTally.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	printStageTable(o.w, last, inEls, cpuNS)
	if late, busy := v["gen.late_p99_ms"], v["gen.cpu_frac"]; late > genLateLimitMS || busy > genBusyLimit {
		fmt.Printf("%-10s INVALID as a server measurement: generator late p99 %.2f ms, generator busy %.2f — the load generator is the bottleneck\n",
			o.w.Name, late, busy)
	}
	return res, nil
}

// printStageTable lists the traced replay's self time per stage, per input
// element, against the server's measured CPU per element: the part the
// stages do not explain is server.unattributed_frac.
func printStageTable(w workload, lp layerPass, inEls, cpuNS float64) {
	names := make([]string, 0, len(lp.self))
	var sum float64
	for n, d := range lp.self {
		names = append(names, n)
		sum += float64(d) / inEls
	}
	sort.Slice(names, func(i, j int) bool { return lp.self[names[i]] > lp.self[names[j]] })
	fmt.Printf("%-10s stage self time per input element (last traced replay)\n", w.Name)
	for _, n := range names {
		ns := float64(lp.self[n]) / inEls
		fmt.Printf("%-10s   %-26s %10.1f ns  %5.1f%% of stages\n", w.Name, n, ns, 100*ns/sum)
	}
	fmt.Printf("%-10s   %-26s %10.1f ns  = %.1f%% of the server's %.1f CPU-ns per element\n",
		w.Name, "all stages", sum, 100*sum/cpuNS, cpuNS)
}
