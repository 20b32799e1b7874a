package main

import (
	"errors"
	"os"
	"path/filepath"
	"time"

	"lmerge/internal/metrics"
)

// metric is one named value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output of one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The end-to-end metrics, in print order: the ones steady enough on the seed
// box to carry a regression bound. Three that the issue lists are not among
// them and are reported as layer metrics under an e2e. prefix instead.
// latency_p99_ms and catchup_eps spread 25–90% and 15–40% of their medians
// across seeds, wider than any bound allowed; failed_frac is 0 on a healthy
// run, and the result line already carries failed and attempted.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_eps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"server_cpu_s_per_mel", "s/Mel"},
	{"server_rss_peak_mb", "MiB"},
}

// runOpts is one invocation of the harness on one workload.
type runOpts struct {
	w       workload
	seed    int64
	seconds float64
	// events and reps override the workload's script size and the
	// time-derived rep count (the smoke test runs tiny and once).
	events, reps int
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	// lateSubs is how many catch-up subscribers drain the history, one after
	// another, once a saturation rep's readings are taken (traced runs only).
	lateSubs int
}

// runEnv is one completed set-up: the built server and the generated inputs.
// A paced run sends a script of a quarter of the size: the median latency
// differs from one paced run to the next by some 5% however long a run
// lasts, so a run takes many short ones.
type runEnv struct {
	root, bin string
	in, paced *inputs
}

// pacedRuns is how many paced runs a run takes the median over.
const pacedRuns = 8

// setUp builds lmserved, generates the script with its renderings, and
// starts a child, returning once the child accepts.
func setUp(o runOpts) (*runEnv, *child, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, nil, err
	}
	env := &runEnv{root: root}
	if env.bin, err = buildServer(root); err != nil {
		return nil, nil, err
	}
	events := o.w.Events
	if o.events > 0 {
		events = o.events
	}
	env.in = makeInputs(o.w, events, o.seed)
	env.paced = makeInputs(o.w, events/4, o.seed)
	c, err := startChild(root, env.bin, o.w)
	if err != nil {
		return nil, nil, err
	}
	return env, c, nil
}

// e2eDetail is what a run measures beyond the gated metrics: the JSON
// document records it, and a traced run reports the demoted end-to-end
// metrics and the server counts from it.
type e2eDetail struct {
	Argv           []string       `json:"lmserved_argv"`
	Reps           int            `json:"saturation_reps"`
	Throughputs    []float64      `json:"throughput_eps_reps"`
	LatencySamples int            `json:"latency_samples"` // fewest of any paced run
	LatencyP99     float64        `json:"latency_p99_ms"`  // median of the paced runs' p99s
	CatchupEPS     float64        `json:"catchup_eps"`     // median over reps; 0 without late subscribers
	GenLateP99     float64        `json:"gen_late_p99_ms"`
	GenBusy        float64        `json:"gen_cpu_frac"`
	Counters       serverCounters `json:"server_counters"` // the last rep's /metrics page

	env *runEnv // the last set-up, whose inputs a traced run replays
}

// measureE2E is a run against real children: repeated set-up, a discarded
// warm-up saturation rep, the paced runs, then saturation reps until the
// time is used, each on a fresh child. A paced run lasts elements ÷ rate
// seconds whatever --seconds says.
func measureE2E(o runOpts) (result, e2eDetail, error) {
	var t tally
	var det e2eDetail
	var c *child
	var setupSecs []float64
	for k := 0; k < o.setups; k++ {
		if c != nil {
			c.stop()
		}
		start := time.Now()
		var err error
		if det.env, c, err = setUp(o); err != nil {
			return result{}, det, err
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
	}
	env := det.env
	fresh := func() (*child, error) { return startChild(env.root, env.bin, o.w) }

	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	// Warm-up: page cache, the child binary's text, TCP loopback state. Its
	// sessions count; its numbers do not.
	repStart := time.Now()
	saturationRep(o.w, c, env.in, 0, &t)
	c.stop()
	repCost := time.Since(repStart)

	var err error
	var p50s, p99s, lates []float64
	for n := 0; n < pacedRuns; n++ {
		if c, err = fresh(); err != nil {
			return result{}, det, err
		}
		paced := drive(o.w, c, env.paced, o.w.Rate, &t)
		c.stop()
		if !paced.ok {
			continue
		}
		lat := metrics.Summarize(paced.lat)
		p50s = append(p50s, lat.P50)
		p99s = append(p99s, lat.P99)
		lates = append(lates, p99(paced.late))
		if det.LatencySamples == 0 || lat.N < det.LatencySamples {
			det.LatencySamples = lat.N
		}
	}

	var reps []satRep
	for n := 0; ; n++ {
		if o.reps > 0 && n >= o.reps {
			break
		}
		if o.reps == 0 && n >= 2 && time.Now().Add(repCost).After(deadline) {
			break
		}
		if c, err = fresh(); err != nil {
			return result{}, det, err
		}
		repStart = time.Now()
		r, ok := saturationRep(o.w, c, env.in, o.lateSubs, &t)
		c.stop()
		repCost = time.Since(repStart)
		if ok {
			reps = append(reps, r)
		}
	}

	res := result{Correct: !t.wrong, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if len(reps) == 0 || len(p50s) == 0 {
		return res, det, errors.New("no saturation rep or no paced run completed")
	}
	col := func(f func(satRep) float64) []float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return v
	}
	values := map[string]float64{
		"setup_s":              median(setupSecs),
		"throughput_eps":       median(col(func(r satRep) float64 { return r.throughput })),
		"latency_p50_ms":       median(p50s),
		"server_cpu_s_per_mel": median(col(func(r satRep) float64 { return r.cpuPerEl })) * 1e6,
		"server_rss_peak_mb":   median(col(func(r satRep) float64 { return r.rssMiB })),
	}
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	last := reps[len(reps)-1]
	det.Argv = last.argv
	det.Counters = last.counters
	det.Reps = len(reps)
	det.Throughputs = col(func(r satRep) float64 { return r.throughput })
	det.LatencyP99 = median(p99s)
	det.CatchupEPS = median(col(func(r satRep) float64 { return r.catchup }))
	det.GenLateP99 = median(lates)
	det.GenBusy = median(col(func(r satRep) float64 { return r.genBusy }))
	return res, det, nil
}
