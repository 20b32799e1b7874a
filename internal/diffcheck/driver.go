package diffcheck

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"lmerge/internal/core"
	"lmerge/internal/engine"
	"lmerge/internal/operators"
	"lmerge/internal/partition"
	"lmerge/internal/temporal"
)

// Downstream pipeline shape: tumbling-window width and Top-K rank depth,
// sized so a default workload spans a few dozen windows.
const (
	pipeWidth = 40
	pipeK     = 3
)

// Divergence is one confirmed disagreement: a configuration whose output is
// not equivalent to the reference (the oracle, another configuration, or its
// own invariants). Under the paper's Sec. III–V compatibility theorems every
// divergence is a bug in the implementation, never a legal behaviour
// difference.
type Divergence struct {
	Seed   int64
	Class  Class
	Config Config
	// Against names the reference side: "oracle", "self", or a peer config.
	Against string
	Detail  string
}

// String renders the divergence report line.
func (d Divergence) String() string {
	return fmt.Sprintf("seed=%d class=%v config=%v vs %s: %s",
		d.Seed, d.Class, d.Config, d.Against, d.Detail)
}

// Options parameterises a differential run.
type Options struct {
	// Seeds is the number of seeds to sweep (default 50).
	Seeds int
	// StartSeed is the first seed (default 1).
	StartSeed int64
	// Streams is the number of divergent presentations per merge (default 3).
	Streams int
	// Events is the number of event histories per script (default 60).
	Events int
	// Quick trims the grid to one representative config per axis value, for
	// race-enabled short runs.
	Quick bool
	// MaxReport caps collected divergences (default 20); failing seeds are
	// still counted past the cap.
	MaxReport int
	// Parallel is the number of seeds checked concurrently (default
	// min(GOMAXPROCS, 8)). The report is deterministic regardless: results
	// are folded in seed order.
	Parallel int
	// Mutate, when set, wraps every direct-execution merger (ExecDirect and
	// ExecPartitioned) — the test hook that lets the harness verify it can
	// catch (and minimize) a planted bug.
	Mutate func(Config, core.Merger) core.Merger
}

func (o Options) withDefaults() Options {
	if o.Seeds == 0 {
		o.Seeds = 50
	}
	if o.StartSeed == 0 {
		o.StartSeed = 1
	}
	if o.Streams == 0 {
		o.Streams = 3
	}
	if o.Events == 0 {
		o.Events = 60
	}
	if o.MaxReport == 0 {
		o.MaxReport = 20
	}
	if o.Parallel == 0 {
		o.Parallel = min(runtime.GOMAXPROCS(0), 8)
	}
	return o
}

// Report summarises a differential sweep.
type Report struct {
	SeedsRun    int
	FailedSeeds int
	Runs        int // total configuration runs executed
	Divergences []Divergence
}

// Run sweeps seeds [StartSeed, StartSeed+Seeds) through the full grid,
// checking Parallel seeds concurrently.
func Run(opt Options) *Report {
	opt = opt.withDefaults()
	type seedResult struct {
		divs []Divergence
		runs int
	}
	results := make([]seedResult, opt.Seeds)
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(opt.Parallel, 1))
	for i := 0; i < opt.Seeds; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			divs, runs := checkSeed(opt.StartSeed+int64(i), opt)
			results[i] = seedResult{divs, runs}
		}(i)
	}
	wg.Wait()
	rep := &Report{}
	for _, r := range results {
		rep.SeedsRun++
		rep.Runs += r.runs
		if len(r.divs) > 0 {
			rep.FailedSeeds++
			for _, d := range r.divs {
				if len(rep.Divergences) < opt.MaxReport {
					rep.Divergences = append(rep.Divergences, d)
				}
			}
		}
	}
	return rep
}

// CheckSeed runs one seed through the grid and returns its divergences.
func CheckSeed(seed int64, opt Options) []Divergence {
	divs, _ := checkSeed(seed, opt.withDefaults())
	return divs
}

func checkSeed(seed int64, opt Options) ([]Divergence, int) {
	var divs []Divergence
	runs := 0
	for class := Class(0); class < classCount; class++ {
		w := buildWorkload(class, seed, opt.Streams, opt.Events)
		oracle, err := OracleOf(w.streams[0])
		if err != nil {
			divs = append(divs, Divergence{Seed: seed, Class: class, Against: "oracle",
				Detail: fmt.Sprintf("presentation 0 is not a valid stream: %v", err)})
			continue
		}
		// Cross-validate the generator itself: every presentation and the
		// script's ground-truth TDB must agree with the oracle.
		want := oracle.Events()
		if !eventsEqual(want, tdbEvents(w.script.TDB())) {
			divs = append(divs, Divergence{Seed: seed, Class: class, Against: "oracle",
				Detail: "script ground-truth TDB disagrees with oracle replay of presentation 0"})
			continue
		}
		for i := 1; i < len(w.streams); i++ {
			o2, err := OracleOf(w.streams[i])
			if err != nil || !eventsEqual(want, o2.Events()) {
				divs = append(divs, Divergence{Seed: seed, Class: class, Against: "oracle",
					Detail: fmt.Sprintf("presentation %d not mutually consistent with presentation 0 (err=%v)", i, err)})
			}
		}
		d, r := checkWorkload(w, oracle, opt)
		divs = append(divs, d...)
		runs += r
	}
	return divs, runs
}

// checkWorkload runs every eligible configuration over one workload and
// compares outputs against the oracle and pairwise.
func checkWorkload(w *workload, oracle *Oracle, opt Options) ([]Divergence, int) {
	var divs []Divergence
	cfgs := grid(w.class, opt.Quick)
	// Aggregate pipelines are compared pairwise within their group; the
	// first successful run's final TDB becomes the group reference.
	groupRef := make(map[Pipeline]*temporal.TDB)
	groupRefCfg := make(map[Pipeline]Config)
	for _, cfg := range cfgs {
		res := runConfig(cfg, w, opt)
		divs = append(divs, res.divs...)
		if res.err != nil {
			divs = append(divs, Divergence{Seed: w.seed, Class: w.class, Config: cfg,
				Against: "self", Detail: res.err.Error()})
			continue
		}
		if res.warnings != 0 {
			divs = append(divs, Divergence{Seed: w.seed, Class: w.class, Config: cfg,
				Against: "self", Detail: fmt.Sprintf("%d consistency warnings on mutually consistent inputs", res.warnings)})
		}
		var refEvents []temporal.Event
		var refFrozen func(temporal.Time) []temporal.Event
		against := "oracle"
		if cfg.oracleComparable() {
			refEvents = oracle.Events()
			refFrozen = oracle.Frozen
		} else if ref, ok := groupRef[cfg.Pipeline]; ok {
			refEvents = tdbEvents(ref)
			refFrozen = func(t temporal.Time) []temporal.Event { return tdbFrozen(ref, t) }
			against = groupRefCfg[cfg.Pipeline].String()
		}
		final, foldDivs := foldAndCheck(res.out, refFrozen, against, cfg, w)
		divs = append(divs, foldDivs...)
		if final == nil {
			continue
		}
		if !final.Stable().IsInf() {
			divs = append(divs, Divergence{Seed: w.seed, Class: w.class, Config: cfg, Against: "self",
				Detail: fmt.Sprintf("output stable point stalled at %v; all inputs delivered stable(∞)", final.Stable())})
		}
		if refEvents != nil {
			if got := tdbEvents(final); !eventsEqual(got, refEvents) {
				divs = append(divs, Divergence{Seed: w.seed, Class: w.class, Config: cfg, Against: against,
					Detail: fmt.Sprintf("final TDB diverges: got %s want %s", describeEvents(got), describeEvents(refEvents))})
			}
		} else if !cfg.oracleComparable() {
			groupRef[cfg.Pipeline] = final
			groupRefCfg[cfg.Pipeline] = cfg
		}
	}
	return divs, len(cfgs)
}

// grid enumerates the configuration cells eligible for a class.
func grid(class Class, quick bool) []Config {
	var cfgs []Config
	orders := []string{"roundrobin", "sequential", "random"}
	algos := class.algos()
	if quick {
		// One representative per axis value: the class's most general
		// algorithm everywhere, full exec coverage, one aggregate pipeline.
		a := algos[len(algos)-1]
		for x := Exec(0); x < execCount; x++ {
			if x == ExecPartitionedRebal && !a.handoffCapable() {
				continue
			}
			if x == ExecCrashRecover && !a.snapshotCapable() {
				continue
			}
			if (x == ExecSpill || x == ExecSpillCrash) && !a.spillCapable() {
				continue
			}
			if x == ExecSpillCrash && (!a.snapshotCapable() ||
				a == AlgoR3HalfFrozen || a == AlgoR3FullyFrozen || a == AlgoR3Quorum2) {
				continue
			}
			cfgs = append(cfgs, Config{Algo: a, Exec: x, Order: orders[int(x)%len(orders)]})
		}
		cfgs = append(cfgs,
			Config{Algo: a, Exec: ExecSync, Pipeline: PipeUnion, Order: "roundrobin"},
			Config{Algo: a, Exec: ExecRuntime, Pipeline: PipeCountAggressive, Order: "roundrobin"},
		)
		return cfgs
	}
	for _, a := range algos {
		for x := Exec(0); x < execCount; x++ {
			// The fully-frozen insert policy holds its output stable back to
			// the earliest unemitted event — a data-dependent holdback that
			// makes per-partition stables diverge, so no single global stable
			// point can caption the union snapshot. It is the one documented
			// partitioned exclusion (see internal/partition).
			if a == AlgoR3FullyFrozen && x.partitioned() {
				continue
			}
			// The migration axis needs live handoff support; algorithms
			// without it would silently degenerate to plain ExecPartitioned.
			if x == ExecPartitionedRebal && !a.handoffCapable() {
				continue
			}
			// The crash axis needs a checkpointable merger, like -data-dir.
			// Deferred-emission insert policies (frozen, quorum) are
			// additionally excluded, echoing the fully-frozen partitioned
			// exclusion: they hold inserts back behind a freshness/confirmation
			// threshold, so emitted-ness is extra state the backlog + snapshot
			// pair cannot restore — a jumpstarted merger either re-emits what
			// the backlog already shows or orphans later adjusts. The durable
			// server has the same boundary: -data-dir hosts only the default
			// immediate-emission mergers core.New constructs.
			if x == ExecCrashRecover && (!a.snapshotCapable() ||
				a == AlgoR3HalfFrozen || a == AlgoR3FullyFrozen || a == AlgoR3Quorum2) {
				continue
			}
			// The spill axes need frozen-state extraction (core.FrozenExtractor,
			// via the spill wrapper's Capable gate — the server's -mem-budget
			// boundary). The crash variant additionally inherits every
			// ExecCrashRecover exclusion: a spilled run replays through the same
			// snapshot + jumpstart path a checkpoint does.
			if (x == ExecSpill || x == ExecSpillCrash) && !a.spillCapable() {
				continue
			}
			if x == ExecSpillCrash && (!a.snapshotCapable() ||
				a == AlgoR3HalfFrozen || a == AlgoR3FullyFrozen || a == AlgoR3Quorum2) {
				continue
			}
			// Rotate the deterministic delivery order so every (algo, order)
			// pair appears across the grid without cubing its size.
			cfgs = append(cfgs, Config{Algo: a, Exec: x, Order: orders[(int(a)+int(x))%len(orders)]})
		}
	}
	// Pipelines ride on the representative algorithms of the class.
	pipeAlgos := intersectAlgos(algos, []Algo{AlgoR1, AlgoR2, AlgoR3, AlgoR3Naive, AlgoR4})
	for _, p := range []Pipeline{PipeUnion, PipeCount, PipeCountAggressive, PipeTopK} {
		for _, a := range pipeAlgos {
			for _, x := range []Exec{ExecSync, ExecRuntime} {
				cfgs = append(cfgs, Config{Algo: a, Exec: x, Pipeline: p, Order: "roundrobin"})
			}
		}
	}
	return cfgs
}

func intersectAlgos(have, want []Algo) []Algo {
	var out []Algo
	for _, a := range want {
		for _, h := range have {
			if a == h {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// result is one configuration run's raw outcome.
type result struct {
	out      temporal.Stream
	err      error
	warnings int64
	divs     []Divergence // divergences detected during the run (snapshots)
}

// runConfig executes one grid cell over the workload's streams.
func runConfig(cfg Config, w *workload, opt Options) result {
	switch cfg.Exec {
	case ExecDirect, ExecPartitioned, ExecPartitionedRebal:
		return runDirect(cfg, w, opt)
	case ExecCrashRecover, ExecSpillCrash:
		return runCrashRecover(cfg, w, opt)
	case ExecSpill:
		return runSpill(cfg, w, opt)
	case ExecSharded:
		return runSharded(cfg, w)
	default:
		return runEngine(cfg, w, opt)
	}
}

// runDirect drives the bare merger — or, for the partitioned execs, the keyed
// partition wrapper — with Process calls in a deterministic interleaving,
// checkpointing via Snapshot at every output stable advance.
// ExecPartitionedRebal additionally forces a slot migration every few
// deliveries, so the same oracle/snapshot checks cover the key-range handoff.
func runDirect(cfg Config, w *workload, opt Options) result {
	var out temporal.Stream
	emit := func(e temporal.Element) { out = append(out, e) }
	var m core.Merger
	if cfg.Exec == ExecPartitioned || cfg.Exec == ExecPartitionedRebal {
		m = cfg.Algo.NewPartitionedMerger(diffPartitions, emit)
	} else {
		m = cfg.Algo.NewMerger(emit)
	}
	var reb partition.Rebalancer
	var res result
	if cfg.Exec == ExecPartitionedRebal {
		var ok bool
		if reb, ok = m.(partition.Rebalancer); !ok {
			res.err = fmt.Errorf("partitioned merger does not implement partition.Rebalancer")
			return res
		}
	}
	if opt.Mutate != nil {
		m = opt.Mutate(cfg, m)
	}
	for i := range w.streams {
		m.Attach(i)
	}
	prefix := temporal.NewTDB() // output prefix TDB, for snapshot equivalence
	applied := 0
	prevStable := temporal.MinTime
	sn, canSnap := m.(core.Snapshotter)
	pos := make([]int, len(w.streams))
	step := 0
	for _, s := range deliveryOrder(cfg.Order, streamLens(w.streams), w.seed) {
		e := w.streams[s][pos[s]]
		pos[s]++
		if err := m.Process(s, e); err != nil {
			res.err = fmt.Errorf("process %v from stream %d: %v", e, s, err)
			return res
		}
		step++
		if reb != nil && step%4 == 0 {
			// Deterministic slot sweep: (seed, step)-derived so every seed
			// exercises a different migration schedule.
			slot := int(uint64(w.seed*13+int64(step)*7) % partition.Slots)
			to := int(uint64(w.seed+int64(step/4)) % diffPartitions)
			reb.MigrateSlot(slot, to)
			if got := reb.SlotOwner(slot); got != to {
				res.err = fmt.Errorf("step %d: SlotOwner(%d) = %d after migrate to %d", step, slot, got, to)
				return res
			}
		}
		for ; applied < len(out); applied++ {
			// Invalid emissions are reported by foldAndCheck; keep folding so
			// snapshot comparisons see the merger's best-effort state.
			_ = prefix.Apply(out[applied])
		}
		if canSnap && m.MaxStable() > prevStable {
			prevStable = m.MaxStable()
			res.divs = append(res.divs, checkSnapshot(cfg, w, sn, prefix, prevStable)...)
		}
	}
	res.out = out
	res.warnings = m.Stats().ConsistencyWarnings
	return res
}

// checkSnapshot verifies the checkpoint invariant at one stable point: the
// snapshot must be a valid stream that reconstitutes exactly to the output's
// live region (every event still contributing at the stable point).
func checkSnapshot(cfg Config, w *workload, sn core.Snapshotter, prefix *temporal.TDB, st temporal.Time) []Divergence {
	snap := sn.Snapshot()
	tdb, err := temporal.Reconstitute(snap)
	if err != nil {
		return []Divergence{{Seed: w.seed, Class: w.class, Config: cfg, Against: "self",
			Detail: fmt.Sprintf("snapshot at stable(%v) is not a valid stream: %v", st, err)}}
	}
	if tdb.Stable() != st {
		return []Divergence{{Seed: w.seed, Class: w.class, Config: cfg, Against: "self",
			Detail: fmt.Sprintf("snapshot stable point %v != output stable point %v", tdb.Stable(), st)}}
	}
	got := tdbEvents(tdb)
	want := tdbLive(prefix, st)
	if !eventsEqual(got, want) {
		return []Divergence{{Seed: w.seed, Class: w.class, Config: cfg, Against: "self",
			Detail: fmt.Sprintf("snapshot at stable(%v) diverges from live output state: got %s want %s",
				st, describeEvents(got), describeEvents(want))}}
	}
	return nil
}

// sinkOp collects everything the pipeline tail emits.
type sinkOp struct {
	els temporal.Stream
}

func (s *sinkOp) Name() string                                     { return "sink" }
func (s *sinkOp) Process(_ int, e temporal.Element, _ *engine.Out) { s.els = append(s.els, e) }
func (s *sinkOp) OnFeedback(temporal.Time) bool                    { return true }

// buildGraph assembles sources → [union] → lmerge → [aggregate] → sink.
func buildGraph(cfg Config, n int) (g *engine.Graph, lm *operators.LMerge, lmNode *engine.Node, unions []*engine.Node, sink *sinkOp) {
	g = engine.NewGraph()
	lm = operators.NewLMerge(n, -1, func(emit core.Emit) core.Merger { return cfg.Algo.NewMerger(emit) })
	lmNode = g.Add(lm)
	if cfg.Pipeline == PipeUnion {
		for i := 0; i < n; i++ {
			u := g.Add(operators.NewUnion(2))
			g.Connect(u, lmNode)
			unions = append(unions, u)
		}
	}
	sink = attachTail(g, cfg, lmNode)
	return g, lm, lmNode, unions, sink
}

// attachTail appends cfg's aggregate stage (if any) and the collecting sink
// behind tail, returning the sink.
func attachTail(g *engine.Graph, cfg Config, tail *engine.Node) *sinkOp {
	switch cfg.Pipeline {
	case PipeCount:
		next := g.Add(operators.NewCount(pipeWidth, false))
		g.Connect(tail, next)
		tail = next
	case PipeCountAggressive:
		next := g.Add(operators.NewCount(pipeWidth, true))
		g.Connect(tail, next)
		tail = next
	case PipeTopK:
		next := g.Add(operators.NewTopK(pipeWidth, pipeK))
		g.Connect(tail, next)
		tail = next
	}
	sink := &sinkOp{}
	g.Connect(tail, g.Add(sink))
	return sink
}

// runEngine drives the graph through the synchronous executor or the
// concurrent runtime (batched or element-at-a-time).
func runEngine(cfg Config, w *workload, opt Options) result {
	n := len(w.streams)
	g, lm, lmNode, unions, sink := buildGraph(cfg, n)
	var res result
	if cfg.Exec == ExecSync {
		pos := make([]int, n)
		split := make([]int, n)
		for _, s := range deliveryOrder(cfg.Order, streamLens(w.streams), w.seed) {
			e := w.streams[s][pos[s]]
			pos[s]++
			if unions != nil {
				if e.Kind == temporal.KindStable {
					unions[s].InjectPort(0, e)
					unions[s].InjectPort(1, e)
				} else {
					unions[s].InjectPort(split[s]%2, e)
					split[s]++
				}
			} else {
				lmNode.InjectPort(s, e)
			}
		}
	} else {
		bs := 0 // default
		if cfg.Exec == ExecRuntimeUnbatched {
			bs = 1
		}
		r := engine.NewRuntime(g, engine.WithBatchSize(bs))
		r.Start()
		var wg sync.WaitGroup
		for i := range w.streams {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if unions != nil {
					k := 0
					for _, e := range w.streams[i] {
						if e.Kind == temporal.KindStable {
							r.InjectPort(unions[i], 0, e)
							r.InjectPort(unions[i], 1, e)
						} else {
							r.InjectPort(unions[i], k%2, e)
							k++
						}
					}
				} else {
					r.InjectBatchPort(lmNode, i, w.streams[i])
				}
			}(i)
		}
		wg.Wait()
		if err := r.Close(); err != nil {
			res.err = err
			return res
		}
	}
	res.out = sink.els
	res.warnings = lm.Operator().Merger().Stats().ConsistencyWarnings
	return res
}

// foldAndCheck folds an output stream into its final TDB, verifying element
// validity and — at every output stable point — that the fully frozen region
// matches the reference (frozen events can never change again, so any
// difference there is already irrecoverable). refFrozen may be nil when no
// reference exists yet (the run then only self-checks validity).
func foldAndCheck(out temporal.Stream, refFrozen func(temporal.Time) []temporal.Event,
	against string, cfg Config, w *workload) (*temporal.TDB, []Divergence) {
	final := temporal.NewTDB()
	last := temporal.MinTime
	for i, e := range out {
		if err := final.Apply(e); err != nil {
			return nil, []Divergence{{Seed: w.seed, Class: w.class, Config: cfg, Against: "self",
				Detail: fmt.Sprintf("output element %d invalid on its own stream: %v", i, err)}}
		}
		if e.Kind == temporal.KindStable && e.T() > last && refFrozen != nil {
			last = e.T()
			got := tdbFrozen(final, last)
			want := refFrozen(last)
			if !eventsEqual(got, want) {
				return final, []Divergence{{Seed: w.seed, Class: w.class, Config: cfg, Against: against,
					Detail: fmt.Sprintf("frozen surface at stable(%v) diverges: got %s want %s",
						last, describeEvents(got), describeEvents(want))}}
			}
		}
	}
	return final, nil
}

// streamLens returns each stream's element count.
func streamLens(streams []temporal.Stream) []int {
	lens := make([]int, len(streams))
	for i, s := range streams {
		lens[i] = len(s)
	}
	return lens
}

// deliveryOrder enumerates a deterministic interleaving: each entry names the
// stream whose next undelivered element is processed.
func deliveryOrder(name string, lens []int, seed int64) []int {
	n := len(lens)
	total := 0
	for _, l := range lens {
		total += l
	}
	order := make([]int, 0, total)
	switch name {
	case "sequential":
		for s := 0; s < n; s++ {
			for i := 0; i < lens[s]; i++ {
				order = append(order, s)
			}
		}
	case "random":
		rng := rand.New(rand.NewSource(seed * 31))
		left := append([]int(nil), lens...)
		for remaining := total; remaining > 0; {
			s := rng.Intn(n)
			if left[s] > 0 {
				order = append(order, s)
				left[s]--
				remaining--
			}
		}
	default: // roundrobin
		left := append([]int(nil), lens...)
		for remaining := total; remaining > 0; {
			for s := 0; s < n; s++ {
				if left[s] > 0 {
					order = append(order, s)
					left[s]--
					remaining--
				}
			}
		}
	}
	return order
}

// sortDivergences orders reports for stable output: by class, then config.
func sortDivergences(divs []Divergence) {
	sort.SliceStable(divs, func(i, j int) bool {
		if divs[i].Seed != divs[j].Seed {
			return divs[i].Seed < divs[j].Seed
		}
		if divs[i].Class != divs[j].Class {
			return divs[i].Class < divs[j].Class
		}
		return divs[i].Config.String() < divs[j].Config.String()
	})
}
