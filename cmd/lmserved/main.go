// Command lmserved runs Logical Merge as a network service and provides the
// matching publisher/subscriber client modes — the deployment shape of the
// paper's high-availability application (replicas on different machines
// feeding one LMerge at the consumer).
//
// Usage:
//
//	lmserved serve -addr 127.0.0.1:7171 -case R3 [-partitions 4]
//	lmgen -events 1000 -render-seed 1 | lmserved pub -addr 127.0.0.1:7171
//	lmgen -events 1000 -render-seed 2 | lmserved pub -addr 127.0.0.1:7171 -wire
//	lmserved sub -addr 127.0.0.1:7171 > merged.jsonl
//	lmserved sub -addr 127.0.0.1:7171 -wire > merged.jsonl
//
// The server negotiates both protocols on one listener: v1 JSON lines and
// the v2 binary wire protocol (internal/wire). -wire selects v2 for the
// pub/sub client modes — framed CRC-checked elements, encode-once broadcast
// blocks on the server, credit-based backpressure instead of
// disconnect-on-overflow.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"lmerge/internal/core"
	"lmerge/internal/metrics"
	"lmerge/internal/partition"
	"lmerge/internal/server"
	"lmerge/internal/temporal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "pub":
		publish(os.Args[2:])
	case "sub":
		subscribe(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lmserved serve|pub|sub [flags]")
	os.Exit(2)
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7171", "listen address")
	caseName := fs.String("case", "R3", "merge algorithm: R0, R1, R2, R3, R4")
	parts := fs.Int("partitions", 1, "keyed scale-out: merge partitions sharding ingestion by payload hash (1 = single merger)")
	rebalance := fs.Bool("rebalance", false, "adaptive hot-key repartitioning: move routing slots between partition workers under skew, pausing the pool for each move (needs -partitions > 1)")
	httpAddr := fs.String("http", "", "serve /metrics and /debug/trace on this address (e.g. 127.0.0.1:7172; empty disables)")
	statsEvery := fs.Duration("stats-every", 0, "log a telemetry line for each merge node at this period (0 disables)")
	dataDir := fs.String("data-dir", "", "durable merge state: WAL + checkpoints under this directory; restart jumpstarts from the latest checkpoint and replays the WAL tail (empty disables)")
	ckptEvery := fs.Duration("checkpoint-every", 0, "checkpoint period when -data-dir is set (0 = server default)")
	fsync := fs.Bool("fsync", false, "fsync every WAL append (survives power loss, not just process death)")
	memBudget := fs.Int("mem-budget", 0, "bound resident merge state to this many bytes: frozen agreed state spills to sorted on-disk runs (under -data-dir/spill when set) and replays on demand (0 disables)")
	creditDeadline := fs.Duration("credit-deadline", 0, "evict a binary (v2) subscriber that stays credit-stalled this long; 0 = server default")
	fs.Parse(args)

	c, err := parseCase(*caseName)
	if err != nil {
		fatal(err)
	}
	opts := server.Options{Case: c, FeedbackLag: -1, Partitions: *parts,
		DataDir: *dataDir, CheckpointEvery: *ckptEvery, Fsync: *fsync,
		MemBudget: *memBudget, CreditDeadline: *creditDeadline}
	if *rebalance {
		if *parts <= 1 {
			fatal(fmt.Errorf("-rebalance needs -partitions > 1"))
		}
		opts.Rebalance = &partition.RebalanceConfig{}
	}
	s, err := server.NewWithOptions(*addr, opts)
	if err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		d := s.Durability()
		if d.Recoveries > 0 {
			fmt.Fprintf(os.Stderr, "lmserved: recovered from %s — replayed %d WAL records (%d torn bytes discarded) in %.1fms, stable=%d\n",
				*dataDir, d.ReplayedRecords, d.TornBytes, float64(d.RecoveryLastNS)/1e6, int64(s.MaxStable()))
		} else {
			fmt.Fprintf(os.Stderr, "lmserved: durable state in %s (fsync=%v)\n", *dataDir, *fsync)
		}
	}
	if *memBudget > 0 {
		fmt.Fprintf(os.Stderr, "lmserved: resident merge state bounded to %d bytes (out-of-core spill)\n", *memBudget)
	}
	if *parts > 1 {
		mode := ""
		if *rebalance {
			mode = ", adaptive rebalancing"
		}
		fmt.Fprintf(os.Stderr, "lmserved: merging (%s, %d partitions%s) on %s — ctrl-c to stop\n", c, *parts, mode, s.Addr())
	} else {
		fmt.Fprintf(os.Stderr, "lmserved: merging (%s) on %s — ctrl-c to stop\n", c, s.Addr())
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		go http.Serve(ln, s.MetricsHandler())
		fmt.Fprintf(os.Stderr, "lmserved: metrics on http://%s/metrics, trace on /debug/trace\n", ln.Addr())
	}
	stopLog := make(chan struct{})
	if *statsEvery > 0 {
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopLog:
					return
				case <-tick.C:
					for _, snap := range s.Telemetry() {
						fmt.Fprintf(os.Stderr, "lmserved: %s\n", snap)
					}
				}
			}
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	close(stopLog)
	st := s.Stats()
	ps := s.PartitionStats()
	snaps := s.Telemetry()
	spSnap := s.SpillStats()
	ws := s.WireStats()
	s.Close()
	fmt.Fprintf(os.Stderr, "lmserved: done — in=%d out=%d dropped=%d warnings=%d\n",
		st.InElements(), st.OutElements(), st.Dropped, st.ConsistencyWarnings)
	if ws.FramesEncoded > 0 || ws.LinesEncoded > 0 {
		fmt.Fprintf(os.Stderr, "lmserved: wire — frames=%d (%dB encoded once) shared=%dB/%d frames history=%dB credit granted=%dB stalls=%d evictions=%d\n",
			ws.FramesEncoded, ws.FrameBytes, ws.SharedBytes, ws.SharedFrames,
			ws.HistoryBytes, ws.CreditGranted, ws.CreditStalls, ws.Evictions)
	}
	if *memBudget > 0 {
		fmt.Fprintf(os.Stderr, "lmserved: spill — runs=%d merged=%d spilled=%dB unspills=%d replay p95=%.0fns\n",
			spSnap.RunsWritten, spSnap.RunsMerged, spSnap.SpilledBytes, spSnap.Unspills, spSnap.ReplayP95NS)
	}
	for _, snap := range snaps {
		if snap.Name == "merge" {
			fmt.Fprintf(os.Stderr, "lmserved: freshness lag p50=%.0f p95=%.0f max=%d — leader stream %d (%d switches)\n",
				snap.Freshness.P50, snap.Freshness.P95, snap.Freshness.Max,
				snap.Leadership.Leader, snap.Leadership.Switches)
		}
	}
	if len(ps) > 0 {
		load := make([]float64, len(ps))
		for i, p := range ps {
			load[i] = float64(p.Processed)
			fmt.Fprintf(os.Stderr, "lmserved: partition %d — processed=%d queue=%d stable=%d lag=%d\n",
				i, p.Processed, p.QueueDepth, int64(p.Stable), int64(p.Lag))
		}
		fmt.Fprintf(os.Stderr, "lmserved: partition load %v imbalance=%.2f\n",
			metrics.Summarize(load), metrics.Imbalance(load))
	}
}

func publish(args []string) {
	fs := flag.NewFlagSet("pub", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7171", "server address")
	join := fs.Int64("join", int64(temporal.MinTime), "join guarantee timestamp (default: complete stream)")
	useWire := fs.Bool("wire", false, "publish over the v2 binary wire protocol (CRC-framed elements) instead of JSON lines")
	fs.Parse(args)

	var in *os.File
	switch fs.NArg() {
	case 0:
		in = os.Stdin
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	default:
		fatal(fmt.Errorf("pub takes at most one input file"))
	}
	connect := server.Connect
	if *useWire {
		connect = server.ConnectBinary
	}
	p, err := connect(*addr, temporal.Time(*join))
	if err != nil {
		fatal(err)
	}
	defer p.Close()
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n := 0
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		e, err := temporal.UnmarshalElement(sc.Bytes())
		if err != nil {
			fatal(err)
		}
		if err := p.Send(e); err != nil {
			fatal(err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if err := p.Flush(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "lmserved: published %d elements as stream %d\n", n, p.ID())
}

func subscribe(args []string) {
	fs := flag.NewFlagSet("sub", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7171", "server address")
	until := fs.Bool("until-complete", true, "exit once the merged stream reaches stable(∞)")
	useWire := fs.Bool("wire", false, "subscribe over the v2 binary wire protocol (credit-based flow control) instead of JSON lines")
	fs.Parse(args)

	subscribe := server.Subscribe
	if *useWire {
		subscribe = server.SubscribeBinary
	}
	sub, err := subscribe(*addr)
	if err != nil {
		fatal(err)
	}
	defer sub.Close()
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for {
		e, ok := sub.Next()
		if !ok {
			return
		}
		line, err := temporal.MarshalElement(e)
		if err != nil {
			fatal(err)
		}
		w.Write(line)
		w.WriteByte('\n')
		if *until && e.Kind == temporal.KindStable && e.T() == temporal.Infinity {
			return
		}
	}
}

func parseCase(name string) (core.Case, error) {
	switch strings.ToUpper(name) {
	case "R0":
		return core.CaseR0, nil
	case "R1":
		return core.CaseR1, nil
	case "R2":
		return core.CaseR2, nil
	case "R3", "R3+":
		return core.CaseR3, nil
	case "R4":
		return core.CaseR4, nil
	}
	return 0, fmt.Errorf("unknown case %q", name)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lmserved: %v\n", err)
	os.Exit(1)
}
