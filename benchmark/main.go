// Command benchmark is the socket-level end-to-end benchmark of lmserved,
// with a per-layer stage table from a traced in-process replay. See
// README.md in this directory for the metric definitions and workloads.
//
// One run, as the acceptance driver invokes it:
//
//	go run ./benchmark --workload steady --seed 1 --seconds 15 --trace 0
//
// prints every end-to-end metric by name and unit and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
// With --trace 1 the metrics are the per-layer ones instead.
//
// Without --workload it runs every workload, five times round-robin, and
// writes a JSON document (-out) that -compare A.json B.json can judge.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// runSeconds is BENCHMARK.json's run_seconds: the measuring time the
// regression bounds were set for.
const runSeconds = 16

// setups is how many set-ups a --trace 0 run takes the setup_s median over.
const setups = 3

func main() {
	// The load generator gets at most two cores, one goroutine per
	// connection; the child keeps its own default.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	var (
		name    = flag.String("workload", "", "run this one workload and print the result line (empty: all workloads)")
		seed    = flag.Int64("seed", 1, "drives the script and every rendering")
		seconds = flag.Float64("seconds", runSeconds, "measuring time of one run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay")
		out     = flag.String("out", "", "all-workload mode: write the JSON document here")
		compare = flag.Bool("compare", false, "compare two JSON documents: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare A.json B.json"))
		}
		os.Exit(compareDocs(flag.Arg(0), flag.Arg(1)))
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *out))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	o := runOpts{w: w, seed: *seed, seconds: *seconds, setups: setups}
	var res result
	if *trace != 0 {
		res, err = measureLayers(o)
	} else {
		res, _, err = measureE2E(o)
	}
	if err != nil {
		fatal(err)
	}
	printMetrics(w.Name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics lists every metric of a run by name with its unit.
func printMetrics(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-10s %-36s %16.6g %s\n", workload, n, m.Value, m.Unit)
	}
	fmt.Printf("%-10s sessions: %d attempted, %d failed; output correct: %v\n",
		workload, res.Attempted, res.Failed, res.Correct)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}
