// Command lmbench regenerates the paper's evaluation tables and figures
// (Section VI) and prints them as aligned text tables, with time series
// rendered as sparklines.
//
// Usage:
//
//	lmbench                          # run everything at paper scale
//	lmbench -exp fig7,fig10          # selected experiments
//	lmbench -events 20000 -payload 64
//
// Absolute numbers depend on the machine; the shapes (who wins, scaling
// trends, crossovers) are what reproduce the paper. See EXPERIMENTS.md for
// the recorded comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"lmerge/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (fig2..fig10, tableiv) or 'all'")
	events := flag.Int("events", bench.Paper.Events, "event histories per workload")
	payload := flag.Int("payload", bench.Paper.PayloadBytes, "payload string bytes")
	list := flag.Bool("list", false, "list experiment ids and exit")
	format := flag.String("format", "table", "output format: table or csv")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the experiments) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lmbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lmbench: start CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lmbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live allocations, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "lmbench: write heap profile: %v\n", err)
			}
		}()
	}

	registry := bench.Experiments()
	if *list {
		ids := make([]string, 0, len(registry))
		for id := range registry {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println(strings.Join(ids, "\n"))
		return
	}

	scale := bench.Scale{Events: *events, PayloadBytes: *payload}
	var ids []string
	if *exp == "all" {
		ids = []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "tableiv", "scale", "ablation-policies", "ablation-feedback", "ablation-jumpstart"}
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "lmbench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		table := run(scale)
		if *format == "csv" {
			fmt.Printf("# %s: %s\n%s\n", table.ID, table.Title, table.CSV())
			continue
		}
		fmt.Println(table)
		fmt.Printf("  (%s in %.1fs, %d events, %dB payloads)\n\n", id, time.Since(start).Seconds(), scale.Events, scale.PayloadBytes)
	}
}
