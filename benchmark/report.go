package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json: the names, units, directions and regression
// bounds the harness's numbers are judged by.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(root string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(data, &spec)
}

// document is what -out writes and -compare reads: one schema for every run
// of the harness, with the environment attached.
type document struct {
	Env       envBlock      `json:"env"`
	Workloads []workloadDoc `json:"workloads"`
}

type envBlock struct {
	NumCPU          int     `json:"num_cpu"`
	GOMAXPROCS      int     `json:"gomaxprocs_harness"`
	ChildGOMAXPROCS int     `json:"gomaxprocs_child"`
	GoVersion       string  `json:"go_version"`
	Commit          string  `json:"commit"`
	Seed            int64   `json:"seed"`
	Seconds         float64 `json:"seconds"`
	Sets            int     `json:"sets"`
}

type workloadDoc struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Argv      []string               `json:"lmserved_argv"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	EndToEnd  map[string]*e2eSummary `json:"end_to_end"`
	PerLayer  map[string]metric      `json:"per_layer"`
	Detail    e2eDetail              `json:"last_run"`
}

// e2eSummary is one end-to-end metric over a workload's runs.
type e2eSummary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func (s *e2eSummary) summarise() {
	s.N = len(s.Values)
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
}

// childProcs is the GOMAXPROCS the child ends up with: the harness passes
// its environment through and lmserved sets nothing itself.
func childProcs() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sets is how many runs per workload the one-command form makes. The
// bounds in BENCHMARK.json and the unresolved test (quartiles of a workload's
// runs) were calibrated on this shape, so it is not a flag.
const sets = 5

// runAll is the one-command form: every workload, sets runs each, interleaved
// round-robin so that drift over the session hits every workload equally,
// then one traced run per workload for the layer table. It prints every
// metric by name with its unit and writes the JSON document.
func runAll(seed int64, seconds float64, out string) int {
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		fatal(err)
	}
	doc := document{Env: envBlock{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), ChildGOMAXPROCS: childProcs(),
		GoVersion: runtime.Version(), Commit: commit(root), Seed: seed, Seconds: seconds, Sets: sets,
	}}
	for _, w := range workloads {
		wd := workloadDoc{Name: w.Name, Why: w.Why, Correct: true, EndToEnd: map[string]*e2eSummary{}}
		for _, m := range spec.EndToEnd {
			wd.EndToEnd[m.Name] = &e2eSummary{Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		}
		doc.Workloads = append(doc.Workloads, wd)
	}
	status := 0
	for set := 0; set < sets; set++ {
		for i, w := range workloads {
			wd := &doc.Workloads[i]
			fmt.Fprintf(os.Stderr, "benchmark: set %d/%d, %s\n", set+1, sets, w.Name)
			res, det, err := measureE2E(runOpts{w: w, seed: seed, seconds: seconds, setups: setups})
			wd.Attempted += res.Attempted
			wd.Failed += res.Failed
			wd.Correct = wd.Correct && res.Correct && err == nil
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				status = 1
				continue
			}
			wd.Argv, wd.Detail = det.Argv, det
			for name, m := range res.Metrics {
				if s := wd.EndToEnd[name]; s != nil {
					s.Values = append(s.Values, m.Value)
				}
			}
		}
	}
	for i, w := range workloads {
		wd := &doc.Workloads[i]
		fmt.Fprintf(os.Stderr, "benchmark: traced run, %s\n", w.Name)
		res, err := measureLayers(runOpts{w: w, seed: seed, seconds: seconds})
		wd.Attempted += res.Attempted
		wd.Failed += res.Failed
		wd.Correct = wd.Correct && res.Correct && err == nil
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			status = 1
			continue
		}
		wd.PerLayer = res.Metrics
	}

	for i := range doc.Workloads {
		wd := &doc.Workloads[i]
		for _, m := range spec.EndToEnd {
			s := wd.EndToEnd[m.Name]
			s.summarise()
			// A spread wider than the bound cannot support a verdict in
			// either direction: say so instead of printing a number that
			// looks like one.
			note := ""
			if spread(s.Values) > s.Bound {
				note = "  unresolved: spread exceeds the bound"
			}
			fmt.Printf("%-10s %-24s median %14.6g %-6s q1 %14.6g  q3 %14.6g  n %d  spread %5.1f%%  bound %4.1f%%%s\n",
				wd.Name, m.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N, 100*spread(s.Values), 100*s.Bound, note)
		}
		for _, m := range layerMetrics {
			fmt.Printf("%-10s %-36s %16.6g %s\n", wd.Name, m.name, wd.PerLayer[m.name].Value, m.unit)
		}
		fmt.Printf("%-10s failed_frac %d/%d sessions; output correct: %v\n", wd.Name, wd.Failed, wd.Attempted, wd.Correct)
		if !wd.Correct {
			status = 1
		}
	}
	for _, w := range workloads {
		if w.Partitions > runtime.NumCPU() {
			fmt.Printf("%-10s %d partitions on %d CPUs: no speed-up ratio is given; judge by server_cpu_s_per_mel\n",
				w.Name, w.Partitions, runtime.NumCPU())
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	return status
}

func readDoc(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	return doc, json.Unmarshal(data, &doc)
}

// verdict judges B against A for one metric: worse or better only when the
// medians differ by more than the bound, unresolved when either side's own
// spread is wider than the bound, same otherwise.
func verdict(a, b *e2eSummary) string {
	if spread(a.Values) > a.Bound || spread(b.Values) > a.Bound {
		return "unresolved"
	}
	change := (b.Median - a.Median) / a.Median
	if a.Better == "higher" {
		change = -change
	}
	switch {
	case change > a.Bound:
		return "worse"
	case change < -a.Bound:
		return "better"
	}
	return "same"
}

// compareDocs prints one row per (workload, end-to-end metric) of B against
// A and returns non-zero on any worse row or a higher failed fraction.
func compareDocs(pathA, pathB string) int {
	a, err := readDoc(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readDoc(pathB)
	if err != nil {
		fatal(err)
	}
	byName := map[string]workloadDoc{}
	for _, wd := range b.Workloads {
		byName[wd.Name] = wd
	}
	status := 0
	fmt.Printf("%-10s %-24s %14s %14s %-6s %6s  %s\n", "workload", "metric", "A median", "B median", "unit", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Printf("%-10s missing from %s\n", wa.Name, pathB)
			status = 1
			continue
		}
		for _, m := range e2eMetrics {
			sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			if sa == nil || sb == nil || sa.N == 0 || sb.N == 0 {
				fmt.Printf("%-10s %-24s missing on one side\n", wa.Name, m.name)
				status = 1
				continue
			}
			v := verdict(sa, sb)
			if v == "worse" {
				status = 1
			}
			fmt.Printf("%-10s %-24s %14.6g %14.6g %-6s %5.1f%%  %s\n", wa.Name, m.name, sa.Median, sb.Median, sa.Unit, 100*sa.Bound, v)
		}
		fa := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		fb := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		v := "same"
		if fb > fa || !wb.Correct {
			v = "worse"
			status = 1
		}
		fmt.Printf("%-10s %-24s %14.6g %14.6g %-6s %6s  %s\n", wa.Name, "failed_frac", fa, fb, "ratio", "0", v)
	}
	return status
}
