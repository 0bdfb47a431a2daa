// Command perfbench is the repository's benchmark. One process runs one
// workload for a fixed time from a seed, checks the program's outputs,
// and prints its metrics by name with their units; the last line of
// standard output is a one-line JSON summary. Untraced runs print the
// end-to-end metrics, traced runs (--trace 1) the per-layer ones.
//
//	bash perfbench/run.sh --workload rubble-steady --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh compare before.json after.json
//
// See README.md in this directory for the workloads, the metrics and
// the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is what every workload run receives.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Threads bounds engine threads, shard workers, harness workers and
	// client connections alike.
	Threads int
	// TraceDir receives the Perfetto trace of a traced run.
	TraceDir string
}

type workloadDef struct {
	name string
	run  func(cfg config, res *result) error
}

var workloads = []workloadDef{
	{"rubble-steady", runRubble},
	{"paper-suite", runPaperSuite},
	{"serve-fleet", runServeFleet},
	{"arch-repro", runArchRepro},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 15, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: untraced run printing end-to-end metrics")
		out     = flag.String("out", "", "also write the full report (fingerprint, percentiles, bases) as JSON to `file`")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := config{
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		Threads:  min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		TraceDir: ".bench_build/traces",
	}
	rep, err := runWorkload(*wl, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write report: %v\n", err)
			os.Exit(1)
		}
	}
	if err := writeText(os.Stdout, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runWorkload runs one workload, then checks that it printed exactly
// the metric set its mode promises.
func runWorkload(wl workloadDef, cfg config) (*report, error) {
	res := newResult(wl.name, cfg)
	if err := wl.run(cfg, res); err != nil {
		return nil, err
	}
	want := endToEnd
	if cfg.Trace {
		want = perLayer()
	} else {
		res.set("heap_peak_mb", float64(res.heap.bytes)/1e6, "MB")
	}
	if err := fillMetrics(res, want); err != nil {
		return nil, err
	}
	return &report{Fingerprint: machine(), Commit: commit(), result: *res}, nil
}

// fillMetrics checks res against the declared metric set. A traced run
// reports 0 for a layer the workload does not reach (that layer did no
// work); an untraced run must have measured every end-to-end metric.
func fillMetrics(res *result, want []metricDef) error {
	declared := map[string]string{}
	for _, d := range want {
		declared[d.Name] = d.Unit
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok && res.Trace:
			res.Metrics[d.Name] = metric{Unit: d.Unit}
		case !ok:
			return fmt.Errorf("metric %s not measured", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
	}
	var extra []string
	for k := range res.Metrics {
		if _, ok := declared[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics %v", extra)
	}
	return nil
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <report-a.json> <report-b.json>")
		return 2
	}
	a, err := readReport(args[0])
	if err == nil {
		var b *report
		if b, err = readReport(args[1]); err == nil {
			err = compareReports(os.Stdout, a, b)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 1
	}
	return 0
}

// deadline returns the wall-clock end of a measurement of the given
// length starting now.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
