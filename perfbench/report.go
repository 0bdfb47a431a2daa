package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one named measurement with its unit. Timings also carry
// their percentile summary and ratios the base they divide by, so a
// report never shows a percentile without its sample count or a ratio
// without its base.
type metric struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	Timing    *timing `json:"timing,omitempty"`
	Base      string  `json:"base,omitempty"`
	BaseValue float64 `json:"base_value,omitempty"`
}

// result is what one workload run produced.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Threads   int    `json:"threads"`
	Inputs    string `json:"inputs"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Checks lists every failed output check.
	Checks []string `json:"checks,omitempty"`
	// Metrics are the metrics BENCHMARK.json declares: the end-to-end
	// set untraced, the per-layer set traced.
	Metrics map[string]metric `json:"metrics"`
	// Headline holds the workload's own named end-to-end figures
	// (frame_ms_p99, req_ms_p50, sessions_sustained, figures_s, ...)
	// from which the generic end-to-end metrics are drawn.
	Headline map[string]metric `json:"headline,omitempty"`
	// Notes are free-form lines: self times, trace path, output digests.
	Notes []string `json:"notes,omitempty"`

	heap heapPeak
}

func newResult(workload string, cfg config) *result {
	return &result{
		Workload: workload,
		Seed:     cfg.Seed,
		Trace:    cfg.Trace,
		Threads:  cfg.Threads,
		Metrics:  map[string]metric{},
		Headline: map[string]metric{},
	}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) setTiming(name string, t timing, unit string, tail bool) {
	v := t.P50
	if tail {
		v = t.Tail
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, Timing: &t}
}

func (r *result) setRatio(name string, num float64, baseName string, base float64) {
	r.Metrics[name] = metric{Value: ratio(num, base), Unit: "ratio", Base: baseName, BaseValue: base}
}

func (r *result) headline(name string, v float64, unit string, t *timing) {
	r.Headline[name] = metric{Value: v, Unit: unit, Timing: t}
}

// op counts one attempted operation, failed when err is non-nil.
func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Checks) < 20 {
			r.Checks = append(r.Checks, err.Error())
		}
	}
}

// heapCheckpoint samples the live heap the workload holds now; it is
// called outside timed stretches, since it forces a collection.
func (r *result) heapCheckpoint() { r.heap.checkpoint() }

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fingerprint identifies the machine a report was measured on. Two
// reports are comparable only when their fingerprints are equal.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func machine() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
}

// cpuModel reads the CPU model name from the kernel's cpuinfo table,
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision the binary was built from, as the Go
// toolchain stamped it; "unknown" outside a version-controlled tree.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// report is the full record of one run, written by --out and read by
// the compare subcommand. The commit is stamped beside the fingerprint
// but is not part of it: comparing two commits on one machine is the
// point of an A/B run.
type report struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Commit      string      `json:"commit"`
	result
}

// writeText prints the human-readable lines of a run and, last, the
// one-line JSON summary: correct, attempted, failed and the declared
// metrics as value and unit.
func writeText(w io.Writer, rep *report) error {
	fp := rep.Fingerprint
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v threads=%d\n", rep.Workload, rep.Seed, rep.Trace, rep.Threads)
	fmt.Fprintf(w, "fingerprint: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, rep.Commit)
	fmt.Fprintf(w, "inputs: %s\n", rep.Inputs)
	printMetrics(w, "", rep.Headline)
	printMetrics(w, "metric ", rep.Metrics)
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range rep.Checks {
		fmt.Fprintf(w, "FAILED check: %s\n", c)
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]valueUnit{}}
	for k, m := range rep.Metrics {
		summary.Metrics[k] = valueUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printMetrics(w io.Writer, prefix string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		fmt.Fprintf(w, "%s%-34s %14.6g %-6s", prefix, k, m.Value, m.Unit)
		if t := m.Timing; t != nil {
			fmt.Fprintf(w, "  p50=%.6g p%g=%.6g n=%d", t.P50, t.TailPct, t.Tail, t.N)
			if t.Blocks > 0 {
				fmt.Fprintf(w, " (median of %d blocks)", t.Blocks)
			}
		}
		if m.Base != "" {
			fmt.Fprintf(w, "  base %s=%.6g", m.Base, m.BaseValue)
		}
		fmt.Fprintln(w)
	}
}

// compareReports prints each metric of two reports side by side. It
// refuses, with an error, when the reports come from different
// machines or from different workloads.
func compareReports(w io.Writer, a, b *report) error {
	if a.Fingerprint != b.Fingerprint {
		return fmt.Errorf("refusing to compare reports from different machines: %+v vs %+v", a.Fingerprint, b.Fingerprint)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace=%v) with %s (trace=%v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	fmt.Fprintf(w, "workload %s: %s (seed %d) vs %s (seed %d)\n", a.Workload, a.Commit, a.Seed, b.Commit, b.Seed)
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ma, mb := a.Metrics[k], b.Metrics[k]
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %-6s %+8.2f%%\n", k, ma.Value, mb.Value, ma.Unit, 100*ratio(mb.Value-ma.Value, ma.Value))
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse report %s: %w", path, err)
	}
	return &r, nil
}
