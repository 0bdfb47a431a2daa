package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	check := func(kind string, listed []metricDef, declared []metricDef) {
		if len(listed) != len(declared) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark declares %d", kind, len(listed), len(declared))
		}
		for i := range min(len(listed), len(declared)) {
			if listed[i] != declared[i] {
				t.Errorf("%s #%d: BENCHMARK.json %+v, benchmark %+v", kind, i, listed[i], declared[i])
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer())
}

// runText runs one workload and returns its report and printed output.
func runText(t *testing.T, name string, seed int64, seconds float64, trace bool) (*report, string) {
	t.Helper()
	var wl workloadDef
	for _, w := range workloads {
		if w.name == name {
			wl = w
		}
	}
	cfg := config{Seed: seed, Seconds: seconds, Trace: trace, Threads: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)), TraceDir: t.TempDir()}
	rep, err := runWorkload(wl, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := writeText(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return rep, buf.String()
}

// checkPrinted verifies the last output line is the summary and that
// every declared metric is printed in it and in the text with its unit.
func checkPrinted(t *testing.T, name, out string, want []metricDef, nonzero bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var sum struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("%s: last line is not the summary: %v", name, err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", name, sum.Correct, sum.Attempted, sum.Failed, out)
	}
	if len(sum.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", name, len(sum.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := sum.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s in %q, want %q", name, d.Name, m.Unit, d.Unit)
		case nonzero && m.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
		}
		if !strings.Contains(out, "metric "+d.Name+" ") {
			t.Errorf("%s: no text line for %s", name, d.Name)
		}
	}
}

// smokeSeconds keeps each run short. serve-fleet's ramp has a budget
// of its own (rampLimit), so it runs to capacity however short the run.
const smokeSeconds = 5

func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rep, out := runText(t, wl.name, 1, smokeSeconds, false)
			checkPrinted(t, wl.name, out, endToEnd, true)
			if wl.name == "serve-fleet" {
				if n := rep.Headline["ramp_windows"].Value; n < 2 {
					t.Errorf("the ramp ran %g windows, want at least 2", n)
				}
				if n := rep.Headline["sessions_sustained"].Value; n <= 0 {
					t.Errorf("sessions_sustained %g, want > 0", n)
				}
			}
			_, out = runText(t, wl.name, 1, smokeSeconds, true)
			checkPrinted(t, wl.name+" traced", out, perLayer(), false)
		})
	}
}

func TestSecondSeedChangesInputsNotMetricNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, name := range []string{"rubble-steady", "paper-suite", "serve-fleet"} {
		t.Run(name, func(t *testing.T) {
			a, _ := runText(t, name, 1, smokeSeconds, false)
			b, _ := runText(t, name, 2, smokeSeconds, false)
			if a.Inputs == b.Inputs {
				t.Errorf("seeds 1 and 2 generated the same inputs %s", a.Inputs)
			}
			for k := range a.Metrics {
				if _, ok := b.Metrics[k]; !ok {
					t.Errorf("metric %s printed for seed 1, not for seed 2", k)
				}
			}
			if len(a.Metrics) != len(b.Metrics) {
				t.Errorf("seed 1 printed %d metrics, seed 2 %d", len(a.Metrics), len(b.Metrics))
			}
		})
	}
}

func TestArchDigestIndependentOfHarnessThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure twice")
	}
	var serial, parallel string
	res := newResult("arch-repro", config{})
	regenerate(res, 1, &serial, nil, -1)
	regenerate(res, runtime.NumCPU(), &parallel, nil, -1)
	if serial == "" || serial != parallel {
		t.Errorf("output digest %s at 1 harness thread, %s at %d", serial, parallel, runtime.NumCPU())
	}
}

func TestCompareRefusesMismatchedFingerprint(t *testing.T) {
	a := &report{Fingerprint: machine(), result: result{Workload: "rubble-steady", Metrics: map[string]metric{"setup_s": {Value: 1, Unit: "s"}}}}
	b := *a
	if err := compareReports(&bytes.Buffer{}, a, &b); err != nil {
		t.Fatalf("same machine refused: %v", err)
	}
	b.Fingerprint.NProc++
	if err := compareReports(&bytes.Buffer{}, a, &b); err == nil || !strings.Contains(err.Error(), "different machines") {
		t.Errorf("mismatched fingerprint not refused: %v", err)
	}
	b = *a
	b.Fingerprint.CPU = "another CPU"
	if err := compareReports(&bytes.Buffer{}, a, &b); err == nil {
		t.Error("mismatched CPU model not refused")
	}
}

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i)
		}
		got := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > got.Tail {
				beyond++
			}
		}
		if got.TailPct != c.want || got.N != c.n || (c.n >= 20 && beyond < 10) {
			t.Errorf("n=%d: tail p%g with %d beyond, want p%g", c.n, got.TailPct, beyond, c.want)
		}
	}
}
