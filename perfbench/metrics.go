package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/parallax-arch/parallax/internal/exp"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// lists the same names and units; a test keeps the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every untraced run prints. Each workload
// defines its unit of work (see README.md): a frame of
// world.StepsPerFrame steps on rubble-steady, a round of a frame of
// every scene on paper-suite, an HTTP request on serve-fleet, a
// regeneration of every figure on arch-repro. The
// latency's tail percentile is printed beside its median but is not
// one of them: on a shared two-CPU machine its run-to-run spread
// reaches the largest bound a regression gate may use (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"latency_ms_p50", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the metrics every traced run prints, grouped by the
// module they measure.
func perLayer() []metricDef {
	defs := []metricDef{
		// phys/solver (island processing)
		{"island_processing.ns_per_step", "ns"},
		{"solver.row_updates_per_s", "1/s"},
		{"solver.rows_per_step", "count"},
		{"solver.residual", "m/s"},
		// phys/island
		{"island_creation.ns_per_step", "ns"},
		{"island.find_steps_per_step", "count"},
		{"island.count", "count"},
		{"island.dof_per_step", "count"},
		{"island.max_dof_share", "ratio"},
		// phys/broadphase
		{"broadphase.ns_per_step", "ns"},
		{"broadphase.sort_ops_per_step", "count"},
		{"broadphase.overlap_tests_per_step", "count"},
		{"broadphase.pair_yield", "ratio"},
		{"broadphase.rebuilds", "count"},
		// phys/narrowphase
		{"narrowphase.ns_per_step", "ns"},
		{"narrowphase.pair_tests_per_s", "1/s"},
		{"narrowphase.pairs_per_step", "count"},
		{"narrowphase.contact_yield", "ratio"},
		{"narrowphase.tri_tests_per_step", "count"},
		// phys/cloth
		{"cloth.ns_per_step", "ns"},
		{"cloth.vertex_updates_per_s", "1/s"},
		{"cloth.collision_tests_per_step", "count"},
		// phys/world: step driver and worker pool
		{"world.serial_fraction", "ratio"},
		{"world.worker_busy_pct", "%"},
		{"integrate.ns_per_step", "ns"},
		{"world.scaling_efficiency", "ratio"},
		// obs
		{"obs.trace_overhead_pct", "%"},
		// phys/world snapshot and phys/enc
		{"snapshot.encode_us", "us"},
		{"snapshot.restore_us", "us"},
		{"snapshot.bytes", "bytes"},
		// serve
		{"serve.create-scene_ms_p50", "ms"},
		{"serve.create-upload_ms_p50", "ms"},
		{"serve.query_ms_p50", "ms"},
		{"serve.snapshot_ms_p50", "ms"},
		{"serve.delete_ms_p50", "ms"},
		{"serve.tick_ms_mean", "ms"},
		{"serve.deadline_misses", "count"},
		{"serve.degraded", "count"},
		{"serve.evictions", "count"},
		{"serve.rejections", "count"},
		// the benchmark's own load generator
		{"bench.generator_late_ms_p99", "ms"},
		// exp (harness)
		{"exp.capture_s", "s"},
		{"exp.cg_requests", "count"},
		{"exp.cg_memo_hit_ratio", "ratio"},
	}
	for _, id := range exp.IDs() {
		defs = append(defs, metricDef{"exp." + id + "_s", "s"})
	}
	// arch/* models
	return append(defs,
		metricDef{"arch.memsim_s", "s"},
		metricDef{"cache.accesses", "count"},
		metricDef{"cache.l2_accesses", "count"},
		metricDef{"cache.l2_miss_ratio", "ratio"},
		metricDef{"arch.cpu_sim_s", "s"},
		metricDef{"cpu.sim_instr_per_s", "1/s"},
		metricDef{"arch.fgmodel_s", "s"},
		metricDef{"arch.evaluate_s", "s"},
	)
}

// heapPeak tracks the peak live heap over a run's checkpoints: at the
// end of set-up and of the measurement, the workload forces a
// collection and reads the bytes it found reachable. Sampling at fixed
// points, rather than whenever a collection happens to run, keeps the
// figure from depending on the collector's timing.
type heapPeak struct{ bytes uint64 }

func (h *heapPeak) checkpoint() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.bytes = max(h.bytes, s[0].Value.Uint64())
}

// spanRec is one benchmark span: a call into a layer, its parent span
// and its lane (Perfetto track).
type spanRec struct {
	Name   string
	Parent int32
	Lane   int
	Start  int64 // ns since the recorder started
	End    int64
}

// recorder keeps the traced run's spans in memory. A nil *recorder is
// the untraced run: start returns -1 and stop does nothing, so the
// timed code is the same in both modes.
type recorder struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newRecorder(enabled bool, run string) *recorder {
	if !enabled {
		return nil
	}
	return &recorder{run: run, t0: time.Now()}
}

// start opens a span on lane under parent (-1 for a root) and returns
// its id.
func (r *recorder) start(lane int, name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{Name: name, Parent: parent, Lane: lane, Start: now, End: -1})
	return int32(len(r.spans) - 1)
}

func (r *recorder) stop(id int32) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}
