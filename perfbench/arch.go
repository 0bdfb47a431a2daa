package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"github.com/parallax-arch/parallax/internal/arch/cpu"
	"github.com/parallax-arch/parallax/internal/arch/kernels"
	"github.com/parallax-arch/parallax/internal/arch/link"
	"github.com/parallax-arch/parallax/internal/arch/parallax"
	"github.com/parallax-arch/parallax/internal/exp"
)

// archScale is the one reduced scale of the figure regeneration. The
// host time of RunAll barely depends on it (fig6b's L2 sweeps dominate,
// README.md), so the smallest scale that keeps every scene populated
// keeps capture cheap.
const archScale = 0.05

// secondsPerRegeneration sets how many regenerations a run makes: one
// takes about 8 s on two CPUs. The count depends on --seconds only,
// never on the host's speed, so every run reports over the same number
// of regenerations.
const secondsPerRegeneration = 7

func regenerations(seconds float64) int {
	return max(1, int(math.Round(seconds/secondsPerRegeneration)))
}

func newSuite(threads int) *exp.Suite {
	s := exp.NewSuite(archScale)
	s.Threads = threads
	return s
}

// outputDigest hashes the regenerated tables and figures without their
// wall-clock timing lines: simulated statistics must repeat exactly.
func outputDigest(out string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(exp.StripTimings(out))))
}

// regenerate captures a fresh suite and runs every experiment, checking
// the output digest against want (set from the first regeneration).
func regenerate(res *result, threads int, want *string, rec *recorder, parent int32) (s *exp.Suite, capture, figures time.Duration) {
	s = newSuite(threads)
	sp := rec.start(0, "exp.Suite.Workloads (capture)", parent)
	t0 := time.Now()
	s.Workloads()
	capture = time.Since(t0)
	rec.stop(sp)
	var buf bytes.Buffer
	sp = rec.start(0, "exp.Suite.RunAll", parent)
	t0 = time.Now()
	s.RunAll(&buf)
	figures = time.Since(t0)
	rec.stop(sp)
	d := outputDigest(buf.String())
	var err error
	if *want == "" {
		*want = d
	} else if d != *want {
		err = fmt.Errorf("arch-repro output digest %s differs from the run's first %s", d, *want)
	}
	res.op(err)
	return s, capture, figures
}

func runArchRepro(cfg config, res *result) error {
	res.Inputs = fmt.Sprintf("paper scenes at scale %g (seed %d recorded only)", archScale, cfg.Seed)
	var setup []float64
	for i := 0; i < setupReps; i++ {
		s := newSuite(cfg.Threads)
		t0 := setupStart()
		s.Workloads()
		setup = append(setup, time.Since(t0).Seconds())
	}
	rec := newRecorder(cfg.Trace, fmt.Sprintf("arch-repro-%d-%d", cfg.Seed, time.Now().UnixNano()))
	root := rec.start(0, "arch-repro", -1)
	if cfg.Trace {
		archModels(cfg, res, rec, root)
	}
	// Each regeneration is one block, its RunAll time the one sample:
	// the time a user waits for the figures. Experiments regenerated
	// per RunAll second is its rate.
	var digest string
	var regens []block
	var expMS []float64
	var last *exp.Suite
	var capture time.Duration
	for it := 0; it < regenerations(cfg.Seconds); it++ {
		sp := rec.start(0, "regenerate", root)
		var fig time.Duration
		last, capture, fig = regenerate(res, cfg.Threads, &digest, rec, sp)
		rec.stop(sp)
		regens = append(regens, block{samples: []float64{float64(fig.Nanoseconds()) / 1e6},
			work: float64(len(exp.IDs())), secs: fig.Seconds()})
		tr := last.Tracer()
		for _, id := range exp.IDs() {
			_, ns := tr.SpanTotal(tr.Span("exp:" + id))
			expMS = append(expMS, float64(ns)/1e6)
		}
		res.heapCheckpoint()
	}
	rec.stop(root)
	res.note("output digest %s (%d regenerations)", digest, len(regens))
	if cfg.Trace {
		tr, reg := last.Tracer(), last.Metrics()
		res.set("exp.capture_s", capture.Seconds(), "s")
		for _, id := range exp.IDs() {
			_, ns := tr.SpanTotal(tr.Span("exp:" + id))
			res.set("exp."+id+"_s", float64(ns)/1e9, "s")
		}
		req := float64(reg.CounterValue(reg.Counter("harness/cg_requests")))
		computed := float64(reg.CounterValue(reg.Counter("harness/cg_computed")))
		res.set("exp.cg_requests", req, "count")
		res.setRatio("exp.cg_memo_hit_ratio", req-computed, "cg_requests", req)
		return rec.finishTrace(cfg, res)
	}
	// A run holds a few regenerations, too few for any percentile with
	// ten samples beyond it, so the printed tail reads as the median.
	t := blockTiming(regens)
	et := summarize(expMS)
	res.set("setup_s", setupTime(setup), "s")
	res.setTiming("latency_ms_p50", t, "ms", false)
	res.set("throughput_per_s", medianRate(regens), "1/s")
	res.headline("figures_s", t.P50/1e3, "s", nil)
	res.headline("experiment_ms", et.P50, "ms", &et)
	return nil
}

// ipcKernels are the kernels Workload.KernelIPC runs through the cpu
// model, each on a 300-iteration trace seeded int64(k)+11.
var ipcKernels = []kernels.Kernel{kernels.Narrow, kernels.Island, kernels.Cloth, kernels.Broad, kernels.IslandGen}

// archModels calls the architecture models directly on freshly
// captured workloads, timing each call, and sets the arch per-layer
// metrics.
func archModels(cfg config, res *result, rec *recorder, root int32) {
	s := newSuite(cfg.Threads)
	wls := s.Workloads()
	var memsim, cpuSim, fg, eval time.Duration
	var accesses, l1Misses, l2Misses uint64
	timed := func(name string, acc *time.Duration, fn func()) {
		sp := rec.start(0, name, root)
		t0 := time.Now()
		fn()
		*acc += time.Since(t0)
		rec.stop(sp)
	}
	for _, wl := range wls {
		timed("arch.SimulateMemory", &memsim, func() {
			m := wl.SimulateMemory(parallax.MemConfig{Cores: 4, L2MB: 12, Partitioned: true, Threads: 4, DedicatedPhase: -1})
			for _, p := range m.Phase {
				accesses += p.Accesses
				l1Misses += p.L1Misses
				l2Misses += p.L2Misses
			}
		})
		timed("arch.KernelIPC", &cpuSim, func() { wl.KernelIPC(cpu.Shader) })
		timed("arch.FGTime", &fg, func() { wl.FGTime(cpu.Shader, 150, link.OnChip, 4) })
		timed("arch.Evaluate", &eval, func() { wl.Evaluate(parallax.Reference()) })
	}
	var instr int
	for _, k := range ipcKernels {
		instr += len(k.Trace(300, int64(k)+11))
	}
	res.set("arch.memsim_s", memsim.Seconds(), "s")
	res.set("cache.accesses", float64(accesses), "count")
	res.set("cache.l2_accesses", float64(l1Misses), "count")
	res.setRatio("cache.l2_miss_ratio", float64(l2Misses), "l2_accesses", float64(l1Misses))
	res.set("arch.cpu_sim_s", cpuSim.Seconds(), "s")
	res.Metrics["cpu.sim_instr_per_s"] = metric{Value: ratio(float64(instr*len(wls)), cpuSim.Seconds()),
		Unit: "1/s", Base: "simulated_instructions", BaseValue: float64(instr * len(wls))}
	res.set("arch.fgmodel_s", fg.Seconds(), "s")
	res.set("arch.evaluate_s", eval.Seconds(), "s")
	res.Attempted += int64(4 * len(wls))
}
