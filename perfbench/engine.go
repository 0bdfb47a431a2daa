package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

const (
	// rubbleSettle matches BenchmarkStep's and paraxsim -stepbench's
	// settle loop: the wall and rubble reach a steady contact topology.
	rubbleSettle = 120
	// paperScale is the one reduced scale the paper scenes run at; at
	// 0.25 broad phase, narrow phase, cloth and the solver each lead in
	// some scene (README.md, sizing).
	paperScale = 0.25
	// paperFrames is each scene's episode length from t=0: 0.9 s of
	// simulated time, through the opening transient of every scene.
	paperFrames = 30
	// rubbleFrames is the settled wall's episode length: 9 s of
	// simulated time, well inside the stretch where its contact
	// topology holds (it drifts after some 10000 steps).
	rubbleFrames = 300
	// digestPrefix is the untimed step count over which threads=1 and
	// threads=N must produce the same StepProfile digests.
	digestPrefix = 30
	// setupReps is how often set-up is repeated to report its time
	// (setupTime). One takes ~40 ms (a suite capture) to ~120 ms (the
	// settled wall), and repetitions vary by some ±10%. Building the
	// paper scenes takes ~5 ms, and its repetitions vary by half, so
	// it is repeated paperSetupReps times.
	setupReps      = 15
	paperSetupReps = 60
	// perturbMax bounds the seeded change to each initial body velocity
	// component, in m/s.
	perturbMax = 0.05
)

// setupStart forces a collection, so every repetition of a set-up
// starts from the same heap and none pays for the garbage of the one
// before, and returns the moment the repetition starts.
func setupStart() time.Time {
	runtime.GC()
	return time.Now()
}

// setupTime is the median of the faster half of a set-up's
// repetitions: as with a measurement's blocks (blocks.go), identical
// repetitions differ only by interference from outside the process.
func setupTime(reps []float64) float64 {
	sort.Float64s(reps)
	return median(reps[:(len(reps)+1)/2])
}

// perturb adds a small seeded velocity to every dynamic body, in body
// order, and folds the deltas into h so the generated inputs have a
// digest. The same seed gives the same deltas.
func perturb(w *world.World, seed int64, h io.Writer) {
	rng := rand.New(rand.NewSource(seed))
	var buf [8]byte
	for _, b := range w.Bodies {
		if b.InvMass == 0 {
			continue
		}
		d := m3.V((rng.Float64()*2-1)*perturbMax, (rng.Float64()*2-1)*perturbMax, (rng.Float64()*2-1)*perturbMax)
		b.LinVel = b.LinVel.Add(d)
		for _, c := range [3]float64{d.X, d.Y, d.Z} {
			bits := math.Float64bits(c)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:]) // hash writes never fail
		}
	}
}

// checkDigests steps two copies of one generated scene, at threads=1
// and threads=n, and compares their per-step StepProfile digests.
func checkDigests(res *result, name string, build func() *world.World, n int) {
	a, b := build(), build()
	a.SetThreads(1)
	b.SetThreads(n)
	defer b.SetThreads(1)
	for i := 0; i < digestPrefix; i++ {
		a.Step()
		b.Step()
		var err error
		if da, db := a.Profile.Digest(), b.Profile.Digest(); da != db {
			err = fmt.Errorf("%s step %d: digest %016x at threads=1, %016x at threads=%d", name, i, da, db, n)
		}
		res.op(err)
	}
}

// checkFinite fails one operation per world holding a non-finite body.
func checkFinite(res *result, name string, w *world.World) {
	var err error
	for i, b := range w.Bodies {
		if !b.Valid() {
			err = fmt.Errorf("%s: body %d has non-finite state after the run", name, i)
			break
		}
	}
	res.op(err)
}

// profileSum accumulates StepProfile counters over the traced steps.
type profileSum struct {
	steps                                     int
	rows, rowUpdates, findSteps, islands, dof int
	maxDOFShare, residual                     float64
	sortOps, overlapTests, pairsOut, rebuilds int
	pairsTested, contactsOut, triTests        int
	clothVertexUpdates, clothCollisionTests   int
}

func (s *profileSum) add(p *world.StepProfile) {
	s.steps++
	s.rows += p.Solver.Rows
	s.rowUpdates += p.Solver.RowUpdates
	s.residual += p.Solver.Residual
	s.findSteps += p.FindSteps
	s.islands += len(p.Islands)
	total, largest := 0, 0
	for _, is := range p.Islands {
		total += is.DOF
		largest = max(largest, is.DOF)
	}
	s.dof += total
	s.maxDOFShare += ratio(float64(largest), float64(total))
	s.sortOps += p.Broad.SortOps
	s.overlapTests += p.Broad.OverlapTests
	s.pairsOut += p.Broad.PairsOut
	s.rebuilds += p.Broad.Rebuilds
	s.pairsTested += p.Narrow.PairsTested
	s.contactsOut += p.Narrow.ContactsOut
	s.triTests += p.Narrow.TriTests
	s.clothVertexUpdates += p.Cloth.VertexUpdates
	s.clothCollisionTests += p.Cloth.CollisionTests
}

// phaseSpans are the engine spans World.SetObs records whose totals
// the traced run reads.
var phaseSpans = []string{
	"step", "broadphase", "narrowphase", "island-creation", "island-processing", "integrate", "cloth",
	"narrow-chunk", "refresh-chunk", "edge-chunk", "integrate-chunk", "sync-chunk", "island", "cloth-object",
}

// spanTotals reads the cumulative ns of every phase span.
func spanTotals(tr *obs.Tracer) map[string]float64 {
	out := map[string]float64{}
	for _, n := range phaseSpans {
		_, ns := tr.SpanTotal(tr.Span(n))
		out[n] = float64(ns)
	}
	return out
}

// engineLayers runs the traced measurement shared by the engine
// workloads: a third of the time untraced, a third traced at n
// threads, a third traced at one thread. It sets every engine
// per-layer metric from the traced n-thread stretch; step rates are
// taken over the faster half of each stretch's episodes (medianRate).
func engineLayers(cfg config, res *result, st *episodes, rec *recorder, root int32) {
	third := cfg.Seconds / 3
	it := rec.start(0, fmt.Sprintf("untraced threads=%d", cfg.Threads), root)
	plain := st.run(deadline(third), nil, -1, nil)
	rec.stop(it)

	st.tr = obs.NewTracer()
	var s profileSum
	it = rec.start(0, fmt.Sprintf("traced threads=%d", cfg.Threads), root)
	traced := st.run(deadline(third), rec, it, &s)
	rec.stop(it)
	spans := spanTotals(st.tr)

	st.threads = 1
	it = rec.start(0, "traced threads=1", root)
	serial := st.run(deadline(third), rec, it, nil)
	rec.stop(it)
	st.threads, st.tr = cfg.Threads, nil

	ns := func(span string) float64 { return spans[span] }
	steps := float64(s.steps)
	perStep := func(v float64) float64 { return ratio(v, steps) }

	res.set("island_processing.ns_per_step", perStep(ns("island-processing")), "ns")
	res.set("solver.row_updates_per_s", ratio(float64(s.rowUpdates), ns("island-processing")/1e9), "1/s")
	res.set("solver.rows_per_step", perStep(float64(s.rows)), "count")
	res.set("solver.residual", perStep(s.residual), "m/s")

	res.set("island_creation.ns_per_step", perStep(ns("island-creation")), "ns")
	res.set("island.find_steps_per_step", perStep(float64(s.findSteps)), "count")
	res.set("island.count", perStep(float64(s.islands)), "count")
	res.set("island.dof_per_step", perStep(float64(s.dof)), "count")
	res.setRatio("island.max_dof_share", s.maxDOFShare, "steps", steps)

	res.set("broadphase.ns_per_step", perStep(ns("broadphase")), "ns")
	res.set("broadphase.sort_ops_per_step", perStep(float64(s.sortOps)), "count")
	res.set("broadphase.overlap_tests_per_step", perStep(float64(s.overlapTests)), "count")
	res.setRatio("broadphase.pair_yield", float64(s.pairsOut), "overlap_tests", float64(s.overlapTests))
	res.set("broadphase.rebuilds", float64(s.rebuilds), "count")

	res.set("narrowphase.ns_per_step", perStep(ns("narrowphase")), "ns")
	res.set("narrowphase.pair_tests_per_s", ratio(float64(s.pairsTested), ns("narrowphase")/1e9), "1/s")
	res.set("narrowphase.pairs_per_step", perStep(float64(s.pairsTested)), "count")
	res.setRatio("narrowphase.contact_yield", float64(s.contactsOut), "pairs_tested", float64(s.pairsTested))
	res.set("narrowphase.tri_tests_per_step", perStep(float64(s.triTests)), "count")

	res.set("cloth.ns_per_step", perStep(ns("cloth")), "ns")
	res.set("cloth.vertex_updates_per_s", ratio(float64(s.clothVertexUpdates), ns("cloth")/1e9), "1/s")
	res.set("cloth.collision_tests_per_step", perStep(float64(s.clothCollisionTests)), "count")

	// The serial sections sit inside broadphase and island creation
	// (pair emission, the union-find merge), as paraxsim -stepbench
	// reports them; worker busy time is the task spans summed over lanes.
	res.setRatio("world.serial_fraction", ns("broadphase")+ns("island-creation"), "step_ns", ns("step"))
	var tasks float64
	for _, n := range []string{"narrow-chunk", "refresh-chunk", "edge-chunk", "integrate-chunk", "sync-chunk", "island", "cloth-object"} {
		tasks += ns(n)
	}
	res.Metrics["world.worker_busy_pct"] = metric{Value: 100 * ratio(tasks, ns("step")*float64(cfg.Threads)),
		Unit: "%", Base: "step_ns_x_threads", BaseValue: ns("step") * float64(cfg.Threads)}
	res.set("integrate.ns_per_step", perStep(ns("integrate")), "ns")
	plainSPS, tracedSPS := medianRate(plain), medianRate(traced)
	res.setRatio("world.scaling_efficiency", tracedSPS, "threads_x_serial_steps_per_s",
		float64(cfg.Threads)*medianRate(serial))
	res.Metrics["obs.trace_overhead_pct"] = metric{Value: 100 * ratio(plainSPS-tracedSPS, plainSPS),
		Unit: "%", Base: "untraced_steps_per_s", BaseValue: plainSPS}
	res.note("phase shares of the traced step at threads=%d: broad %.1f%% narrow %.1f%% island-creation %.1f%% island-processing %.1f%% integrate %.1f%% cloth %.1f%%",
		cfg.Threads, 100*ratio(ns("broadphase"), ns("step")), 100*ratio(ns("narrowphase"), ns("step")),
		100*ratio(ns("island-creation"), ns("step")), 100*ratio(ns("island-processing"), ns("step")),
		100*ratio(ns("integrate"), ns("step")), 100*ratio(ns("cloth"), ns("step")))
	for _, bs := range [][]block{plain, traced, serial} {
		for _, b := range bs {
			res.Attempted += int64(b.work) / world.StepsPerFrame
		}
	}
}

// engineEndToEnd times rounds for the whole measurement and sets the
// end-to-end metrics of an engine workload. With several worlds the
// latency is a round's, headlined as round_ms beside frame_ms over
// every frame of the run.
func engineEndToEnd(cfg config, res *result, st *episodes, setup []float64) {
	es := st.run(deadline(cfg.Seconds), nil, -1, nil)
	t := blockTiming(es)
	sps := medianRate(es)
	res.set("setup_s", setupTime(setup), "s")
	res.setTiming("latency_ms_p50", t, "ms", false)
	res.set("throughput_per_s", sps, "1/s")
	if len(st.initial) == 1 {
		res.headline("frame_ms", t.P50, "ms", &t)
	} else {
		ft := summarize(st.frameMS)
		res.headline("round_ms", t.P50, "ms", &t)
		res.headline("frame_ms", ft.P50, "ms", &ft)
	}
	res.headline("steps_per_s", sps, "1/s", nil)
	res.headline("frame_budget_ms", 1000.0/30, "ms", nil)
	for _, e := range es {
		res.Attempted += int64(e.work) / world.StepsPerFrame
	}
}

func runRubble(cfg config, res *result) error {
	h := fnv.New64a()
	build := func(h io.Writer) *world.World {
		w := workload.BuildWallRubble()
		perturb(w, cfg.Seed, h)
		return w
	}
	var setup []float64
	var w *world.World
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.SetThreads(1)
		}
		h.Reset()
		t0 := setupStart()
		w = build(h)
		w.SetThreads(cfg.Threads)
		for s := 0; s < rubbleSettle; s++ {
			w.Step()
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer w.SetThreads(1)
	res.heapCheckpoint()
	res.Inputs = fmt.Sprintf("%016x", h.Sum64())
	checkDigests(res, "WallRubble", func() *world.World { return build(io.Discard) }, cfg.Threads)

	st := &episodes{initial: []*world.World{w}, names: []string{"WallRubble"}, frames: rubbleFrames, threads: cfg.Threads}
	defer st.release()
	rec := newRecorder(cfg.Trace, fmt.Sprintf("rubble-steady-%d-%d", cfg.Seed, time.Now().UnixNano()))
	root := rec.start(0, "rubble-steady", -1)
	if cfg.Trace {
		engineLayers(cfg, res, st, rec, root)
	} else {
		engineEndToEnd(cfg, res, st, setup)
	}
	rec.stop(root)
	res.heapCheckpoint()
	checkFinite(res, "WallRubble", st.live[0])
	return rec.finishTrace(cfg, res)
}

// episodes steps a set of worlds round-robin, a frame each, every
// episode from fresh clones of their initial states, so every episode
// replays the same stretch of simulated time whatever the host speed.
type episodes struct {
	initial []*world.World
	names   []string
	frames  int // frames per world per episode
	live    []*world.World
	threads int
	tr      *obs.Tracer
	frameMS []float64 // every frame's host time in the last run
}

// run steps whole episodes, at least one, until the deadline. Each
// round steps a frame of world.StepsPerFrame steps in every world, and
// its host time is one latency sample, so a sample reflects every
// scene: with one world a round is a frame. Each episode is one block
// whose work is its steps; every frame's host time goes to frameMS.
// With rec non-nil every episode, round, frame and step is a span
// under parent and the step profiles are summed into prof.
func (s *episodes) run(until time.Time, rec *recorder, parent int32, prof *profileSum) []block {
	var out []block
	s.frameMS = s.frameMS[:0]
	for len(out) == 0 || time.Now().Before(until) {
		s.restart()
		eid := rec.start(0, "episode", parent)
		var e block
		for f := 0; f < s.frames; f++ {
			rid := rec.start(0, "round", eid)
			t0 := time.Now()
			for _, w := range s.live {
				fid := rec.start(0, "frame", rid)
				tf := time.Now()
				for i := 0; i < world.StepsPerFrame; i++ {
					sid := rec.start(0, "phys/world.Step", fid)
					w.Step()
					rec.stop(sid)
					if prof != nil {
						prof.add(&w.Profile)
					}
				}
				s.frameMS = append(s.frameMS, float64(time.Since(tf).Nanoseconds())/1e6)
				rec.stop(fid)
				e.work += world.StepsPerFrame
			}
			d := time.Since(t0)
			rec.stop(rid)
			e.samples = append(e.samples, float64(d.Nanoseconds())/1e6)
			e.secs += d.Seconds()
		}
		rec.stop(eid)
		out = append(out, e)
	}
	return out
}

func (s *episodes) restart() {
	s.release()
	s.live = make([]*world.World, len(s.initial))
	for i, w := range s.initial {
		c, err := w.Clone()
		if err != nil {
			// The initial worlds came from the scene builders; failing
			// to clone them is a defect in the program, not the input.
			panic(fmt.Sprintf("clone %s: %v", s.names[i], err))
		}
		c.SetThreads(s.threads)
		if s.tr != nil {
			c.SetObs(s.tr, nil, s.names[i])
		}
		s.live[i] = c
	}
}

func (s *episodes) release() {
	for _, w := range s.live {
		w.SetThreads(1)
	}
}

func runPaperSuite(cfg config, res *result) error {
	h := fnv.New64a()
	build := func(j int, h io.Writer) *world.World {
		w := workload.All[j].Build(paperScale)
		perturb(w, cfg.Seed+int64(j), h)
		return w
	}
	var setup []float64
	var initial []*world.World
	for i := 0; i < paperSetupReps; i++ {
		initial = initial[:0]
		h.Reset()
		t0 := setupStart()
		for j := range workload.All {
			initial = append(initial, build(j, h))
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	res.heapCheckpoint()
	res.Inputs = fmt.Sprintf("%016x", h.Sum64())
	for j, b := range workload.All {
		checkDigests(res, b.Name, func() *world.World { return build(j, io.Discard) }, cfg.Threads)
	}

	var names []string
	for _, b := range workload.All {
		names = append(names, b.Name)
	}
	st := &episodes{initial: initial, names: names, frames: paperFrames, threads: cfg.Threads}
	defer st.release()
	rec := newRecorder(cfg.Trace, fmt.Sprintf("paper-suite-%d-%d", cfg.Seed, time.Now().UnixNano()))
	root := rec.start(0, "paper-suite", -1)
	if cfg.Trace {
		engineLayers(cfg, res, st, rec, root)
	} else {
		engineEndToEnd(cfg, res, st, setup)
	}
	rec.stop(root)
	res.heapCheckpoint()
	for i, w := range st.live {
		checkFinite(res, names[i], w)
	}
	return rec.finishTrace(cfg, res)
}
