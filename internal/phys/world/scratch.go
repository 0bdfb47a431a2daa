package world

import (
	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/island"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/narrowphase"
	"github.com/parallax-arch/parallax/internal/phys/solver"
)

// narrowEvents is one narrow-phase chunk's output: contacts plus the
// special-contact events (explosions, blast hits, cloth contact lists).
// Chunks are partitioned deterministically over the pair list, so
// merging the chunk buffers in index order reproduces the serial result
// bit for bit whatever the thread count.
type narrowEvents struct {
	contacts   []narrowphase.Contact
	stats      narrowphase.Stats
	explosions []int32
	blastHits  [][2]int32 // blast geom, other geom
	blastCloth [][2]int32 // blast geom, cloth index
	clothHits  [][2]int32 // cloth index, other geom
	// scr holds the chunk's collision scratch (mesh-query and EPA
	// buffers). It persists across steps — beginStep resets the event
	// slices but leaves it alone — so mesh/hull pairs stay allocation-free.
	scr narrowphase.Scratch
}

// warmKey identifies a contact across steps for warm starting: the geom
// pair plus the contact's ordinal within that pair's manifold.
type warmKey struct {
	pair uint64
	ord  int32
}

// frameScratch is the World's reusable per-step arena. Everything the
// step loop needs that scales with the scene — per-chunk narrow-phase
// buffers, the merged contact list, island edges, per-island solver
// stats, joint-load accumulators, warm-start bookkeeping, and
// per-worker row buffers and solver workspaces — lives here and is
// re-sliced to length zero (or overwritten in place) each step, so a
// steady-state Step performs no heap allocation. Event paths that fire
// rarely (detonations, RecordDetail profile copies) still allocate; see
// DESIGN.md "Scratch-arena memory model".
type frameScratch struct {
	// Narrow phase: one buffer set per chunk (chunk count = Threads).
	narrow []narrowEvents
	// contacts is the merged, deterministic contact list.
	contacts []narrowphase.Contact
	// seenExpl dedups explosion events across chunks.
	seenExpl map[int32]bool

	// Island creation.
	edges   []island.Edge
	builder island.Builder
	islands []island.Island // aliases builder storage; valid for the step

	// Island processing.
	solverStats []solver.Stats
	// jointLoad accumulates constraint force per joint id. Islands touch
	// disjoint joints, so parallel island solves write disjoint entries.
	jointLoad []float64
	// queued and main partition island indices (and later cloth indices)
	// between the work queue and the main thread.
	queued, main []int32
	// bodySlot maps a world body index to its index within its island's
	// body list. Islands hold disjoint bodies, so parallel island solves
	// write disjoint entries; an entry is only read by the solve that
	// wrote it this step.
	bodySlot []int32
	// Per-worker storage, indexed by pool worker id (0 = main thread):
	// the solving island's bodies in island-local order, its rows, and
	// the solver workspace.
	bodies [][]*body.Body
	rows   []([]joint.Row)
	ws     []solver.Workspace

	// Warm starting: per-contact keys, manifold ordinals, the row base of
	// each solved contact (-1 = not solved this step), and the per-row
	// impulses gathered from island solves.
	contactKey []uint64
	contactOrd []int32
	ordCount   map[uint64]int32
	rowBase    []int32
	warmLambda []float64

	// Cloth phase.
	clothStats []cloth.Stats
	clothIdx   []int32

	// parallelChunks state (set for the duration of one dispatch).
	chunkFn   func(chunk, lo, hi int)
	chunkSize int
	chunkN    int
	chunkIdx  []int32
	chunkMain []int32
	// chunkSpan is the span recorded around each chunk execution, set by
	// parallelChunks per dispatch (refresh, narrow, edge, integrate...).
	chunkSpan obs.SpanID

	// Chunk-parallel phase merge buffers, indexed by chunk (count <=
	// threads); merged serially in chunk order so results are
	// deterministic whatever worker ran each chunk.
	refresh    [][2]int        // refreshChunk: (geoms seen, AABBs updated)
	edgeChunks [][]island.Edge // edgeChunk: per-chunk island edge lists
	integ      []int           // posChunk: bodies integrated per chunk
}

// beginStep resizes the arena for the current scene, reusing all prior
// capacity. edgeHint pre-sizes the island edge list from the previous
// step's count so the first steps after a snapshot Restore don't regrow
// it incrementally.
//
//paraxlint:noalloc
func (sc *frameScratch) beginStep(threads, numJoints, edgeHint int) {
	if threads < 1 {
		threads = 1
	}
	if cap(sc.narrow) < threads {
		//paraxlint:allow(alloc) capacity growth, amortized to zero in steady state
		sc.narrow = append(sc.narrow[:cap(sc.narrow)], make([]narrowEvents, threads-cap(sc.narrow))...)
	}
	sc.narrow = sc.narrow[:threads]
	for i := range sc.narrow {
		e := &sc.narrow[i]
		e.contacts = e.contacts[:0]
		e.stats = narrowphase.Stats{}
		e.explosions = e.explosions[:0]
		e.blastHits = e.blastHits[:0]
		e.blastCloth = e.blastCloth[:0]
		e.clothHits = e.clothHits[:0]
	}
	sc.contacts = sc.contacts[:0]
	if sc.seenExpl == nil {
		sc.seenExpl = make(map[int32]bool) //paraxlint:allow(alloc) lazy one-time map
	}
	clear(sc.seenExpl)
	sc.edges = sc.edges[:0]
	if cap(sc.edges) < edgeHint {
		sc.edges = make([]island.Edge, 0, edgeHint) //paraxlint:allow(alloc) pre-sized from the previous step's count
	}

	sc.jointLoad = growFloat(sc.jointLoad, numJoints)
	clear(sc.jointLoad)

	if cap(sc.refresh) < threads {
		sc.refresh = make([][2]int, threads) //paraxlint:allow(alloc) capacity growth, amortized
	}
	sc.refresh = sc.refresh[:threads]
	for i := range sc.refresh {
		sc.refresh[i] = [2]int{}
	}
	if cap(sc.edgeChunks) < threads {
		//paraxlint:allow(alloc) capacity growth, amortized to zero in steady state
		sc.edgeChunks = append(sc.edgeChunks[:cap(sc.edgeChunks)], make([][]island.Edge, threads-cap(sc.edgeChunks))...)
	}
	sc.edgeChunks = sc.edgeChunks[:threads]
	for i := range sc.edgeChunks {
		sc.edgeChunks[i] = sc.edgeChunks[i][:0]
	}
	if cap(sc.integ) < threads {
		sc.integ = make([]int, threads) //paraxlint:allow(alloc) capacity growth, amortized
	}
	sc.integ = sc.integ[:threads]
	clear(sc.integ)

	if cap(sc.rows) < threads {
		//paraxlint:allow(alloc) capacity growth, amortized to zero in steady state
		sc.rows = append(sc.rows[:cap(sc.rows)], make([][]joint.Row, threads-cap(sc.rows))...)
		//paraxlint:allow(alloc) capacity growth, amortized to zero in steady state
		sc.bodies = append(sc.bodies[:cap(sc.bodies)], make([][]*body.Body, threads-cap(sc.bodies))...)
		//paraxlint:allow(alloc) capacity growth, amortized to zero in steady state
		sc.ws = append(sc.ws[:cap(sc.ws)], make([]solver.Workspace, threads-cap(sc.ws))...)
	}
	sc.rows = sc.rows[:threads]
	sc.bodies = sc.bodies[:threads]
	sc.ws = sc.ws[:threads]
}

// beginIslands sizes the per-island, per-body and per-contact working
// sets.
//
//paraxlint:noalloc
func (sc *frameScratch) beginIslands(numIslands, numBodies, numContacts int, warm bool) {
	sc.bodySlot = growInt32(sc.bodySlot, numBodies)
	sc.solverStats = growStats(sc.solverStats, numIslands)
	for i := range sc.solverStats {
		sc.solverStats[i] = solver.Stats{}
	}
	sc.rowBase = growInt32(sc.rowBase, numContacts)
	for i := range sc.rowBase {
		sc.rowBase[i] = -1
	}
	if warm {
		sc.contactKey = growUint64(sc.contactKey, numContacts)
		sc.contactOrd = growInt32(sc.contactOrd, numContacts)
		sc.warmLambda = growFloat(sc.warmLambda, numContacts*joint.RowsPerContact)
		clear(sc.warmLambda)
		if sc.ordCount == nil {
			sc.ordCount = make(map[uint64]int32) //paraxlint:allow(alloc) lazy one-time map
		}
		clear(sc.ordCount)
	}
	sc.queued = sc.queued[:0]
	sc.main = sc.main[:0]
}

//paraxlint:noalloc
func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n) //paraxlint:allow(alloc) capacity growth, amortized
	}
	return s[:n]
}

//paraxlint:noalloc
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n) //paraxlint:allow(alloc) capacity growth, amortized
	}
	return s[:n]
}

//paraxlint:noalloc
func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n) //paraxlint:allow(alloc) capacity growth, amortized
	}
	return s[:n]
}

//paraxlint:noalloc
func growStats(s []solver.Stats, n int) []solver.Stats {
	if cap(s) < n {
		return make([]solver.Stats, n) //paraxlint:allow(alloc) capacity growth, amortized
	}
	return s[:n]
}
