package solver

import (
	"math"
	"math/rand"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

func sphereBody(id int, mass float64, pos m3.Vec) *body.Body {
	b := body.New(mass, geom.Sphere{R: 0.5}.Inertia(mass))
	b.ID = id
	b.Pos = pos
	return b
}

var testParams = joint.Params{Dt: 0.01, ERP: 0.2, CFM: 1e-9}

func TestContactStopsApproach(t *testing.T) {
	// A ball falling onto the static ground: after solving, the approach
	// velocity along the normal must be non-negative (plus bias).
	b := sphereBody(0, 1, m3.V(0, 0.45, 0))
	b.LinVel = m3.V(0, -3, 0)
	bs := []*body.Body{b}
	n := m3.V(0, 1, 0) // normal pushes body B (the ball) up; A is world
	rows := joint.ContactRows(bs, -1, 0, m3.V(0, 0, 0), n, 0.05,
		joint.DefaultMaterial, testParams, 0, nil)
	s := New()
	var st Stats
	s.Solve(bs, rows, testParams.Dt, nil, &st, nil)
	if b.LinVel.Y < 0 {
		t.Errorf("ball still approaching ground after solve: vy = %v", b.LinVel.Y)
	}
	if st.Rows != 3 || st.RowUpdates != 60 {
		t.Errorf("stats = %+v", st)
	}
}

func TestContactRestitutionBounces(t *testing.T) {
	b := sphereBody(0, 1, m3.V(0, 0.45, 0))
	b.LinVel = m3.V(0, -10, 0) // fast: above restitution threshold
	bs := []*body.Body{b}
	mat := joint.ContactMaterial{Mu: 0, Restitution: 0.8, RestitutionThreshold: 0.5}
	rows := joint.ContactRows(bs, -1, 0, m3.Zero, m3.V(0, 1, 0), 0.01, mat, testParams, 0, nil)
	New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	if b.LinVel.Y < 7.5 || b.LinVel.Y > 8.5 {
		t.Errorf("bounce velocity = %v, want ~8", b.LinVel.Y)
	}
}

func TestFrictionBoundedByNormal(t *testing.T) {
	// A sliding box on the ground: friction impulse must not exceed
	// mu * normal impulse.
	b := sphereBody(0, 1, m3.V(0, 0.5, 0))
	b.LinVel = m3.V(5, -1, 0)
	bs := []*body.Body{b}
	mat := joint.ContactMaterial{Mu: 0.5}
	rows := joint.ContactRows(bs, -1, 0, m3.V(0, 0, 0), m3.V(0, 1, 0), 0.001, mat, testParams, 0, nil)
	lam := New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	fr := math.Hypot(lam[1], lam[2])
	if fr > mat.Mu*lam[0]*math.Sqrt2+1e-9 {
		t.Errorf("friction %v exceeds mu*normal %v", fr, mat.Mu*lam[0])
	}
	// Sliding should be slowed, not reversed.
	if b.LinVel.X < 0 || b.LinVel.X > 5 {
		t.Errorf("tangential velocity = %v", b.LinVel.X)
	}
}

func TestBallJointHoldsBodies(t *testing.T) {
	// Two spheres connected at their midpoint; pulling them apart should
	// be resisted: after the solve, relative velocity at the anchor ~ 0.
	a := sphereBody(0, 1, m3.V(-0.5, 0, 0))
	b := sphereBody(1, 1, m3.V(0.5, 0, 0))
	bs := []*body.Body{a, b}
	j := joint.NewBall(bs, 0, 1, m3.V(0, 0, 0))
	a.LinVel = m3.V(-1, 0, 0)
	b.LinVel = m3.V(1, 0, 0)
	rows := j.Rows(bs, testParams, 0, nil)
	if len(rows) != 3 {
		t.Fatalf("ball joint rows = %d, want 3", len(rows))
	}
	New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	va := a.VelocityAt(m3.Zero)
	vb := b.VelocityAt(m3.Zero)
	if va.Sub(vb).Len() > 1e-6 {
		t.Errorf("anchor velocities differ after solve: %v vs %v", va, vb)
	}
}

func TestBallJointConservesMomentum(t *testing.T) {
	a := sphereBody(0, 2, m3.V(-0.5, 0, 0))
	b := sphereBody(1, 3, m3.V(0.5, 0, 0))
	bs := []*body.Body{a, b}
	a.LinVel = m3.V(4, 1, 0)
	b.LinVel = m3.V(-2, 0, 1)
	p0 := a.Momentum().Add(b.Momentum())
	j := joint.NewBall(bs, 0, 1, m3.Zero)
	rows := j.Rows(bs, testParams, 0, nil)
	New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	p1 := a.Momentum().Add(b.Momentum())
	if p1.Sub(p0).Len() > 1e-9 {
		t.Errorf("internal constraint changed momentum: %v -> %v", p0, p1)
	}
}

func TestHingeRemovesOffAxisRotation(t *testing.T) {
	a := sphereBody(0, 1, m3.V(0, 0, 0))
	b := sphereBody(1, 1, m3.V(1, 0, 0))
	bs := []*body.Body{a, b}
	axis := m3.V(0, 0, 1)
	j := joint.NewHinge(bs, 0, 1, m3.V(0.5, 0, 0), axis)
	if j.NumRows() != 5 {
		t.Fatalf("hinge rows = %d", j.NumRows())
	}
	// Give B angular velocity off-axis; hinge should cancel the off-axis
	// relative part.
	b.AngVel = m3.V(3, 2, 1)
	rows := j.Rows(bs, testParams, 0, nil)
	New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	rel := b.AngVel.Sub(a.AngVel)
	off := rel.Sub(axis.Scale(rel.Dot(axis)))
	if off.Len() > 1e-4 {
		t.Errorf("off-axis relative spin remains: %v", off)
	}
}

func TestFixedWeldStopsRelativeMotion(t *testing.T) {
	a := sphereBody(0, 1, m3.V(0, 0, 0))
	b := sphereBody(1, 1, m3.V(1, 0, 0))
	bs := []*body.Body{a, b}
	j := joint.NewFixed(bs, 0, 1, m3.V(0.5, 0, 0))
	b.LinVel = m3.V(0, 2, 0)
	b.AngVel = m3.V(1, 1, 1)
	rows := j.Rows(bs, testParams, 0, nil)
	if len(rows) != 6 {
		t.Fatalf("fixed joint rows = %d, want 6", len(rows))
	}
	New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	if rel := b.AngVel.Sub(a.AngVel); rel.Len() > 1e-4 {
		t.Errorf("relative spin remains: %v", rel)
	}
	va := a.VelocityAt(m3.V(0.5, 0, 0))
	vb := b.VelocityAt(m3.V(0.5, 0, 0))
	if va.Sub(vb).Len() > 1e-4 {
		t.Errorf("anchor velocity mismatch: %v vs %v", va, vb)
	}
}

func TestSliderAllowsAxialMotion(t *testing.T) {
	a := sphereBody(0, 1, m3.V(0, 0, 0))
	b := sphereBody(1, 1, m3.V(1, 0, 0))
	bs := []*body.Body{a, b}
	axis := m3.V(1, 0, 0)
	j := joint.NewSlider(bs, 0, 1, m3.V(0.5, 0, 0), axis)
	b.LinVel = m3.V(2, 3, 0) // axial + lateral
	rows := j.Rows(bs, testParams, 0, nil)
	New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	// A slider locks relative rotation and lateral anchor motion; the
	// assembly may still rotate jointly, so compare anchor velocities,
	// not center velocities.
	if relW := b.AngVel.Sub(a.AngVel); relW.Len() > 1e-4 {
		t.Errorf("relative spin remains: %v", relW)
	}
	anchor := m3.V(0.5, 0, 0)
	rel := b.VelocityAt(anchor).Sub(a.VelocityAt(anchor))
	if math.Abs(rel.Y) > 1e-4 || math.Abs(rel.Z) > 1e-4 {
		t.Errorf("lateral anchor motion remains: %v", rel)
	}
	if rel.X < 0.5 {
		t.Errorf("axial motion should be preserved: %v", rel)
	}
}

func TestBreakableJoint(t *testing.T) {
	a := sphereBody(0, 1, m3.V(0, 0, 0))
	b := sphereBody(1, 1, m3.V(1, 0, 0))
	bs := []*body.Body{a, b}
	inner := joint.NewBall(bs, 0, 1, m3.V(0.5, 0, 0))
	br := joint.NewBreakable(inner, 10, 0)
	if br.NumRows() != 3 {
		t.Fatalf("breakable rows = %d", br.NumRows())
	}
	if br.ApplyLoad(5) || br.Broken {
		t.Error("joint broke below threshold")
	}
	if !br.ApplyLoad(15) || !br.Broken {
		t.Error("joint did not break above threshold")
	}
	if rows := br.Rows(bs, testParams, 0, nil); len(rows) != 0 {
		t.Error("broken joint still produces rows")
	}
	if br.NumRows() != 0 {
		t.Error("broken joint reports rows")
	}
}

func TestBreakableFatigue(t *testing.T) {
	a := sphereBody(0, 1, m3.Zero)
	bs := []*body.Body{a}
	_ = bs
	br := joint.NewBreakable(joint.NewBall(bs, 0, -1, m3.Zero), 0, 100)
	for i := 0; i < 9; i++ {
		if br.ApplyLoad(11) && br.Fatigue <= 100 {
			t.Fatalf("broke early at accumulated load %v", br.Fatigue)
		}
	}
	// 9 * 11 = 99 <= 100: still intact; the 10th application breaks it.
	if br.Broken {
		t.Fatal("joint broke before exceeding fatigue limit")
	}
	if !br.ApplyLoad(11) || !br.Broken {
		t.Error("fatigue accumulation did not break joint")
	}
}

func TestJointLoadFeedback(t *testing.T) {
	a := sphereBody(0, 1, m3.V(-0.5, 0, 0))
	b := sphereBody(1, 1, m3.V(0.5, 0, 0))
	bs := []*body.Body{a, b}
	j := joint.NewBall(bs, 0, 1, m3.Zero)
	a.LinVel = m3.V(-10, 0, 0)
	b.LinVel = m3.V(10, 0, 0)
	rows := j.Rows(bs, testParams, 4, nil)
	load := make([]float64, 5)
	New().Solve(bs, rows, testParams.Dt, load, nil, nil)
	if load[4] <= 0 {
		t.Errorf("joint load not recorded: %v", load)
	}
}

// A reused Workspace must give the same answer as a fresh solve and,
// once grown, make repeated solves allocation-free.
func TestWorkspaceReuse(t *testing.T) {
	mkRows := func(bs []*body.Body) []joint.Row {
		return joint.ContactRows(bs, -1, 0, m3.Zero, m3.V(0, 1, 0), 0.01,
			joint.DefaultMaterial, testParams, 0, nil)
	}
	fresh := sphereBody(0, 1, m3.V(0, 0.45, 0))
	fresh.LinVel = m3.V(0, -3, 0)
	want := New().Solve([]*body.Body{fresh}, mkRows([]*body.Body{fresh}),
		testParams.Dt, nil, nil, nil)

	ws := &Workspace{}
	// Dirty the workspace with a larger unrelated solve first.
	dirty := sphereBody(0, 2, m3.V(0, 0.4, 0))
	dirty.LinVel = m3.V(1, -5, 2)
	dbs := []*body.Body{dirty}
	drows := append(mkRows(dbs), mkRows(dbs)...)
	New().Solve(dbs, drows, testParams.Dt, nil, nil, ws)

	b := sphereBody(0, 1, m3.V(0, 0.45, 0))
	b.LinVel = m3.V(0, -3, 0)
	bs := []*body.Body{b}
	got := New().Solve(bs, mkRows(bs), testParams.Dt, nil, nil, ws)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("lambda[%d]: reused workspace %v, fresh %v", i, got[i], want[i])
		}
	}

	s := New()
	rows := mkRows(bs)
	allocs := testing.AllocsPerRun(50, func() {
		s.Solve(bs, rows, testParams.Dt, nil, nil, ws)
	})
	if allocs > 0 {
		t.Errorf("Solve with grown workspace allocates %v/op, want 0", allocs)
	}
}

func TestSolverEmptyRows(t *testing.T) {
	if lam := New().Solve(nil, nil, 0.01, nil, nil, nil); lam != nil {
		t.Error("empty solve should return nil")
	}
}

// Property test: the solver never produces non-finite state, whatever
// random constraint soup it is given.
func TestSolverRobustToRandomRows(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(6)
		var bs []*body.Body
		for i := 0; i < n; i++ {
			b := sphereBody(i, 0.5+r.Float64()*5, m3.V(r.Float64()*4, r.Float64()*4, r.Float64()*4))
			b.LinVel = m3.V(r.Float64()*10-5, r.Float64()*10-5, r.Float64()*10-5)
			bs = append(bs, b)
		}
		var rows []joint.Row
		for k := 0; k < 3+r.Intn(10); k++ {
			a := int32(r.Intn(n))
			bidx := int32(r.Intn(n))
			d := m3.V(r.Float64()*2-1, r.Float64()*2-1, r.Float64()*2-1).Norm()
			if d == m3.Zero {
				d = m3.V(1, 0, 0)
			}
			rows = append(rows, joint.Row{
				BodyA: a, BodyB: bidx,
				JLinA: d.Neg(), JLinB: d,
				JAngA: m3.V(r.Float64(), r.Float64(), r.Float64()),
				JAngB: m3.V(r.Float64(), r.Float64(), r.Float64()),
				RHS:   r.Float64()*4 - 2,
				CFM:   1e-9,
				Lo:    math.Inf(-1), Hi: math.Inf(1),
				FrictionOf: -1, Joint: -1,
			})
		}
		lam := New().Solve(bs, rows, 0.01, nil, nil, nil)
		for i, l := range lam {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("trial %d: lambda[%d] = %v", trial, i, l)
			}
		}
		for i, b := range bs {
			if !b.Valid() {
				t.Fatalf("trial %d: body %d invalid after solve", trial, i)
			}
		}
	}
}

// Warm starting must preserve the solution of an already-converged
// system: re-solving with the previous impulses yields (nearly) no
// further velocity change.
func TestWarmStartIdempotent(t *testing.T) {
	b := sphereBody(0, 1, m3.V(0, 0.45, 0))
	b.LinVel = m3.V(0, -3, 0)
	bs := []*body.Body{b}
	rows := joint.ContactRows(bs, -1, 0, m3.Zero, m3.V(0, 1, 0), 0.01,
		joint.DefaultMaterial, testParams, 0, nil)
	lam := New().Solve(bs, rows, testParams.Dt, nil, nil, nil)

	// Second solve on a fresh body with the same approach velocity, warm
	// started with the converged impulses: one sweep suffices.
	b2 := sphereBody(0, 1, m3.V(0, 0.45, 0))
	b2.LinVel = m3.V(0, -3, 0)
	bs2 := []*body.Body{b2}
	rows2 := joint.ContactRows(bs2, -1, 0, m3.Zero, m3.V(0, 1, 0), 0.01,
		joint.DefaultMaterial, testParams, 0, nil)
	for i := range rows2 {
		rows2[i].Warm = lam[i]
	}
	one := &Solver{Iterations: 1, SOR: 1}
	one.Solve(bs2, rows2, testParams.Dt, nil, nil, nil)
	if math.Abs(b2.LinVel.Y-b.LinVel.Y) > 0.05 {
		t.Errorf("warm-started single sweep %v differs from converged %v",
			b2.LinVel.Y, b.LinVel.Y)
	}
}

// refSolve is the pointer-chasing kernel the dense one replaced, kept
// verbatim as the oracle: rows address bs by world body index and every
// row endpoint recomputes its body's world inverse inertia.
func refSolve(s *Solver, bs []*body.Body, rows []joint.Row, dt float64,
	jointLoad []float64, st *Stats) []float64 {

	n := len(rows)
	if st != nil {
		st.Rows += n
		st.Iterations = s.Iterations
		st.RowUpdates += n * s.Iterations
	}
	if n == 0 {
		return nil
	}
	pLinA, pAngA := make([]m3.Vec, n), make([]m3.Vec, n)
	pLinB, pAngB := make([]m3.Vec, n), make([]m3.Vec, n)
	invDen, lambda := make([]float64, n), make([]float64, n)
	for i := range rows {
		r := &rows[i]
		den := r.CFM
		if r.BodyA >= 0 {
			a := bs[r.BodyA]
			pLinA[i] = r.JLinA.Scale(a.InvMass)
			pAngA[i] = a.InvInertiaWorld().MulVec(r.JAngA)
			den += r.JLinA.Dot(pLinA[i]) + r.JAngA.Dot(pAngA[i])
		}
		if r.BodyB >= 0 {
			b := bs[r.BodyB]
			pLinB[i] = r.JLinB.Scale(b.InvMass)
			pAngB[i] = b.InvInertiaWorld().MulVec(r.JAngB)
			den += r.JLinB.Dot(pLinB[i]) + r.JAngB.Dot(pAngB[i])
		}
		if den < m3.Eps {
			invDen[i] = 0
		} else {
			invDen[i] = 1 / den
		}
	}
	for i := range rows {
		r := &rows[i]
		if r.Warm == 0 {
			continue
		}
		lambda[i] = r.Warm
		if r.BodyA >= 0 {
			a := bs[r.BodyA]
			a.LinVel = a.LinVel.Add(pLinA[i].Scale(r.Warm))
			a.AngVel = a.AngVel.Add(pAngA[i].Scale(r.Warm))
		}
		if r.BodyB >= 0 {
			b := bs[r.BodyB]
			b.LinVel = b.LinVel.Add(pLinB[i].Scale(r.Warm))
			b.AngVel = b.AngVel.Add(pAngB[i].Scale(r.Warm))
		}
	}
	for it := 0; it < s.Iterations; it++ {
		for i := range rows {
			r := &rows[i]
			vel := 0.0
			if r.BodyA >= 0 {
				a := bs[r.BodyA]
				vel += r.JLinA.Dot(a.LinVel) + r.JAngA.Dot(a.AngVel)
			}
			if r.BodyB >= 0 {
				b := bs[r.BodyB]
				vel += r.JLinB.Dot(b.LinVel) + r.JAngB.Dot(b.AngVel)
			}
			dl := s.SOR * (r.RHS - vel - r.CFM*lambda[i]) * invDen[i]
			lo, hi := r.Lo, r.Hi
			if r.FrictionOf >= 0 {
				limit := r.Mu * math.Abs(lambda[r.FrictionOf])
				lo, hi = -limit, limit
			}
			old := lambda[i]
			nl := old + dl
			if nl < lo {
				nl = lo
			} else if nl > hi {
				nl = hi
			}
			dl = nl - old
			if dl == 0 {
				continue
			}
			lambda[i] = nl
			if r.BodyA >= 0 {
				a := bs[r.BodyA]
				a.LinVel = a.LinVel.Add(pLinA[i].Scale(dl))
				a.AngVel = a.AngVel.Add(pAngA[i].Scale(dl))
			}
			if r.BodyB >= 0 {
				b := bs[r.BodyB]
				b.LinVel = b.LinVel.Add(pLinB[i].Scale(dl))
				b.AngVel = b.AngVel.Add(pAngB[i].Scale(dl))
			}
		}
	}
	if jointLoad != nil {
		for i := range rows {
			r := &rows[i]
			if r.Joint >= 0 && int(r.Joint) < len(jointLoad) {
				jointLoad[r.Joint] += math.Abs(lambda[i]) / dt
			}
		}
	}
	if st != nil {
		for i := range rows {
			r := &rows[i]
			vel := 0.0
			if r.BodyA >= 0 {
				a := bs[r.BodyA]
				vel += r.JLinA.Dot(a.LinVel) + r.JAngA.Dot(a.AngVel)
			}
			if r.BodyB >= 0 {
				b := bs[r.BodyB]
				vel += r.JLinB.Dot(b.LinVel) + r.JAngB.Dot(b.AngVel)
			}
			err := r.RHS - vel - r.CFM*lambda[i]
			lo, hi := r.Lo, r.Hi
			if r.FrictionOf >= 0 {
				limit := r.Mu * math.Abs(lambda[r.FrictionOf])
				lo, hi = -limit, limit
			}
			if lambda[i] <= lo && err < 0 {
				err = 0
			}
			if lambda[i] >= hi && err > 0 {
				err = 0
			}
			st.Residual += math.Abs(err)
			st.ImpulseNorm += math.Abs(lambda[i])
		}
	}
	return lambda
}

// diffIsland is one seeded random solve: a world of bodies, an island
// drawn from it in shuffled order, and rows addressing the island's
// bodies by world index (worldRows) and by island-local index
// (localRows).
type diffIsland struct {
	world                []*body.Body
	island               []int32 // world index of each island-local slot
	worldRows, localRows []joint.Row
	numJoints            int
}

func randVec(r *rand.Rand, s float64) m3.Vec {
	return m3.V((r.Float64()*2-1)*s, (r.Float64()*2-1)*s, (r.Float64()*2-1)*s)
}

// newDiffIsland draws a world of nWorld bodies — some immovable
// (InvMass 0), all arbitrarily rotated boxes so the world inertia
// differs per body — and an island of nIsland of them. Rows come as
// contact triplets (a normal row plus two friction rows bounded by it)
// and joint rows; endpoints are island bodies or the frozen static
// world (-1), and one hub body takes part in most rows.
func newDiffIsland(r *rand.Rand, nWorld, nIsland, nRows int) *diffIsland {
	d := &diffIsland{numJoints: 1 + r.Intn(8)}
	for i := 0; i < nWorld; i++ {
		mass := 0.5 + r.Float64()*5
		if r.Intn(5) == 0 {
			mass = 0
		}
		half := m3.V(0.1+r.Float64(), 0.1+r.Float64(), 0.1+r.Float64())
		b := body.New(mass, geom.Box{Half: half}.Inertia(mass))
		b.ID = i
		b.Pos = randVec(r, 5)
		b.Rot = m3.QFromEuler(r.Float64()*6, r.Float64()*6, r.Float64()*6)
		b.LinVel = randVec(r, 5)
		b.AngVel = randVec(r, 3)
		d.world = append(d.world, b)
	}
	for _, k := range r.Perm(nWorld)[:nIsland] {
		d.island = append(d.island, int32(k))
	}
	hub := d.island[r.Intn(nIsland)]
	endpoint := func() int32 {
		switch r.Intn(6) {
		case 0:
			return -1
		case 1, 2:
			return hub
		default:
			return d.island[r.Intn(nIsland)]
		}
	}
	row := func(a, b int32) joint.Row {
		dir := randVec(r, 1).Norm()
		if dir == m3.Zero {
			dir = m3.V(0, 1, 0)
		}
		return joint.Row{
			BodyA: a, BodyB: b,
			JLinA: dir.Neg(), JLinB: dir,
			JAngA: randVec(r, 1), JAngB: randVec(r, 1),
			RHS: r.Float64()*4 - 2, CFM: 1e-9 * float64(r.Intn(3)),
			Lo: math.Inf(-1), Hi: math.Inf(1),
			FrictionOf: -1, Joint: -1,
		}
	}
	for len(d.worldRows) < nRows {
		a, b := endpoint(), endpoint()
		if r.Intn(2) == 0 {
			// Contact triplet: a non-negative normal impulse and two
			// friction rows bounded by Mu times it.
			normal := int32(len(d.worldRows))
			nr := row(a, b)
			nr.Lo, nr.Hi = 0, math.Inf(1)
			d.worldRows = append(d.worldRows, nr)
			for f := 0; f < 2; f++ {
				fr := row(a, b)
				fr.FrictionOf, fr.Mu = normal, r.Float64()
				d.worldRows = append(d.worldRows, fr)
			}
		} else {
			jr := row(a, b)
			jr.Joint = int32(r.Intn(d.numJoints))
			if r.Intn(2) == 0 {
				jr.Lo, jr.Hi = -r.Float64()*3, r.Float64()*3
			}
			d.worldRows = append(d.worldRows, jr)
		}
	}
	for i := range d.worldRows {
		if r.Intn(3) == 0 {
			d.worldRows[i].Warm = r.Float64()*2 - 1
		}
	}
	slot := make(map[int32]int32, nIsland)
	for k, wi := range d.island {
		slot[wi] = int32(k)
	}
	d.localRows = append([]joint.Row(nil), d.worldRows...)
	for i := range d.localRows {
		lr := &d.localRows[i]
		if lr.BodyA >= 0 {
			lr.BodyA = slot[lr.BodyA]
		}
		if lr.BodyB >= 0 {
			lr.BodyB = slot[lr.BodyB]
		}
	}
	return d
}

// cloneBodies deep-copies a body list.
func cloneBodies(bs []*body.Body) []*body.Body {
	out := make([]*body.Body, len(bs))
	for i, b := range bs {
		c := *b
		out[i] = &c
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVecBits(a, b m3.Vec) bool {
	return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) && sameBits(a.Z, b.Z)
}

// TestDenseSolveMatchesReference runs the island-local kernel and the
// pointer-based reference on seeded random islands and requires
// bit-identical velocities, impulses, joint loads and statistics. One
// Workspace serves every trial, across islands that grow and shrink and
// worlds of different body counts, so stale or mis-sized workspace
// state shows up as a mismatch.
func TestDenseSolveMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ws := &Workspace{}
	for trial := 0; trial < 200; trial++ {
		nWorld := 1 + r.Intn(60)
		nIsland := 1 + r.Intn(nWorld)
		d := newDiffIsland(r, nWorld, nIsland, 1+r.Intn(120))
		s := New()
		if trial%4 == 3 {
			s.SOR = 1.3
		}

		refWorld := cloneBodies(d.world)
		refLoad := make([]float64, d.numJoints)
		var refSt Stats
		want := refSolve(s, refWorld, d.worldRows, testParams.Dt, refLoad, &refSt)

		gotWorld := cloneBodies(d.world)
		island := make([]*body.Body, len(d.island))
		for k, wi := range d.island {
			island[k] = gotWorld[wi]
		}
		gotLoad := make([]float64, d.numJoints)
		var gotSt Stats
		got := s.Solve(island, d.localRows, testParams.Dt, gotLoad, &gotSt, ws)

		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("trial %d: lambda[%d] = %v, reference %v", trial, i, got[i], want[i])
			}
		}
		for i := range refWorld {
			if !sameVecBits(gotWorld[i].LinVel, refWorld[i].LinVel) ||
				!sameVecBits(gotWorld[i].AngVel, refWorld[i].AngVel) {
				t.Fatalf("trial %d: body %d velocity (%v, %v), reference (%v, %v)", trial, i,
					gotWorld[i].LinVel, gotWorld[i].AngVel, refWorld[i].LinVel, refWorld[i].AngVel)
			}
		}
		for j := range refLoad {
			if !sameBits(gotLoad[j], refLoad[j]) {
				t.Fatalf("trial %d: jointLoad[%d] = %v, reference %v", trial, j, gotLoad[j], refLoad[j])
			}
		}
		if gotSt.Rows != refSt.Rows || gotSt.RowUpdates != refSt.RowUpdates ||
			!sameBits(gotSt.Residual, refSt.Residual) || !sameBits(gotSt.ImpulseNorm, refSt.ImpulseNorm) {
			t.Fatalf("trial %d: stats %+v, reference %+v", trial, gotSt, refSt)
		}
	}
}
