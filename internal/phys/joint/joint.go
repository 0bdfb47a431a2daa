// Package joint implements the engine's constraints: permanent joints
// (ball, hinge, slider, fixed, wheel suspension), contact constraints
// generated by the narrow phase, and the breakable-joint wrapper used by
// bridges, cars and robots. Each joint contributes constraint Rows —
// one scalar row per degree of freedom removed — which are exactly the
// fine-grain tasks ParallAX schedules onto FG cores during Island
// Processing.
package joint

import (
	"math"

	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// Row is one scalar constraint row in the mixed LCP solved by the
// island-processing phase: J*v = RHS with the impulse bounded by
// [Lo, Hi] (scaled by the normal impulse for friction rows).
type Row struct {
	// BodyA and BodyB name the bodies the row acts on; -1 means the
	// static world. Joints and contacts emit world body indices; the
	// world rewrites them to island-local indices (positions in the
	// body list passed to solver.Solve) before solving.
	BodyA, BodyB int32
	// Jacobian halves: the constraint velocity is
	// JLinA.vA + JAngA.wA + JLinB.vB + JAngB.wB.
	JLinA, JAngA m3.Vec
	JLinB, JAngB m3.Vec
	// RHS is the target constraint velocity, including the error
	// reduction (ERP) bias.
	RHS float64
	// CFM is the constraint force mixing (softness) term.
	CFM float64
	// Lo and Hi bound the impulse.
	Lo, Hi float64
	// FrictionOf, when >= 0, names an earlier row index (absolute, in
	// the island's row list) whose accumulated impulse scales this row's
	// bounds by Mu.
	FrictionOf int32
	Mu         float64
	// Joint is the index of the owning joint (-1 for contact rows); the
	// solver accumulates impulse feedback per joint for breakables.
	Joint int32
	// Warm is the impulse carried over from the previous step for this
	// row (warm starting); the solver applies it before iterating.
	Warm float64
}

// Params carries the per-step solver parameters shared by all joints.
type Params struct {
	Dt  float64
	ERP float64
	CFM float64
}

// Joint is a permanent constraint between two bodies.
type Joint interface {
	// Bodies returns the connected body indices (-1 for world).
	Bodies() (int32, int32)
	// Rows appends this joint's constraint rows to dst. idx is the
	// joint's index used for impulse feedback.
	Rows(bs []*body.Body, p Params, idx int32, dst []Row) []Row
	// NumRows returns how many rows this joint contributes (its
	// degrees of freedom removed).
	NumRows() int
}

// anchored computes the common per-anchor quantities: world anchor
// offsets from each body's center.
func anchorOffsets(bs []*body.Body, a, b int32, anchor m3.Vec) (ra, rb m3.Vec) {
	if a >= 0 {
		ra = anchor.Sub(bs[a].Pos)
	}
	if b >= 0 {
		rb = anchor.Sub(bs[b].Pos)
	}
	return ra, rb
}

// positionOf returns the body position, or the zero vector for world.
func positionOf(bs []*body.Body, i int32) m3.Vec {
	if i < 0 {
		return m3.Zero
	}
	return bs[i].Pos
}

// linearRow builds a positional row along world direction d (unit) at
// world anchors (ra, rb are offsets from each body's center), with
// positional error errD along d.
func linearRow(a, b int32, ra, rb, d m3.Vec, errD float64, p Params, idx int32) Row {
	return Row{
		BodyA: a, BodyB: b,
		JLinA: d.Neg(), JAngA: ra.Cross(d).Neg(),
		JLinB: d, JAngB: rb.Cross(d),
		RHS: p.ERP / p.Dt * errD,
		CFM: p.CFM,
		Lo:  math.Inf(-1), Hi: math.Inf(1),
		FrictionOf: -1, Joint: idx,
	}
}

// angularRow builds an angular row about world axis d with angular error
// errD.
func angularRow(a, b int32, d m3.Vec, errD float64, p Params, idx int32) Row {
	return Row{
		BodyA: a, BodyB: b,
		JAngA: d.Neg(), JAngB: d,
		RHS: p.ERP / p.Dt * errD,
		CFM: p.CFM,
		Lo:  math.Inf(-1), Hi: math.Inf(1),
		FrictionOf: -1, Joint: idx,
	}
}

// Ball is a ball-and-socket joint: the two bodies share a world anchor
// point (3 DOF removed).
type Ball struct {
	A, B int32
	// AnchorA and AnchorB are the anchor in each body's local frame
	// (world frame for a world attachment).
	AnchorA, AnchorB m3.Vec
}

// NewBall creates a ball joint between bodies a and b (indices into the
// world body list; -1 attaches to the static world) at world point
// anchor, capturing the current body poses.
func NewBall(bs []*body.Body, a, b int32, anchor m3.Vec) *Ball {
	j := &Ball{A: a, B: b}
	j.AnchorA = toLocal(bs, a, anchor)
	j.AnchorB = toLocal(bs, b, anchor)
	return j
}

func toLocal(bs []*body.Body, i int32, world m3.Vec) m3.Vec {
	if i < 0 {
		return world
	}
	return bs[i].Rot.Conj().Rotate(world.Sub(bs[i].Pos))
}

func toWorld(bs []*body.Body, i int32, local m3.Vec) m3.Vec {
	if i < 0 {
		return local
	}
	return bs[i].Rot.Rotate(local).Add(bs[i].Pos)
}

// Bodies implements Joint.
func (j *Ball) Bodies() (int32, int32) { return j.A, j.B }

// NumRows implements Joint.
func (j *Ball) NumRows() int { return 3 }

// Rows implements Joint.
func (j *Ball) Rows(bs []*body.Body, p Params, idx int32, dst []Row) []Row {
	wa := toWorld(bs, j.A, j.AnchorA)
	wb := toWorld(bs, j.B, j.AnchorB)
	ra := wa.Sub(positionOf(bs, j.A))
	rb := wb.Sub(positionOf(bs, j.B))
	err := wa.Sub(wb) // move B's anchor toward A's
	for i := 0; i < 3; i++ {
		d := m3.Zero.SetComp(i, 1)
		dst = append(dst, linearRow(j.A, j.B, ra, rb, d, err.Comp(i), p, idx))
	}
	return dst
}

// Hinge allows rotation only about a single axis (5 DOF removed).
type Hinge struct {
	A, B             int32
	AnchorA, AnchorB m3.Vec
	// AxisA and AxisB are the hinge axis in each body's local frame.
	AxisA, AxisB m3.Vec
	// SoftAnchor relaxes the linear rows with extra CFM, modeling a
	// compliant mount (used for vehicle suspensions).
	SoftAnchor float64
}

// NewHinge creates a hinge between a and b at world anchor with world
// axis (unit).
func NewHinge(bs []*body.Body, a, b int32, anchor, axis m3.Vec) *Hinge {
	j := &Hinge{A: a, B: b}
	j.AnchorA = toLocal(bs, a, anchor)
	j.AnchorB = toLocal(bs, b, anchor)
	j.AxisA = toLocalDir(bs, a, axis)
	j.AxisB = toLocalDir(bs, b, axis)
	return j
}

func toLocalDir(bs []*body.Body, i int32, world m3.Vec) m3.Vec {
	if i < 0 {
		return world
	}
	return bs[i].Rot.Conj().Rotate(world)
}

func toWorldDir(bs []*body.Body, i int32, local m3.Vec) m3.Vec {
	if i < 0 {
		return local
	}
	return bs[i].Rot.Rotate(local)
}

// Bodies implements Joint.
func (j *Hinge) Bodies() (int32, int32) { return j.A, j.B }

// NumRows implements Joint.
func (j *Hinge) NumRows() int { return 5 }

// Rows implements Joint.
func (j *Hinge) Rows(bs []*body.Body, p Params, idx int32, dst []Row) []Row {
	wa := toWorld(bs, j.A, j.AnchorA)
	wb := toWorld(bs, j.B, j.AnchorB)
	ra := wa.Sub(positionOf(bs, j.A))
	rb := wb.Sub(positionOf(bs, j.B))
	err := wa.Sub(wb)
	for i := 0; i < 3; i++ {
		d := m3.Zero.SetComp(i, 1)
		r := linearRow(j.A, j.B, ra, rb, d, err.Comp(i), p, idx)
		r.CFM += j.SoftAnchor
		dst = append(dst, r)
	}
	// Angular rows: keep axes aligned. Error vector = axisA x axisB.
	axA := toWorldDir(bs, j.A, j.AxisA)
	axB := toWorldDir(bs, j.B, j.AxisB)
	u, w := axA.Norm().Basis()
	angErr := axA.Cross(axB)
	dst = append(dst, angularRow(j.A, j.B, u, angErr.Dot(u), p, idx))
	dst = append(dst, angularRow(j.A, j.B, w, angErr.Dot(w), p, idx))
	return dst
}

// Slider permits translation along one axis only (5 DOF removed: all 3
// rotations and 2 translations).
type Slider struct {
	A, B  int32
	AxisA m3.Vec // axis in A's local frame
	// RefA and RefB are reference points on the axis in local frames.
	RefA, RefB m3.Vec
	// RelRot is the initial relative orientation (B relative to A).
	RelRot m3.Quat
}

// NewSlider creates a slider along world axis through world point ref.
func NewSlider(bs []*body.Body, a, b int32, ref, axis m3.Vec) *Slider {
	j := &Slider{A: a, B: b}
	j.AxisA = toLocalDir(bs, a, axis)
	j.RefA = toLocal(bs, a, ref)
	j.RefB = toLocal(bs, b, ref)
	qa, qb := m3.QIdent, m3.QIdent
	if a >= 0 {
		qa = bs[a].Rot
	}
	if b >= 0 {
		qb = bs[b].Rot
	}
	j.RelRot = qa.Conj().Mul(qb)
	return j
}

// Bodies implements Joint.
func (j *Slider) Bodies() (int32, int32) { return j.A, j.B }

// NumRows implements Joint.
func (j *Slider) NumRows() int { return 5 }

// Rows implements Joint.
func (j *Slider) Rows(bs []*body.Body, p Params, idx int32, dst []Row) []Row {
	axis := toWorldDir(bs, j.A, j.AxisA).Norm()
	u, w := axis.Basis()
	wa := toWorld(bs, j.A, j.RefA)
	wb := toWorld(bs, j.B, j.RefB)
	ra := wa.Sub(positionOf(bs, j.A))
	rb := wb.Sub(positionOf(bs, j.B))
	err := wa.Sub(wb)
	// Two translational rows perpendicular to the axis.
	dst = append(dst, linearRow(j.A, j.B, ra, rb, u, err.Dot(u), p, idx))
	dst = append(dst, linearRow(j.A, j.B, ra, rb, w, err.Dot(w), p, idx))
	// Three angular rows: lock relative rotation to RelRot.
	qa, qb := m3.QIdent, m3.QIdent
	if j.A >= 0 {
		qa = bs[j.A].Rot
	}
	if j.B >= 0 {
		qb = bs[j.B].Rot
	}
	// Relative rotation error as a small-angle vector.
	qerr := qb.Conj().Mul(qa.Mul(j.RelRot))
	errAng := m3.V(qerr.X, qerr.Y, qerr.Z).Scale(2)
	if qerr.W < 0 {
		errAng = errAng.Neg()
	}
	for i := 0; i < 3; i++ {
		d := m3.Zero.SetComp(i, 1)
		dst = append(dst, angularRow(j.A, j.B, d, errAng.Comp(i), p, idx))
	}
	return dst
}

// Fixed welds two bodies together (6 DOF removed).
type Fixed struct {
	A, B             int32
	AnchorA, AnchorB m3.Vec
	RelRot           m3.Quat
}

// NewFixed welds a and b in their current relative pose, anchored at
// world point anchor.
func NewFixed(bs []*body.Body, a, b int32, anchor m3.Vec) *Fixed {
	j := &Fixed{A: a, B: b}
	j.AnchorA = toLocal(bs, a, anchor)
	j.AnchorB = toLocal(bs, b, anchor)
	qa, qb := m3.QIdent, m3.QIdent
	if a >= 0 {
		qa = bs[a].Rot
	}
	if b >= 0 {
		qb = bs[b].Rot
	}
	j.RelRot = qa.Conj().Mul(qb)
	return j
}

// Bodies implements Joint.
func (j *Fixed) Bodies() (int32, int32) { return j.A, j.B }

// NumRows implements Joint.
func (j *Fixed) NumRows() int { return 6 }

// Rows implements Joint.
func (j *Fixed) Rows(bs []*body.Body, p Params, idx int32, dst []Row) []Row {
	wa := toWorld(bs, j.A, j.AnchorA)
	wb := toWorld(bs, j.B, j.AnchorB)
	ra := wa.Sub(positionOf(bs, j.A))
	rb := wb.Sub(positionOf(bs, j.B))
	err := wa.Sub(wb)
	for i := 0; i < 3; i++ {
		d := m3.Zero.SetComp(i, 1)
		dst = append(dst, linearRow(j.A, j.B, ra, rb, d, err.Comp(i), p, idx))
	}
	qa, qb := m3.QIdent, m3.QIdent
	if j.A >= 0 {
		qa = bs[j.A].Rot
	}
	if j.B >= 0 {
		qb = bs[j.B].Rot
	}
	qerr := qb.Conj().Mul(qa.Mul(j.RelRot))
	errAng := m3.V(qerr.X, qerr.Y, qerr.Z).Scale(2)
	if qerr.W < 0 {
		errAng = errAng.Neg()
	}
	for i := 0; i < 3; i++ {
		d := m3.Zero.SetComp(i, 1)
		dst = append(dst, angularRow(j.A, j.B, d, errAng.Comp(i), p, idx))
	}
	return dst
}
