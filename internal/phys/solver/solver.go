// Package solver implements the island-processing constraint solver: a
// projected Gauss–Seidel (successive over-relaxation) iteration over the
// mixed linear complementarity problem built from an island's constraint
// rows, in the style of ODE's quickstep. Each row update is one
// fine-grain task in the ParallAX model ("degrees of freedom removed in
// the LCP solver", paper section 7).
package solver

import (
	"math"

	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// Solver holds the iteration parameters. The paper uses 20 iterations
// per step as recommended by the ODE user guide.
type Solver struct {
	// Iterations is the number of relaxation sweeps per solve.
	Iterations int
	// SOR is the successive over-relaxation factor (1 = pure
	// Gauss-Seidel; ODE quickstep uses ~0.9–1.3).
	SOR float64
}

// New returns a solver with the paper's parameters.
func New() *Solver { return &Solver{Iterations: 20, SOR: 1.0} }

// Stats reports the work done by one Solve call.
type Stats struct {
	Rows       int
	Iterations int
	// RowUpdates = Rows * Iterations, the fine-grain task-instance count.
	RowUpdates int

	// Residual is the summed absolute post-iteration row error (the
	// complementarity-aware |RHS - J·v - CFM·λ|, zeroed where the row is
	// clamped at a bound pushing outward). A converged solve is near
	// zero; a blowup is the solver-health signal the anomaly detector
	// watches. Deterministic: accumulated in row order per island.
	Residual float64
	// ImpulseNorm is the summed |λ| over all rows — the total applied
	// impulse magnitude this solve.
	ImpulseNorm float64
}

// Workspace holds the per-body and per-row temporaries one Solve call
// needs. A caller that steps repeatedly keeps one Workspace per worker
// thread and passes it back in, so steady-state solving does not
// allocate: the slices grow to the largest island seen and are then
// reused.
type Workspace struct {
	// Island-local body state, indexed like Solve's bs: gathered once
	// at the start of a solve, scattered back once at the end.
	linVel, angVel []m3.Vec
	invMass        []float64
	invInertia     []m3.Mat // world frame: R·I⁻¹·Rᵀ

	// Per-row state: the impulse-to-velocity propagation of each row
	// endpoint with its effective mass, and the accumulated impulse.
	prop   []rowProp
	lambda []float64
}

// rowProp is one row's precomputed propagation: Δv = pLin·Δλ and
// Δω = pAng·Δλ for each endpoint, and 1/(J·M⁻¹·Jᵀ + CFM). Kept
// in one record so a row update reads it contiguously.
type rowProp struct {
	pLinA, pAngA m3.Vec
	pLinB, pAngB m3.Vec
	invDen       float64
}

// grow resizes the workspace for nb bodies and n rows, reusing prior
// capacity. Only lambda is cleared: every other slice is written before
// it is read.
func (ws *Workspace) grow(nb, n int) {
	if cap(ws.linVel) < nb {
		// Capacity growth to the largest island seen, then reused forever.
		ws.linVel = make([]m3.Vec, nb)     //paraxlint:allow(parsafe)
		ws.angVel = make([]m3.Vec, nb)     //paraxlint:allow(parsafe)
		ws.invMass = make([]float64, nb)   //paraxlint:allow(parsafe)
		ws.invInertia = make([]m3.Mat, nb) //paraxlint:allow(parsafe)
	}
	ws.linVel = ws.linVel[:nb]
	ws.angVel = ws.angVel[:nb]
	ws.invMass = ws.invMass[:nb]
	ws.invInertia = ws.invInertia[:nb]
	if cap(ws.lambda) < n {
		// Likewise for the row arrays.
		ws.prop = make([]rowProp, n)   //paraxlint:allow(parsafe)
		ws.lambda = make([]float64, n) //paraxlint:allow(parsafe)
		return
	}
	ws.prop = ws.prop[:n]
	ws.lambda = ws.lambda[:n]
	clear(ws.lambda)
}

// Solve runs the PGS iteration for one island's rows. bs holds the
// island's bodies and rows address them by index into bs (island-local
// index; -1 is the static world). The bodies' velocities, masses and
// world-frame inverse inertias are gathered once into dense workspace
// arrays, the sweeps read and write only those, and the velocities are
// scattered back to the bodies at the end. jointLoad, if non-nil, is
// indexed by joint id and accumulates the constraint force magnitude
// per joint (for breakable joints). ws, if non-nil, provides reusable
// storage; the returned impulse slice aliases it and is valid until the
// workspace's next Solve. A nil ws allocates a temporary workspace.
func (s *Solver) Solve(bs []*body.Body, rows []joint.Row, dt float64,
	jointLoad []float64, st *Stats, ws *Workspace) []float64 {

	n := len(rows)
	if st != nil {
		st.Rows += n
		st.Iterations = s.Iterations
		st.RowUpdates += n * s.Iterations
	}
	if n == 0 {
		return nil
	}
	if ws == nil {
		ws = &Workspace{} //paraxlint:allow(parsafe) convenience fallback; the engine always passes a workspace
	}
	ws.grow(len(bs), n)
	linVel, angVel := ws.linVel, ws.angVel
	invMass, invInertia := ws.invMass, ws.invInertia
	prop, lambda := ws.prop, ws.lambda

	// Gather: one world-inertia rotation per body, not per row endpoint.
	for k, b := range bs {
		linVel[k] = b.LinVel
		angVel[k] = b.AngVel
		invMass[k] = b.InvMass
		invInertia[k] = b.InvInertiaWorld()
	}

	// Precompute per-row propagation vectors and effective masses.
	for i := range rows {
		r, p := &rows[i], &prop[i]
		den := r.CFM
		if a := r.BodyA; a >= 0 {
			p.pLinA = r.JLinA.Scale(invMass[a])
			p.pAngA = invInertia[a].MulVec(r.JAngA)
			den += r.JLinA.Dot(p.pLinA) + r.JAngA.Dot(p.pAngA)
		}
		if b := r.BodyB; b >= 0 {
			p.pLinB = r.JLinB.Scale(invMass[b])
			p.pAngB = invInertia[b].MulVec(r.JAngB)
			den += r.JLinB.Dot(p.pLinB) + r.JAngB.Dot(p.pAngB)
		}
		if den < m3.Eps {
			p.invDen = 0
		} else {
			p.invDen = 1 / den
		}
	}

	// Warm starting: re-apply the previous step's impulses so the
	// iteration starts near the converged solution (persistent contact
	// manifolds make stacks converge in far fewer sweeps).
	for i := range rows {
		r, p := &rows[i], &prop[i]
		if r.Warm == 0 {
			continue
		}
		lambda[i] = r.Warm
		if a := r.BodyA; a >= 0 {
			linVel[a] = linVel[a].Add(p.pLinA.Scale(r.Warm))
			angVel[a] = angVel[a].Add(p.pAngA.Scale(r.Warm))
		}
		if b := r.BodyB; b >= 0 {
			linVel[b] = linVel[b].Add(p.pLinB.Scale(r.Warm))
			angVel[b] = angVel[b].Add(p.pAngB.Scale(r.Warm))
		}
	}
	for it := 0; it < s.Iterations; it++ {
		for i := range rows {
			r, p := &rows[i], &prop[i]
			// Current constraint velocity.
			vel := 0.0
			if a := r.BodyA; a >= 0 {
				vel += r.JLinA.Dot(linVel[a]) + r.JAngA.Dot(angVel[a])
			}
			if b := r.BodyB; b >= 0 {
				vel += r.JLinB.Dot(linVel[b]) + r.JAngB.Dot(angVel[b])
			}
			dl := s.SOR * (r.RHS - vel - r.CFM*lambda[i]) * p.invDen

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

			if a := r.BodyA; a >= 0 {
				linVel[a] = linVel[a].Add(p.pLinA.Scale(dl))
				angVel[a] = angVel[a].Add(p.pAngA.Scale(dl))
			}
			if b := r.BodyB; b >= 0 {
				linVel[b] = linVel[b].Add(p.pLinB.Scale(dl))
				angVel[b] = angVel[b].Add(p.pAngB.Scale(dl))
			}
		}
	}

	// Scatter: the solved velocities go back to the bodies once.
	for k, b := range bs {
		b.LinVel = linVel[k]
		b.AngVel = angVel[k]
	}

	if jointLoad != nil {
		for i := range rows {
			r := &rows[i]
			if r.Joint >= 0 && int(r.Joint) < len(jointLoad) {
				jointLoad[r.Joint] += math.Abs(lambda[i]) / dt
			}
		}
	}

	// Convergence diagnostics: one more pass over the rows measuring the
	// residual the iteration left behind. A row clamped at a bound with
	// the error pushing further out of bounds is satisfied by
	// complementarity, not a solver failure, so its error is zeroed.
	if st != nil {
		for i := range rows {
			r := &rows[i]
			vel := 0.0
			if a := r.BodyA; a >= 0 {
				vel += r.JLinA.Dot(linVel[a]) + r.JAngA.Dot(angVel[a])
			}
			if b := r.BodyB; b >= 0 {
				vel += r.JLinB.Dot(linVel[b]) + r.JAngB.Dot(angVel[b])
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
