package geom

import (
	"fmt"
	"math"

	"github.com/parallax-arch/parallax/internal/phys/enc"
)

// Shape serialization for the world snapshot format. The encoding is a
// one-byte kind tag followed by the shape's defining fields.
//
// Derived state is handled per shape so a decode-encode round trip (and
// a restored simulation) is byte-identical to the original:
//
//   - HeightField and TriMesh rebuild their derived state through the
//     public constructors, which recompute it deterministically from the
//     encoded fields.
//   - Hull serializes its derived fields (volume, unit inertia, bounding
//     radius) directly: NewHull re-centers the vertices on the recomputed
//     centroid, and re-running that on already-centered vertices would
//     reproduce the same values only up to floating-point rounding —
//     not bit-exactly.

// Shape kind tags in the snapshot encoding. These are part of the
// serialized format and must never be renumbered; Kind values are
// ordered for narrow-phase dispatch and are not stored directly.
const (
	tagSphere uint8 = iota
	tagBox
	tagCapsule
	tagPlane
	tagHeightField
	tagTriMesh
	tagHull
)

// validCell reports whether a heightfield cell size is finite and
// positive (NaN fails the comparison).
func validCell(c float64) bool { return c > 0 && !math.IsInf(c, 1) }

func encodeTris(w *enc.Writer, tris []Tri) {
	w.U32(uint32(len(tris)))
	for _, t := range tris {
		w.I32(t[0])
		w.I32(t[1])
		w.I32(t[2])
	}
}

func decodeTris(r *enc.Reader) []Tri {
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining() {
		r.Fail(enc.ErrShort)
		return nil
	}
	if n == 0 {
		return nil
	}
	tris := make([]Tri, n)
	for i := range tris {
		tris[i][0] = r.I32()
		tris[i][1] = r.I32()
		tris[i][2] = r.I32()
	}
	return tris
}

// EncodeShape appends the snapshot encoding of s to w. It supports
// every shape kind in the package; an unknown Shape implementation is
// an error.
func EncodeShape(w *enc.Writer, s Shape) error {
	switch sh := s.(type) {
	case Sphere:
		w.U8(tagSphere)
		w.F64(sh.R)
	case Box:
		w.U8(tagBox)
		w.Vec(sh.Half)
	case *Box:
		w.U8(tagBox)
		w.Vec(sh.Half)
	case Capsule:
		w.U8(tagCapsule)
		w.F64(sh.R)
		w.F64(sh.HalfLen)
	case Plane:
		w.U8(tagPlane)
		w.Vec(sh.Normal)
		w.F64(sh.Offset)
	case *HeightField:
		w.U8(tagHeightField)
		w.U32(uint32(sh.NX))
		w.U32(uint32(sh.NZ))
		w.F64(sh.CellX)
		w.F64(sh.CellZ)
		w.F64s(sh.Heights)
	case *TriMesh:
		w.U8(tagTriMesh)
		w.Vecs(sh.Verts)
		encodeTris(w, sh.Tris)
	case *Hull:
		w.U8(tagHull)
		w.Vecs(sh.Verts)
		encodeTris(w, sh.Faces)
		w.F64(sh.volume)
		w.Vec(sh.centroid)
		w.Mat(sh.unitInertia)
		w.F64(sh.radius)
	default:
		return fmt.Errorf("geom: cannot encode shape type %T", s)
	}
	return nil
}

// DecodeShape reads one shape from r. Value shapes (sphere, box,
// capsule, plane) are returned by value; callers that need a mutable
// boxed shape (the world's cloth proxies) re-box the result themselves.
func DecodeShape(r *enc.Reader) (Shape, error) {
	tag := r.U8()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var s Shape
	switch tag {
	case tagSphere:
		s = Sphere{R: r.F64()}
	case tagBox:
		s = Box{Half: r.Vec()}
	case tagCapsule:
		s = Capsule{R: r.F64(), HalfLen: r.F64()}
	case tagPlane:
		s = Plane{Normal: r.Vec(), Offset: r.F64()}
	case tagHeightField:
		nx := int(r.U32())
		nz := int(r.U32())
		cellX := r.F64()
		cellZ := r.F64()
		heights := r.F64s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if nx < 0 || nz < 0 || nx*nz != len(heights) {
			return nil, fmt.Errorf("geom: heightfield %dx%d does not match %d heights", nx, nz, len(heights))
		}
		// The ray march steps by half a cell: a zero, negative or
		// non-finite cell size would never reach the end of the ray.
		if !validCell(cellX) || !validCell(cellZ) {
			return nil, fmt.Errorf("geom: heightfield cell %vx%v is not finite and positive", cellX, cellZ)
		}
		s = NewHeightField(nx, nz, cellX, cellZ, heights)
	case tagTriMesh:
		verts := r.Vecs()
		tris := decodeTris(r)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if err := checkTris(tris, len(verts)); err != nil {
			return nil, err
		}
		s = NewTriMesh(verts, tris)
	case tagHull:
		h := &Hull{Verts: r.Vecs(), Faces: decodeTris(r)}
		h.volume = r.F64()
		h.centroid = r.Vec()
		h.unitInertia = r.Mat()
		h.radius = r.F64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if err := checkTris(h.Faces, len(h.Verts)); err != nil {
			return nil, err
		}
		s = h
	default:
		return nil, fmt.Errorf("geom: unknown shape tag %d", tag)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// checkTris validates triangle vertex indices against the vertex count,
// so a corrupt snapshot fails decoding instead of panicking later.
func checkTris(tris []Tri, nverts int) error {
	for _, t := range tris {
		for _, vi := range t {
			if vi < 0 || int(vi) >= nverts {
				return fmt.Errorf("geom: triangle index %d out of range (%d verts)", vi, nverts)
			}
		}
	}
	return nil
}
