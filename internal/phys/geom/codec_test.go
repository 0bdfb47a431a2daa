package geom

import (
	"math"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/enc"
)

// A heightfield whose cell size is zero, negative or not finite must be
// a decode error: the ray march steps by half a cell, so such a cell
// would make a ray cast against it effectively unbounded.
func TestDecodeHeightFieldRejectsBadCell(t *testing.T) {
	encode := func(cellX, cellZ float64) []byte {
		var w enc.Writer
		hf := NewHeightField(2, 2, cellX, cellZ, []float64{0, 1, 2, 3})
		if err := EncodeShape(&w, hf); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	if _, err := DecodeShape(enc.NewReader(encode(0.5, 2))); err != nil {
		t.Fatalf("valid heightfield rejected: %v", err)
	}
	for _, bad := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, cells := range [][2]float64{{bad, 1}, {1, bad}} {
			if s, err := DecodeShape(enc.NewReader(encode(cells[0], cells[1]))); err == nil {
				t.Errorf("cell %vx%v decoded to %v, want an error", cells[0], cells[1], s)
			}
		}
	}
}
