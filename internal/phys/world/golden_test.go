package world_test

import (
	"math"
	"runtime"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// trajectoryGolden pins absolute trajectories: the hash of every step's
// profile digest plus the final pose and velocity bits of every body.
// The thread-count oracles compare two runs of the same code, so they
// stay green when the arithmetic itself changes; these constants do not.
// A change that is meant to alter results must regenerate them and say
// so (run with -v to print the current values).
var trajectoryGolden = map[string]uint64{
	"WallRubble":           0xb32c0f40a820d137,
	"WallRubble/warmstart": 0x58f9811a381dce0a,
	"Periodic":             0x3bab93ef7bcc6532,
	"Ragdoll":              0x6aec41c1e0dcdfe1,
	"Continuous":           0xf6402be40c592da7,
	"Breakable":            0x5d7978307df24160,
	"Deformable":           0xafd11bc16c2b27d1,
	"Explosions":           0xf1e61d89f1c93f59,
	"Highspeed":            0xe002300bfebcaccf,
	"Mix":                  0x6225a040e510cb10,
}

// trajectoryHash steps w n times and folds each step's profile digest,
// then every body's position, orientation and velocities, into a 64-bit
// FNV-1a hash.
func trajectoryHash(w *world.World, n int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for i := 0; i < n; i++ {
		w.Step()
		mix(w.Profile.Digest())
	}
	for _, b := range w.Bodies {
		for _, f := range [...]float64{
			b.Pos.X, b.Pos.Y, b.Pos.Z,
			b.Rot.W, b.Rot.X, b.Rot.Y, b.Rot.Z,
			b.LinVel.X, b.LinVel.Y, b.LinVel.Z,
			b.AngVel.X, b.AngVel.Y, b.AngVel.Z,
		} {
			mix(math.Float64bits(f))
		}
	}
	return h
}

// TestTrajectoryGoldens steps WallRubble for 400 steps (with and
// without warm starting) and every paper scene at scale 0.25 for 90
// steps at threads=2, and compares each trajectory hash with its
// committed constant. amd64 only: Go fuses multiply-adds into FMA
// instructions on arm64, ppc64 and s390x, which changes the rounding.
func TestTrajectoryGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	type scene struct {
		name  string
		build func() *world.World
		steps int
	}
	scenes := []scene{
		{"WallRubble", workload.BuildWallRubble, 400},
		{"WallRubble/warmstart", func() *world.World {
			w := workload.BuildWallRubble()
			w.WarmStart = true
			return w
		}, 400},
	}
	for _, bm := range workload.All {
		scenes = append(scenes, scene{bm.Name, func() *world.World { return bm.Build(0.25) }, 90})
	}
	for _, sc := range scenes {
		t.Run(sc.name, func(t *testing.T) {
			w := sc.build()
			w.SetThreads(2)
			defer w.SetThreads(1)
			got := trajectoryHash(w, sc.steps)
			t.Logf("%q: %#016x,", sc.name, got)
			if want := trajectoryGolden[sc.name]; got != want {
				t.Errorf("trajectory hash %#016x, want %#016x", got, want)
			}
		})
	}
}
