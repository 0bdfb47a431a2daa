package solver_test

import (
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/solver"
	"github.com/parallax-arch/parallax/internal/phys/workload"
)

// BenchmarkSolve measures the PGS kernel alone on a real island: the
// largest island of WallRubble after 120 settling steps (~810 of the
// scene's ~1100 rows). Each iteration restores the island's velocities
// and solves it once with a reused workspace, so it must report
// 0 allocs/op; row_updates/s is the kernel throughput (rows ×
// iterations per second).
func BenchmarkSolve(b *testing.B) {
	w := workload.BuildWallRubble()
	for i := 0; i < 120; i++ {
		w.Step()
	}
	largest := 0
	for i, is := range w.Profile.Islands {
		if is.DOF > w.Profile.Islands[largest].DOF {
			largest = i
		}
	}
	bs, rows := w.IslandRows(largest)
	lin := make([]m3.Vec, len(bs))
	ang := make([]m3.Vec, len(bs))
	for k, bd := range bs {
		lin[k], ang[k] = bd.LinVel, bd.AngVel
	}
	s := solver.New()
	var ws solver.Workspace
	var st solver.Stats                    // the engine always collects stats
	s.Solve(bs, rows, w.Dt, nil, &st, &ws) // grow the workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, bd := range bs {
			bd.LinVel, bd.AngVel = lin[k], ang[k]
		}
		s.Solve(bs, rows, w.Dt, nil, &st, &ws)
	}
	b.ReportMetric(float64(len(rows)), "rows")
	b.ReportMetric(float64(b.N*len(rows)*s.Iterations)/b.Elapsed().Seconds(), "row_updates/s")
}
