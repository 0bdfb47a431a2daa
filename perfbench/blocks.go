package main

import "sort"

// block is one repeatable stretch of a measurement (an engine episode,
// a second of the open loop, a figure regeneration, a saturated window)
// with its latency samples and the work it completed in its time.
type block struct {
	samples []float64
	work    float64
	secs    float64
}

func (b block) rate() float64 { return ratio(b.work, b.secs) }

// cost orders blocks from fastest to slowest: time per unit of work,
// or the median sample for blocks that count no work.
func (b block) cost() float64 {
	if b.work > 0 {
		return b.secs / b.work
	}
	xs := append([]float64(nil), b.samples...)
	return median(xs)
}

// faster keeps the faster half of a measurement's blocks. The blocks
// repeat the same work, so the spread between them is interference
// from outside the process (on a shared virtual machine, CPU time the
// hypervisor steals and other tenants' load), which slows some blocks
// and never speeds one up; the faster half is the measurement least
// disturbed by it.
func faster(bs []block) []block {
	sorted := append([]block(nil), bs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].cost() < sorted[j].cost() })
	return sorted[:(len(bs)+1)/2]
}

// blockTiming keeps the faster half of the blocks and reports the
// median of their p50s, with the tail of the percentile rule taken over
// all the samples they hold and their count.
func blockTiming(bs []block) timing {
	bs = faster(bs)
	var p50s, all []float64
	for _, b := range bs {
		if len(b.samples) > 0 {
			p50s = append(p50s, summarize(append([]float64(nil), b.samples...)).P50)
			all = append(all, b.samples...)
		}
	}
	t := summarize(all)
	t.P50, t.Blocks = median(p50s), len(bs)
	return t
}

// medianRate is the median work per second of the faster half of the
// blocks.
func medianRate(bs []block) float64 {
	var xs []float64
	for _, b := range faster(bs) {
		xs = append(xs, b.rate())
	}
	return median(xs)
}
