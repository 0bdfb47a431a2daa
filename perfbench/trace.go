package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// selfTimes returns, per span name, the summed self time in ns: each
// span's duration minus the part of it its child spans cover. Children
// may overlap one another (concurrent requests), so their intervals
// are merged before subtracting.
func (r *recorder) selfTimes() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][][2]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				covered += curE - curS
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		covered += curE - curS
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// noteSelfTimes adds one note per span name, largest self time first.
func (r *recorder) noteSelfTimes(res *result) {
	st := r.selfTimes()
	names := make([]string, 0, len(st))
	var total int64
	for k, v := range st {
		names = append(names, k)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	for _, k := range names {
		res.note("self time %-28s %10.3f ms  %5.1f%% of %.3f ms traced", k, float64(st[k])/1e6, 100*ratio(float64(st[k]), float64(total)), float64(total)/1e6)
	}
}

// writePerfetto writes the spans as Chrome trace-event JSON (complete
// "X" events, loadable in Perfetto) to dir/name and returns the path.
// Every event carries the run id and its parent span id.
func (r *recorder) writePerfetto(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"run": r.run, "id": i, "parent": s.Parent},
		})
	}
	r.mu.Unlock()
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return "", err
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// finishTrace derives self times and writes the Perfetto file of a
// traced run; it does nothing for an untraced one.
func (r *recorder) finishTrace(cfg config, res *result) error {
	if r == nil {
		return nil
	}
	r.noteSelfTimes(res)
	path, err := r.writePerfetto(cfg.TraceDir, fmt.Sprintf("%s-seed%d.json", res.Workload, cfg.Seed))
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.note("trace %s (%d spans, run %s)", path, len(r.spans), r.run)
	return nil
}
