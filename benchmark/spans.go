package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// the benchmark wraps the layer's public function. Spans of one request
// share Trace (the request's index in the workload's list); Parent is the
// ID of the span that caused this one, 0 for a root.
type span struct {
	Trace   int                `json:"trace"`
	ID      int                `json:"span"`
	Parent  int                `json:"parent"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`

	rec *recorder
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine only.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span. The returned handle stays valid until end is called.
func (r *recorder) start(trace int, parent *span, name string) *span {
	s := &span{Trace: trace, ID: len(r.spans) + 1, Name: name, rec: r}
	if parent != nil {
		s.Parent = parent.ID
	}
	r.spans = append(r.spans, span{}) // reserve the slot so IDs follow start order
	s.StartNS = int64(time.Since(r.epoch))
	return s
}

// end closes the span with the counts measured at this boundary.
func (s *span) end(counts map[string]float64) {
	s.EndNS = int64(time.Since(s.rec.epoch))
	s.Counts = counts
	s.rec.spans[s.ID-1] = *s
}

func (s span) durNS() int64 { return s.EndNS - s.StartNS }

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNS < cs[j].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, c := range cs {
			lo, hi := max(c.StartNS, upTo), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.durNS() - covered
	}
	return self
}

// spanStats aggregates spans by name: how many, and the summed duration,
// self time and counts.
type spanStats struct {
	n      int
	durNS  int64
	selfNS int64
	counts map[string]float64
}

func aggregate(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{counts: make(map[string]float64)}
			out[s.Name] = st
		}
		st.n++
		st.durNS += s.durNS()
		st.selfNS += self[s.ID]
		for k, v := range s.Counts {
			st.counts[k] += v
		}
	}
	return out
}

// printSelfTimes prints, per span name of the in-process run, the mean
// duration and the mean self time per traced request: where the time of a
// parent span goes that none of its children accounts for.
func printSelfTimes(spans []span, traces int) {
	agg := aggregate(spans)
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].selfNS > agg[names[j]].selfNS })
	fmt.Printf("  %-24s %8s %12s %12s   (per traced request)\n", "span", "calls", "mean ms", "self ms")
	for _, name := range names {
		st := agg[name]
		fmt.Printf("  %-24s %8.2f %12.4f %12.4f\n", name, float64(st.n)/float64(traces),
			float64(st.durNS)/1e6/float64(traces), float64(st.selfNS)/1e6/float64(traces))
	}
}

// traceFile is the layout of benchmark/out/<workload>.trace.json.
type traceFile struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Daemon    []span `json:"daemon_spans"`    // one http.call span per op of the daemon window
	InProcess []span `json:"inprocess_spans"` // the layer-by-layer run over the traced slice
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
