package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the public entry point it calls. Spans of one unit of work
// (a trajectory, a segment, a daemon job) share Job; Parent is the span
// that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  uint64 `json:"count,omitempty"` // work items covered: steps, proposals, bytes
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the length of a run; they are written
// out once, at exit. A nil tracer records nothing, so untraced code paths
// can call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id, recording the work items it covered.
func (t *tracer) end(id int, count uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
}

// add records a span whose endpoints were observed elsewhere — the
// daemon's status timestamps, taken from the same clock in this process.
func (t *tracer) add(name string, parent, job int, start, end time.Time, count uint64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Count: count,
	})
	return len(t.spans)
}

// named returns the closed spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// has reports whether any closed span is called name.
func (t *tracer) has(name string) bool { return len(t.named(name)) > 0 }

// totalDur sums the durations of the spans called name, in nanoseconds.
func (t *tracer) totalDur(name string) int64 {
	var d int64
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return d
}

// totalCount sums the work items of the spans called name.
func (t *tracer) totalCount(name string) uint64 {
	var n uint64
	for _, s := range t.named(name) {
		n += s.Count
	}
	return n
}

// perItem returns the total duration of the spans called name divided by
// the work items they cover, in nanoseconds, and false when there are none.
func (t *tracer) perItem(name string) (float64, bool) {
	n := t.totalCount(name)
	if n == 0 {
		return 0, false
	}
	return float64(t.totalDur(name)) / float64(n), true
}

// meanCount returns the mean work items of the spans called name.
func (t *tracer) meanCount(name string) (float64, bool) {
	ss := t.named(name)
	if len(ss) == 0 {
		return 0, false
	}
	return float64(t.totalCount(name)) / float64(len(ss)), true
}

// meanDur returns the mean duration of the spans called name, in
// nanoseconds, and false when there are none.
func (t *tracer) meanDur(name string) (float64, bool) {
	ss := t.named(name)
	if len(ss) == 0 {
		return 0, false
	}
	var d int64
	for _, s := range ss {
		d += s.dur()
	}
	return float64(d) / float64(len(ss)), true
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Name  string
	Calls int
	Total int64 // summed durations, ns
	Self  int64 // summed self times, ns
}

// selfTimes computes every span's self time — its duration minus the part
// of its interval covered by its children — and aggregates by name, in
// descending order of self time.
func selfTimes(spans []span) []selfStat {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*selfStat)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		st := agg[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			agg[s.Name] = st
		}
		st.Calls++
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids covers.
// Children may overlap one another (concurrent work under one parent) and
// may spill past the parent; each instant counts once, inside the parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-name self-time table of the run's spans.
func (t *tracer) printSelfTimes(w io.Writer) {
	t.mu.Lock()
	stats := selfTimes(t.spans)
	t.mu.Unlock()
	fmt.Fprintf(w, "# %-28s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, st := range stats {
		fmt.Fprintf(w, "# %-28s %8d %12.3f %12.3f\n", st.Name, st.Calls, float64(st.Total)/1e6, float64(st.Self)/1e6)
	}
}
