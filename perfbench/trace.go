package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Op groups the spans of one operation (one loop iteration, one
// request); Parent is the enclosing span's ID, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, parent, op int64, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// seconds returns the durations of every closed span named name.
func (t *tracer) seconds(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// medianSeconds is the median duration of the spans named name, 0 if none.
func (t *tracer) medianSeconds(name string) float64 { return median(t.seconds(name)) }

// fillSelfTimes sets each span's Self to its duration minus the part of
// its interval covered by its children (overlapping children count once,
// and a child reaching outside its parent counts only inside it).
func fillSelfTimes(spans []span) {
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[p.ID] {
			a, b := max(spans[c].Start, p.Start), min(spans[c].End, p.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
		covered, reach := int64(0), p.Start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		p.Self = p.End - p.Start - covered
	}
}

// write stores every span, with self times, as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	fillSelfTimes(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
