package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // the operation (simulation or job) it belongs to
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	at := now().Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: at, End: at})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	at := now().Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. Children may
// nest, overlap each other (shards run concurrently) or stick out of the
// parent; each instant of the parent is subtracted at most once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// perOp folds spans into per-operation totals by span name: the summed
// self time in seconds and the span count.
type opTotals struct {
	self  map[string]float64
	count map[string]int
}

func foldSpans(spans []span) map[int]*opTotals {
	self := selfTimes(spans)
	out := map[int]*opTotals{}
	for i, s := range spans {
		t := out[s.Op]
		if t == nil {
			t = &opTotals{self: map[string]float64{}, count: map[string]int{}}
			out[s.Op] = t
		}
		t.self[s.Name] += float64(self[i]) / 1e9
		t.count[s.Name]++
	}
	return out
}
