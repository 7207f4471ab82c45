package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one traced interval at a layer boundary. Parent is the index of
// the enclosing span in the trace (-1 at the top); Iteration groups the
// spans of one workload iteration.
type span struct {
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	Iteration int    `json:"iteration"`
}

// tracer is the harness's own in-memory span recorder. It wraps calls into
// the layers from outside — nothing in internal/ knows it exists. A nil
// tracer is the untraced run: every method is a no-op, so workloads call
// it unconditionally.
//
// It is single-goroutine: only the goroutine driving the kernel (and the
// procs the kernel runs one at a time) may use it. The sharded workload
// therefore traces at slice granularity only.
type tracer struct {
	t0        time.Time
	spans     []span
	stack     []int
	counts    map[string]uint64
	iteration int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]uint64)}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.t0)),
		Parent: parent, Iteration: t.iteration})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned. Spans nest strictly, so id is always
// the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// count records an instant event at a seam (OnTrap, OnReconfig, Tap).
func (t *tracer) count(name string) {
	if t != nil {
		t.counts[name]++
	}
}

// selfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the part of it its direct children cover.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		self[s.Name] += s.EndNS - s.StartNS - child[i]
	}
	return self
}

// durations returns the durations, in nanoseconds, of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS))
		}
	}
	return out
}

// write dumps the trace as JSON: the per-name self-time roll-up a reader
// usually wants first and the instant counts, both over every traced
// iteration, and the spans of the first iteration (the others repeat it,
// and a db workload records 200 k spans per iteration).
func (t *tracer) write(path string) error {
	self := selfTimes(t.spans)
	first := t.spans
	for i, s := range t.spans {
		if s.Iteration > 0 {
			first = t.spans[:i]
			break
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type roll struct {
		Name   string  `json:"name"`
		SelfMS float64 `json:"self_ms"`
	}
	rolls := make([]roll, 0, len(names))
	for _, n := range names {
		rolls = append(rolls, roll{n, float64(self[n]) / 1e6})
	}
	b, err := json.Marshal(struct {
		SelfTime []roll            `json:"self_time"`
		Counts   map[string]uint64 `json:"counts"`
		Spans    []span            `json:"spans"`
	}{rolls, t.counts, first})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
