package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call: a layer boundary the benchmark crossed.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root span
	Name   string `json:"name"`
	// Start and End are nanoseconds since the rep began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps a rep's spans in memory: run, setup.*, evolve, chunk,
// hv_sample and finish.* always (a few dozen per rep, so every rep's
// end-to-end metrics come from the same spans), plus one span per
// generation when steps is set.
type tracer struct {
	t0    time.Time
	steps bool
	spans []span
}

func newTracer(steps bool) *tracer { return &tracer{t0: time.Now(), steps: steps} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

// beginStep opens a per-generation span, or returns 0 (a no-op for end)
// when steps are not traced.
func (t *tracer) beginStep(parent int) int {
	if !t.steps {
		return 0
	}
	return t.begin("step", parent)
}

func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = t.now()
	}
}

func (t *tracer) dur(id int) time.Duration {
	s := t.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// residual is the share of the run span not covered by leaf spans: the
// self time of every span that has children, over the run's duration.
func (t *tracer) residual() float64 {
	covered := make([]int64, len(t.spans)+1)
	parent := make([]bool, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.End - s.Start
		parent[s.Parent] = true
	}
	var self int64
	for _, s := range t.spans {
		if parent[s.ID] {
			self += s.End - s.Start - covered[s.ID]
		}
	}
	run := t.spans[0]
	return float64(self) / float64(run.End-run.Start)
}

// stepsMS returns each generation's wall time in milliseconds: the step
// spans, or for a distributed run, whose coordinator exposes no single
// generation, each chunk's time spread over its generations.
func (t *tracer) stepsMS(w workload) []float64 {
	var steps, chunks []float64
	for _, s := range t.spans {
		ms := float64(s.End-s.Start) / 1e6
		switch s.Name {
		case "step":
			steps = append(steps, ms)
		case "chunk":
			chunks = append(chunks, ms/float64(w.Chunk))
		}
	}
	if len(steps) > 0 {
		return steps
	}
	return chunks
}

// writeJSONL writes the spans, one JSON object per line, each tagged
// with the rep's trace id.
func (t *tracer) writeJSONL(path, traceID string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		rec := struct {
			Trace string `json:"trace"`
			span
		}{traceID, s}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
