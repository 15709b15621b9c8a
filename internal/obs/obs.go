// Package obs is the framework's observability layer: an Observer hook
// interface the NSGA-II engine and the experiment runners report into, a
// per-generation convergence-indicator kernel, a JSONL trace writer (the
// one channel run data leaves a run through), the phase profiler and the
// flight recorder.
//
// The layer is built to the same standards the compute kernels are held
// to (DESIGN.md §9–10): it is stdlib-only, it never reads ambient state
// (no wall clocks — time is injected through the Clock seam by the cmd
// layer), an attached observer never touches the rng streams (results
// stay bit-for-bit identical with observation on or off), and the
// hot-path record calls are allocation-free and no-ops on nil receivers,
// so a disabled observer costs one branch.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Clock returns a timestamp in nanoseconds. The cmd layer injects a
// wall-clock-backed Clock; internal packages and tests inject fixed or
// counting clocks so traces stay byte-identical across repeats.
type Clock func() int64

// Registry owns named counters. Its only user is DistBoard, whose wire
// byte and round-trip totals the end-to-end benchmark reads back; run
// telemetry itself goes to the trace (DESIGN.md §10).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter registers and returns a counter under name. Registering a name
// twice panics.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters[name] != nil {
		panic(fmt.Sprintf("obs: counter %q registered twice", name))
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Counter is a monotonically increasing counter, safe for concurrent
// use. The zero value is ready; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//detlint:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
//
//detlint:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}
