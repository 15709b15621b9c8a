// Package workload models the dynamic task trace of the paper's §III-C:
// tasks of various task types arriving within a specified time window,
// each carrying its arrival time and a time-utility function. Because the
// analysis is post-mortem and static, a Trace records everything a
// resource allocation needs a priori.
package workload

import (
	"fmt"
	"math"
	"sort"

	"tradeoff/internal/hcs"
	"tradeoff/internal/rng"
	"tradeoff/internal/utility"
)

// Task is one task instance in a trace.
type Task struct {
	// ID is the task's index in the trace, ordered by arrival time.
	ID int
	// Type indexes the system's task types.
	Type int
	// Arrival is the arrival time in seconds from the trace start.
	Arrival float64
	// TUF is the task's time-utility function, evaluated at
	// completion − arrival. Tasks may share one function (generated,
	// cloned and decoded traces do, one per distinct TUF), so treat it
	// as read-only: Clone it before editing.
	TUF *utility.Function
}

// Trace is a recorded workload over a time window.
type Trace struct {
	Tasks  []Task
	Window float64 // seconds
}

// NumTasks returns the number of tasks in the trace.
func (tr *Trace) NumTasks() int { return len(tr.Tasks) }

// MaxUtility returns the utility earned if every task completed at the
// instant it arrived — an unreachable upper bound useful for normalizing
// results.
func (tr *Trace) MaxUtility() float64 {
	var sum float64
	for i := range tr.Tasks {
		sum += tr.Tasks[i].TUF.MaxValue()
	}
	return sum
}

// validWindow reports whether w is a usable trace window: finite and
// positive. An infinite window puts every arrival at +Inf, and a NaN one
// compares false against every bound.
func validWindow(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

// Validate checks trace invariants against a system: tasks sorted by
// arrival with dense IDs, arrivals within [0, Window], valid task types,
// and a valid TUF on every task. A TUF that several tasks share is
// validated once, at its first task.
func (tr *Trace) Validate(sys *hcs.System) error {
	if !validWindow(tr.Window) {
		return fmt.Errorf("workload: window %v, want finite and > 0", tr.Window)
	}
	if len(tr.Tasks) == 0 {
		return fmt.Errorf("workload: trace has no tasks")
	}
	prev := math.Inf(-1)
	checked := make(map[*utility.Function]bool)
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		if t.ID != i {
			return fmt.Errorf("workload: task %d has ID %d, want dense arrival-ordered IDs", i, t.ID)
		}
		if t.Type < 0 || t.Type >= sys.NumTaskTypes() {
			return fmt.Errorf("workload: task %d has type %d out of range", i, t.Type)
		}
		if t.Arrival < 0 || t.Arrival > tr.Window || math.IsNaN(t.Arrival) {
			return fmt.Errorf("workload: task %d arrival %v outside [0, %v]", i, t.Arrival, tr.Window)
		}
		if t.Arrival < prev {
			return fmt.Errorf("workload: task %d arrives at %v before predecessor at %v", i, t.Arrival, prev)
		}
		prev = t.Arrival
		if t.TUF == nil {
			return fmt.Errorf("workload: task %d has no TUF", i)
		}
		if checked[t.TUF] {
			continue
		}
		if err := t.TUF.Validate(); err != nil {
			return fmt.Errorf("workload: task %d TUF invalid: %w", i, err)
		}
		checked[t.TUF] = true
	}
	return nil
}

// Clone returns a deep copy of the trace. Each distinct TUF is cloned
// once, so tasks that share a function in the original share its copy.
func (tr *Trace) Clone() *Trace {
	c := &Trace{Window: tr.Window, Tasks: make([]Task, len(tr.Tasks))}
	clones := make(map[*utility.Function]*utility.Function)
	for i, t := range tr.Tasks {
		f, ok := clones[t.TUF]
		if !ok {
			f = t.TUF.Clone()
			clones[t.TUF] = f
		}
		c.Tasks[i] = Task{ID: t.ID, Type: t.Type, Arrival: t.Arrival, TUF: f}
	}
	return c
}

// ArrivalProcess generates task arrival times within a window.
type ArrivalProcess int

const (
	// UniformArrivals draws each arrival independently and uniformly over
	// the window.
	UniformArrivals ArrivalProcess = iota
	// PoissonArrivals spaces arrivals with exponential gaps scaled so the
	// expected count fills the window, truncated to the window.
	PoissonArrivals
	// BurstArrivals concentrates most of the trace into narrow bursts: a
	// fraction of tasks arrives uniformly, the rest inside a few short
	// windows — the diurnal-peak pattern that stresses utility decay.
	BurstArrivals
)

// TUFPolicy assigns a time-utility function to a freshly generated task.
type TUFPolicy interface {
	// NewTUF returns the TUF for a task of the given type. It may
	// return one function for several tasks; see Task.TUF.
	NewTUF(src *rng.Source, taskType int) *utility.Function
}

// GenConfig configures trace generation.
type GenConfig struct {
	NumTasks int
	Window   float64 // seconds
	Arrival  ArrivalProcess
	// TypeWeights gives the relative frequency of each task type; nil
	// means uniform over the system's task types.
	TypeWeights []float64
	// TUF assigns utility functions; nil means DefaultTUFPolicy.
	TUF TUFPolicy
}

// Generate produces a trace for the given system. It is deterministic in
// the provided source.
func Generate(sys *hcs.System, cfg GenConfig, src *rng.Source) (*Trace, error) {
	if cfg.NumTasks <= 0 {
		return nil, fmt.Errorf("workload: NumTasks %d, want > 0", cfg.NumTasks)
	}
	if !validWindow(cfg.Window) {
		return nil, fmt.Errorf("workload: window %v, want finite and > 0", cfg.Window)
	}
	weights := cfg.TypeWeights
	if weights == nil {
		weights = make([]float64, sys.NumTaskTypes())
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != sys.NumTaskTypes() {
		return nil, fmt.Errorf("workload: %d type weights for %d task types", len(weights), sys.NumTaskTypes())
	}
	policy := cfg.TUF
	if policy == nil {
		policy = NewDefaultTUFPolicy(sys)
	}

	arrivals := make([]float64, cfg.NumTasks)
	switch cfg.Arrival {
	case UniformArrivals:
		for i := range arrivals {
			arrivals[i] = src.Range(0, cfg.Window)
		}
	case PoissonArrivals:
		rate := float64(cfg.NumTasks) / cfg.Window
		t := 0.0
		for i := range arrivals {
			t += src.ExpFloat64() / rate
			arrivals[i] = math.Mod(t, cfg.Window) // wrap to keep the count exact
		}
	case BurstArrivals:
		// Three bursts, each 5% of the window wide, absorbing 70% of the
		// tasks; the remainder arrives uniformly.
		const bursts = 3
		const burstWidthFrac = 0.05
		const burstShare = 0.7
		centers := make([]float64, bursts)
		for b := range centers {
			centers[b] = cfg.Window * (float64(b) + 0.5) / bursts
		}
		for i := range arrivals {
			if src.Bool(burstShare) {
				c := centers[src.Intn(bursts)]
				half := cfg.Window * burstWidthFrac / 2
				lo, hi := c-half, c+half
				if lo < 0 {
					lo = 0
				}
				if hi > cfg.Window {
					hi = cfg.Window
				}
				arrivals[i] = src.Range(lo, hi)
			} else {
				arrivals[i] = src.Range(0, cfg.Window)
			}
		}
	default:
		return nil, fmt.Errorf("workload: unknown arrival process %d", cfg.Arrival)
	}
	sort.Float64s(arrivals)

	tr := &Trace{Window: cfg.Window, Tasks: make([]Task, cfg.NumTasks)}
	for i := range tr.Tasks {
		tt := src.Pick(weights)
		tr.Tasks[i] = Task{
			ID:      i,
			Type:    tt,
			Arrival: arrivals[i],
			TUF:     policy.NewTUF(src, tt),
		}
	}
	if err := tr.Validate(sys); err != nil {
		return nil, fmt.Errorf("workload: generated invalid trace: %w", err)
	}
	return tr, nil
}

// PriorityClass is one tier of task importance in the default policy.
type PriorityClass struct {
	Name     string
	Priority float64 // maximum utility
	Weight   float64 // relative frequency
}

// DefaultTUFPolicy draws a priority class (high/medium/low), an urgency
// level, and a utility characteristic class shape per task, scaling decay
// horizons to the task type's average execution time so that utility
// decays on the timescale the task actually runs at. This mirrors how the
// ESSC parameters are policy decisions set per task class (§IV-B1).
//
// A trace holds at most classes × levels × shapes functions per task
// type, so NewTUF builds each distinct (priority, horizon, shape) once
// and returns that one function for every task that draws it. A
// DefaultTUFPolicy is not safe for concurrent use.
type DefaultTUFPolicy struct {
	Classes []PriorityClass
	// AvgExec holds the mean execution time of each task type across its
	// capable machine types, used to scale urgency.
	AvgExec []float64
	// UrgencyLevels scale the decay horizon: horizon = level × AvgExec.
	UrgencyLevels []float64

	// weights is the class-weight scratch NewTUF hands src.Pick.
	weights []float64
	// shared holds the function built for each distinct draw.
	shared map[tufKey]*utility.Function
}

// tufKey identifies one default-policy function: the bits of its
// priority and horizon, and its characteristic-class shape.
type tufKey struct {
	priority, horizon uint64
	shape             int
}

// NewDefaultTUFPolicy builds the default policy for a system.
func NewDefaultTUFPolicy(sys *hcs.System) *DefaultTUFPolicy {
	p := &DefaultTUFPolicy{
		Classes: []PriorityClass{
			{Name: "high", Priority: 16, Weight: 0.2},
			{Name: "medium", Priority: 8, Weight: 0.5},
			{Name: "low", Priority: 2, Weight: 0.3},
		},
		UrgencyLevels: []float64{2, 4, 8},
		AvgExec:       make([]float64, sys.NumTaskTypes()),
	}
	for t := 0; t < sys.NumTaskTypes(); t++ {
		var sum float64
		var n int
		for mu := 0; mu < sys.NumMachineTypes(); mu++ {
			if sys.Capable(t, mu) {
				sum += sys.ETC.At(t, mu)
				n++
			}
		}
		if n > 0 {
			p.AvgExec[t] = sum / float64(n)
		} else {
			p.AvgExec[t] = 1
		}
	}
	return p
}

// NewTUF implements TUFPolicy. It returns the same function for every
// task that draws the same priority, horizon and shape.
func (p *DefaultTUFPolicy) NewTUF(src *rng.Source, taskType int) *utility.Function {
	if cap(p.weights) < len(p.Classes) {
		p.weights = make([]float64, len(p.Classes))
	}
	weights := p.weights[:len(p.Classes)]
	for i, c := range p.Classes {
		weights[i] = c.Weight
	}
	class := p.Classes[src.Pick(weights)]
	level := p.UrgencyLevels[src.Intn(len(p.UrgencyLevels))]
	horizon := level * p.AvgExec[taskType]
	shape := src.Intn(3)
	key := tufKey{priority: math.Float64bits(class.Priority), horizon: math.Float64bits(horizon), shape: shape}
	if f, ok := p.shared[key]; ok {
		return f
	}

	// Three characteristic-class shapes, echoing Fig. 1's interval
	// structure: plateaus, a grace period with linear decay, or a pure
	// linear ramp.
	var segs []utility.Segment
	switch shape {
	case 0: // three plateaus then zero
		segs = []utility.Segment{
			{Duration: horizon * 0.25, StartFrac: 1, EndFrac: 1, Shape: utility.Constant},
			{Duration: horizon * 0.35, StartFrac: 0.8, EndFrac: 0.8, Shape: utility.Constant},
			{Duration: horizon * 0.40, StartFrac: 0.45, EndFrac: 0.45, Shape: utility.Constant},
		}
	case 1: // grace period, then linear decay to zero
		segs = []utility.Segment{
			{Duration: horizon * 0.3, StartFrac: 1, EndFrac: 1, Shape: utility.Constant},
			{Duration: horizon * 0.7, StartFrac: 1, EndFrac: 0, Shape: utility.Linear},
		}
	default: // pure linear decay
		segs = []utility.Segment{
			{Duration: horizon, StartFrac: 1, EndFrac: 0, Shape: utility.Linear},
		}
	}
	f, err := utility.New(class.Priority, 0, segs...)
	if err != nil {
		panic(fmt.Sprintf("workload: default TUF invalid: %v", err))
	}
	if p.shared == nil {
		p.shared = make(map[tufKey]*utility.Function)
	}
	p.shared[key] = f
	return f
}
