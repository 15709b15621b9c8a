// Package sched defines resource allocations and evaluates them against a
// system and trace, producing the two objective values of the paper's
// §IV-B: total utility earned (Eq. 1) and total energy consumed (Eq. 3).
//
// An Allocation is the phenotype of an NSGA-II chromosome: for every task
// in the trace it holds the machine instance the task executes on and the
// task's global scheduling order. Each machine executes its tasks in
// increasing global order; if the next task has not yet arrived the
// machine idles until the arrival (§IV-D).
package sched

import (
	"fmt"

	"tradeoff/internal/hcs"
	"tradeoff/internal/rng"
	"tradeoff/internal/utility"
	"tradeoff/internal/workload"
)

// Dropped is the machine value of a task that is deliberately not
// executed (the paper's future-work task-dropping extension). Dropped
// tasks consume no energy and earn no utility. Evaluators reject dropped
// tasks unless AllowDropping is set.
const Dropped = -1

// Allocation maps every task of a trace to a machine and a global
// scheduling order. Order must be a permutation of [0, T).
type Allocation struct {
	Machine []int32
	Order   []int32
}

// NewAllocation returns a zero-valued allocation for n tasks with
// identity order.
func NewAllocation(n int) *Allocation {
	a := &Allocation{Machine: make([]int32, n), Order: make([]int32, n)}
	for i := range a.Order {
		a.Order[i] = int32(i)
	}
	return a
}

// Len returns the number of tasks covered by the allocation.
func (a *Allocation) Len() int { return len(a.Machine) }

// Clone returns a deep copy.
func (a *Allocation) Clone() *Allocation {
	return &Allocation{
		Machine: append([]int32(nil), a.Machine...),
		Order:   append([]int32(nil), a.Order...),
	}
}

// CopyFrom overwrites a with src's genes, reusing a's backing arrays
// when they have sufficient capacity. Recycled allocations combined with
// CopyFrom let hot loops (the NSGA-II variation phase) produce offspring
// without per-generation allocation.
func (a *Allocation) CopyFrom(src *Allocation) {
	a.Machine = append(a.Machine[:0], src.Machine...)
	a.Order = append(a.Order[:0], src.Order...)
}

// Evaluation is the outcome of simulating an allocation.
type Evaluation struct {
	// Utility is the total utility earned, U = Σ Υ(t).
	Utility float64
	// Energy is the total energy consumed in joules, E = Σ EEC.
	Energy float64
	// Makespan is the time the last task completes.
	Makespan float64
	// Completed is the number of executed (non-dropped) tasks.
	Completed int
}

// EnergyMegajoules returns the energy objective in MJ, the unit of the
// paper's figures.
func (ev Evaluation) EnergyMegajoules() float64 { return ev.Energy / 1e6 }

// Evaluator simulates allocations for a fixed system and trace. Once
// configured it is read-only and safe for concurrent use; each
// goroutine evaluates through its own Session or DeltaSession. Every
// evaluation runs the machine-major kernel in delta.go, so all of the
// Evaluator's replays of one allocation agree bit for bit.
type Evaluator struct {
	sys   *hcs.System
	trace *workload.Trace
	// AllowDropping permits Machine[i] == Dropped.
	AllowDropping bool
	// idleWatts, when non-nil, holds per-machine-instance idle power
	// draw; see SetIdlePower.
	idleWatts []float64

	// eec[t][m] caches EEC of task-type t on machine instance m
	// (Incapable where not executable).
	eec [][]float64
	// etc[t][m] caches ETC of task-type t on machine instance m.
	etc [][]float64
	// etcT and eecT are the machine-major transposes [m][t], so the
	// machine-major kernel walks one row per machine.
	etcT [][]float64
	eecT [][]float64
	// eligible[t] lists machine instances capable of task type t.
	eligible [][]int

	// tufs holds the compiled time-utility functions, one table entry
	// per task, bit-identical to Task.TUF.Value.
	tufs *utility.Table
	// meta is the per-task record the simulation kernel reads.
	meta []taskMeta
	// later holds each task's TUF segments 2–3 (utility.Later), kept
	// out of meta because the kernel reads them only for a completion
	// past the first segment and inside the tail guard.
	later []utility.Later
}

// taskMeta is the per-task record of everything the machine-major
// simulation kernel reads for every task: the TUF's tail guard and
// first segment (utility.Inline), arrival time and task type. Sized and
// padded to 64 bytes, one cache line, so the kernel touches one line
// per task on its common path.
type taskMeta struct {
	utility.Inline
	arrival float64
	ty      int32
	_       int32
}

// NewEvaluator validates the trace against the system and precomputes
// per-instance ETC/EEC tables.
func NewEvaluator(sys *hcs.System, trace *workload.Trace) (*Evaluator, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid system: %w", err)
	}
	if err := trace.Validate(sys); err != nil {
		return nil, fmt.Errorf("sched: invalid trace: %w", err)
	}
	e := &Evaluator{sys: sys, trace: trace}
	nt, nm := sys.NumTaskTypes(), sys.NumMachines()
	e.eec = make([][]float64, nt)
	e.etc = make([][]float64, nt)
	e.eligible = make([][]int, nt)
	for t := 0; t < nt; t++ {
		e.eec[t] = make([]float64, nm)
		e.etc[t] = make([]float64, nm)
		for m := 0; m < nm; m++ {
			mu := sys.MachineTypeOf(m)
			e.etc[t][m] = sys.ETC.At(t, mu)
			e.eec[t][m] = sys.EEC(t, mu)
		}
		e.eligible[t] = sys.EligibleMachines(t)
	}
	e.etcT = make([][]float64, nm)
	e.eecT = make([][]float64, nm)
	for m := 0; m < nm; m++ {
		e.etcT[m] = make([]float64, nt)
		e.eecT[m] = make([]float64, nt)
		for t := 0; t < nt; t++ {
			e.etcT[m][t] = e.etc[t][m]
			e.eecT[m][t] = e.eec[t][m]
		}
	}
	n := trace.NumTasks()
	e.tufs = utility.NewTable(n, 2*n)
	e.meta = make([]taskMeta, n)
	e.later = make([]utility.Later, n)
	for i := range trace.Tasks {
		task := &trace.Tasks[i]
		if _, err := e.tufs.Add(task.TUF); err != nil {
			return nil, fmt.Errorf("sched: task %d TUF: %w", i, err)
		}
		e.meta[i] = taskMeta{Inline: e.tufs.Inline(i), arrival: task.Arrival, ty: int32(task.Type)}
		e.later[i] = e.tufs.Later(i)
	}
	return e, nil
}

// System returns the evaluator's system.
func (e *Evaluator) System() *hcs.System { return e.sys }

// Trace returns the evaluator's trace.
func (e *Evaluator) Trace() *workload.Trace { return e.trace }

// NumTasks returns the trace length.
func (e *Evaluator) NumTasks() int { return e.trace.NumTasks() }

// NumMachines returns the machine-instance count.
func (e *Evaluator) NumMachines() int { return e.sys.NumMachines() }

// ETCInstance returns the execution time of task type t on machine
// instance m.
func (e *Evaluator) ETCInstance(t, m int) float64 { return e.etc[t][m] }

// EECInstance returns the energy of task type t on machine instance m.
func (e *Evaluator) EECInstance(t, m int) float64 { return e.eec[t][m] }

// Eligible returns the machine instances capable of executing task type
// t. The returned slice is shared; callers must not modify it.
func (e *Evaluator) Eligible(t int) []int { return e.eligible[t] }

// Validate checks that an allocation is structurally sound for this
// evaluator: correct length, machines in range and capable (or Dropped if
// permitted), and Order a permutation.
func (e *Evaluator) Validate(a *Allocation) error {
	n := e.NumTasks()
	if len(a.Machine) != n || len(a.Order) != n {
		return fmt.Errorf("sched: allocation covers %d/%d tasks, trace has %d", len(a.Machine), len(a.Order), n)
	}
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		m := a.Machine[i]
		if m == Dropped {
			if !e.AllowDropping {
				return fmt.Errorf("sched: task %d dropped but dropping is not enabled", i)
			}
		} else {
			if m < 0 || int(m) >= e.NumMachines() {
				return fmt.Errorf("sched: task %d assigned machine %d out of range", i, m)
			}
			tt := e.trace.Tasks[i].Type
			if !e.sys.CapableMachine(tt, int(m)) {
				return fmt.Errorf("sched: task %d (type %d) assigned incapable machine %d", i, tt, m)
			}
		}
		o := int(a.Order[i])
		if o < 0 || o >= n {
			return fmt.Errorf("sched: task %d order %d out of range", i, o)
		}
		if seen[o] {
			return fmt.Errorf("sched: order %d assigned twice", o)
		}
		seen[o] = true
	}
	return nil
}

// SetIdlePower enables the idle-energy extension: machine instances of
// machine type mu draw wattsByType[mu] watts whenever they sit idle
// between time 0 and their last task's completion. The paper's base
// model charges only execution energy (Eq. 3); idle power makes energy
// order-dependent, since allocations that idle machines waiting for
// arrivals pay for the gaps. Pass nil to disable. The slice must have
// one entry per machine type, each >= 0.
func (e *Evaluator) SetIdlePower(wattsByType []float64) error {
	if wattsByType == nil {
		e.idleWatts = nil
		return nil
	}
	if len(wattsByType) != e.sys.NumMachineTypes() {
		return fmt.Errorf("sched: %d idle powers for %d machine types", len(wattsByType), e.sys.NumMachineTypes())
	}
	perInstance := make([]float64, e.NumMachines())
	for m := 0; m < e.NumMachines(); m++ {
		w := wattsByType[e.sys.MachineTypeOf(m)]
		if w < 0 {
			return fmt.Errorf("sched: negative idle power %v", w)
		}
		perInstance[m] = w
	}
	e.idleWatts = perInstance
	return nil
}

// IdlePowerEnabled reports whether the idle-energy extension is active.
func (e *Evaluator) IdlePowerEnabled() bool { return e.idleWatts != nil }

// Session is a reusable evaluation scratch for one goroutine: a
// DeltaSession and the contribution rows it fills. Every evaluation
// runs the engine's machine-major kernel, so a Session's results equal
// the engine's EvaluateFull bit for bit.
type Session struct {
	d *DeltaSession
	c *Contribs
}

// NewSession returns an evaluation session bound to e.
func (e *Evaluator) NewSession() *Session {
	return &Session{d: e.NewDeltaSession(), c: e.NewContribs()}
}

// IdleEnergy returns the idle-power energy of a finished simulation:
// machine m idles for ready[m] − busy[m] seconds, its last completion
// time less its total execution time, and draws its idle power for
// that long. It is 0 when the extension is disabled.
func (e *Evaluator) IdleEnergy(ready, busy []float64) float64 {
	if e.idleWatts == nil {
		return 0
	}
	var sum float64
	for m, w := range e.idleWatts {
		if idle := ready[m] - busy[m]; idle > 0 {
			sum += w * idle
		}
	}
	return sum
}

// Evaluate simulates the allocation and returns the objective values.
// The allocation is not validated; call Validate separately when the
// source is untrusted. Evaluate is deterministic and does not allocate.
func (s *Session) Evaluate(a *Allocation) Evaluation {
	return s.d.EvaluateFull(a, s.c)
}

// CompletionTimes simulates the allocation and additionally returns the
// per-task completion time (NaN-free; dropped tasks report -1).
func (s *Session) CompletionTimes(a *Allocation) ([]float64, Evaluation) {
	return s.d.CompletionTimes(a, s.c)
}

// Evaluate is a convenience that allocates a fresh session per call. Use
// a Session in hot loops.
func (e *Evaluator) Evaluate(a *Allocation) Evaluation {
	return e.NewSession().Evaluate(a)
}

// RandomAllocation draws a uniformly random feasible allocation: every
// task on a uniformly random eligible machine, with a uniformly random
// global scheduling order.
func (e *Evaluator) RandomAllocation(src *rng.Source) *Allocation {
	a := &Allocation{}
	e.RandomAllocationInto(a, src)
	return a
}

// RandomAllocationInto fills a with a uniformly random feasible
// allocation, drawing the same rng sequence RandomAllocation would. It
// reuses a's backing arrays when they have sufficient capacity, letting
// arena-backed population initialization stay allocation-free.
func (e *Evaluator) RandomAllocationInto(a *Allocation, src *rng.Source) {
	n := e.NumTasks()
	if cap(a.Machine) < n {
		a.Machine = make([]int32, n)
	}
	if cap(a.Order) < n {
		a.Order = make([]int32, n)
	}
	a.Machine, a.Order = a.Machine[:n], a.Order[:n]
	src.PermInto32(a.Order)
	for i := 0; i < n; i++ {
		el := e.eligible[e.trace.Tasks[i].Type]
		a.Machine[i] = int32(el[src.Intn(len(el))])
	}
}
