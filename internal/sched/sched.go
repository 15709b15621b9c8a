// Package sched defines resource allocations and evaluates them against a
// system and trace, producing the two objective values of the paper's
// §IV-B: total utility earned (Eq. 1) and total energy consumed (Eq. 3).
//
// An Allocation is the phenotype of an NSGA-II chromosome: for every task
// in the trace it holds the machine instance the task executes on and the
// task's global scheduling order. Each machine executes its tasks in
// increasing global order; if the next task has not yet arrived the
// machine idles until the arrival (§IV-D). The engine itself stores each
// chromosome as the equivalent execution sequence of packed slots (see
// PackSlot, ScatterSlots and UnpackSlots).
package sched

import (
	"fmt"
	"math"
	"slices"
	"sync"

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
// configured its tables are read-only and it is safe for concurrent
// use: a hot loop evaluates through its own Session or DeltaSession,
// and the standalone replays (Validate, Evaluate, Report, Gantt,
// DropNegligible) draw their scratch from the Evaluator's pool. Every
// evaluation runs the machine-major kernel in delta.go, so all of the
// Evaluator's replays of one allocation agree bit for bit. An Evaluator
// must not be copied.
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
	// per distinct *utility.Function of the trace, bit-identical to
	// Task.TUF.Value. Entry k is funcs[k]'s function.
	tufs *utility.Table
	// meta is the per-task record the simulation kernel reads.
	meta []taskMeta
	// funcs is the per-function record: what the kernel reads of a
	// task's TUF once the task record's thresholds have picked a tier.
	funcs []funcMeta

	// replays pools the standalone replays' idle scratch (*replay).
	replays sync.Pool
}

// replay is one standalone replay's scratch: the DeltaSession and
// Contribs the kernel fills, and Validate's order-check bitset. Each
// part is built on first use, so a pool miss costs Validate only the
// struct and a bitset of one bit per task. Every call overwrites the
// scratch it uses, so a replay carries no state from one call to the
// next.
type replay struct {
	d    *DeltaSession
	c    *Contribs
	seen []uint64
}

// getReplay takes an idle replay scratch from the pool, or a new one
// when the pool is empty; the caller puts it back in e.replays once
// nothing it returns still reads the scratch.
func (e *Evaluator) getReplay() *replay {
	if r, ok := e.replays.Get().(*replay); ok {
		return r
	}
	return new(replay)
}

// session returns the replay's DeltaSession and Contribs.
func (r *replay) session(e *Evaluator) (*DeltaSession, *Contribs) {
	if r.d == nil {
		r.d, r.c = e.NewDeltaSession(), e.NewContribs()
	}
	return r.d, r.c
}

// bitset returns the replay's cleared bitset of n bits.
func (r *replay) bitset(n int) []uint64 {
	words := (n + 63) / 64
	if cap(r.seen) < words {
		r.seen = make([]uint64, words)
	}
	seen := r.seen[:words]
	clear(seen)
	return seen
}

// taskMeta is the 32-byte per-task record the machine-major simulation
// kernel reads for every task: arrival time, the two thresholds of the
// task's TUF that pick its utility tier (utility.Inline's TailT and
// Dur0), task type, and the index of the TUF's funcMeta and table
// entry. Two records share a cache line.
type taskMeta struct {
	arrival, tailT, dur0 float64
	ty, fn               int32
}

// funcMeta is the per-function record: the values of a compiled TUF
// that the kernel reads once a task's thresholds have picked the tier,
// namely utility.Inline's tail value, priority, and first-segment
// start and aux, and utility.Later's segments 2–3 and Walk flag.
type funcMeta struct {
	TailV, Prio, Start0, Aux0 float64
	utility.Later
}

// LimitError reports an instance too large for the packed 32-bit
// execution-order slot (see PackSlot): NewEvaluator refuses it rather
// than let a task id or machine index wrap into a neighbouring field.
type LimitError struct {
	// What names the bounded quantity: "tasks" or "machines".
	What string
	// Count is the instance's size, Limit the largest size accepted.
	Count, Limit int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("sched: %d %s exceed the packed slot limit of %d %s", e.Count, e.What, e.Limit, e.What)
}

// checkSlotLimits returns a *LimitError when a trace of the given task
// count or a system of the given machine count cannot be packed.
func checkSlotLimits(tasks, machines int) error {
	if tasks > MaxSlotTasks {
		return &LimitError{What: "tasks", Count: tasks, Limit: MaxSlotTasks}
	}
	if machines > MaxSlotMachines {
		return &LimitError{What: "machines", Count: machines, Limit: MaxSlotMachines}
	}
	return nil
}

// NewEvaluator validates the trace against the system and precomputes
// per-instance ETC/EEC tables. A trace over MaxSlotTasks tasks or a
// system over MaxSlotMachines machines is refused with a *LimitError.
func NewEvaluator(sys *hcs.System, trace *workload.Trace) (*Evaluator, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid system: %w", err)
	}
	if err := checkSlotLimits(trace.NumTasks(), sys.NumMachines()); err != nil {
		return nil, err
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
	// Number the distinct functions by first use; first[k] is the
	// first task carrying function k.
	e.meta = make([]taskMeta, trace.NumTasks())
	index := make(map[*utility.Function]int32)
	var first []int32
	segs := 0
	for i := range trace.Tasks {
		task := &trace.Tasks[i]
		fn, ok := index[task.TUF]
		if !ok {
			fn = int32(len(first))
			index[task.TUF] = fn
			first = append(first, int32(i))
			segs += len(task.TUF.Segments)
		}
		e.meta[i] = taskMeta{arrival: task.Arrival, ty: int32(task.Type), fn: fn}
	}
	e.tufs = utility.NewTable(len(first), segs)
	e.funcs = make([]funcMeta, len(first))
	for k, i := range first {
		if _, err := e.tufs.Add(trace.Tasks[i].TUF); err != nil {
			return nil, fmt.Errorf("sched: task %d TUF: %w", i, err)
		}
		in := e.tufs.Inline(k)
		e.funcs[k] = funcMeta{TailV: in.TailV, Prio: in.Prio, Start0: in.Start0, Aux0: in.Aux0, Later: e.tufs.Later(k)}
	}
	for i := range e.meta {
		in := e.tufs.Inline(int(e.meta[i].fn))
		e.meta[i].tailT, e.meta[i].dur0 = in.TailT, in.Dur0
	}
	return e, nil
}

// VariantEvaluator is an Evaluator in which variant p of task type t is
// the virtual type t·S+p; Evaluator.Variants builds one.
type VariantEvaluator struct {
	*Evaluator
	s int
}

// Variants derives from e an evaluator whose machine rows hold, for
// virtual type t·S+p (S = len(tScale)), ETC·tScale[p] and EEC·eScale[p]
// of type t; every task starts at variant 0. It shares e's trace and
// TUFs, charges no idle power, serves session evaluation only, and is
// not safe for concurrent use while SetVariant writes its task records.
func (e *Evaluator) Variants(tScale, eScale []float64) *VariantEvaluator {
	s, nt := len(tScale), e.sys.NumTaskTypes()
	v := &Evaluator{sys: e.sys, trace: e.trace, tufs: e.tufs, funcs: e.funcs, meta: slices.Clone(e.meta)}
	v.etcT, v.eecT = make([][]float64, len(e.etcT)), make([][]float64, len(e.eecT))
	for m := range v.etcT {
		v.etcT[m], v.eecT[m] = make([]float64, nt*s), make([]float64, nt*s)
		for t := 0; t < nt; t++ {
			for p := 0; p < s; p++ {
				v.etcT[m][t*s+p] = e.etc[t][m] * tScale[p]
				v.eecT[m][t*s+p] = e.eec[t][m] * eScale[p]
			}
		}
	}
	for i := range v.meta {
		v.meta[i].ty *= int32(s)
	}
	return &VariantEvaluator{v, s}
}

// SetVariant puts task i at variant p of its type.
func (v *VariantEvaluator) SetVariant(i, p int) {
	v.meta[i].ty = int32(v.trace.Tasks[i].Type*v.s + p)
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
	r := e.getReplay()
	err := e.validate(a, r)
	e.replays.Put(r)
	return err
}

// validate is Validate on the given replay scratch. It reads each
// task's type from the kernel's compact per-task record and capability
// from the evaluator's ETC rows (Incapable is +Inf).
func (e *Evaluator) validate(a *Allocation, r *replay) error {
	n := e.NumTasks()
	if len(a.Machine) != n || len(a.Order) != n {
		return fmt.Errorf("sched: allocation covers %d/%d tasks, trace has %d", len(a.Machine), len(a.Order), n)
	}
	seen := r.bitset(n)
	for i := 0; i < n; i++ {
		if err := e.checkMachine(i, a.Machine[i]); err != nil {
			return err
		}
		o := int(a.Order[i])
		if o < 0 || o >= n {
			return fmt.Errorf("sched: task %d order %d out of range", i, o)
		}
		bit := uint64(1) << (o & 63)
		if seen[o>>6]&bit != 0 {
			return fmt.Errorf("sched: order %d assigned twice", o)
		}
		seen[o>>6] |= bit
	}
	return nil
}

// ValidateSlots makes Validate's checks on a packed execution sequence
// (see PackSlot): one slot per task, every task scheduled exactly once,
// and each task's machine in range and capable, or Dropped if permitted.
// It walks the slots once with Validate's pooled bitset and allocates
// nothing while the pool holds a scratch.
func (e *Evaluator) ValidateSlots(slots []uint32) error {
	r := e.getReplay()
	err := e.validateSlots(slots, r)
	e.replays.Put(r)
	return err
}

// validateSlots is ValidateSlots on the given replay scratch; the bitset
// marks tasks seen, since a sequence of NumTasks slots is a permutation
// exactly when no task appears twice.
func (e *Evaluator) validateSlots(slots []uint32, r *replay) error {
	n := e.NumTasks()
	if len(slots) != n {
		return fmt.Errorf("sched: execution sequence covers %d tasks, trace has %d", len(slots), n)
	}
	seen := r.bitset(n)
	for pos, v := range slots {
		t := SlotTask(v)
		if t >= n {
			return fmt.Errorf("sched: slot %d holds task %d out of range", pos, t)
		}
		if err := e.checkMachine(t, SlotMachine(v)); err != nil {
			return err
		}
		bit := uint64(1) << (t & 63)
		if seen[t>>6]&bit != 0 {
			return fmt.Errorf("sched: task %d scheduled twice", t)
		}
		seen[t>>6] |= bit
	}
	return nil
}

// checkMachine checks task i's machine assignment m: in range and
// capable of the task's type (Incapable is +Inf in the ETC rows), or
// Dropped while dropping is enabled.
func (e *Evaluator) checkMachine(i int, m int32) error {
	if m == Dropped {
		if !e.AllowDropping {
			return fmt.Errorf("sched: task %d dropped but dropping is not enabled", i)
		}
		return nil
	}
	if m < 0 || int(m) >= e.NumMachines() {
		return fmt.Errorf("sched: task %d assigned machine %d out of range", i, m)
	}
	tt := e.meta[i].ty
	if math.IsInf(e.etc[tt][m], 1) {
		return fmt.Errorf("sched: task %d (type %d) assigned incapable machine %d", i, tt, m)
	}
	return nil
}

// SetIdlePower enables the idle-energy extension: machine instances of
// machine type mu draw wattsByType[mu] watts whenever they sit idle
// between time 0 and their last task's completion. The paper's base
// model charges only execution energy (Eq. 3); idle power makes energy
// order-dependent, since allocations that idle machines waiting for
// arrivals pay for the gaps. Pass nil to disable. The slice must have
// one entry per machine type, each finite and >= 0.
func (e *Evaluator) SetIdlePower(wattsByType []float64) error {
	if wattsByType == nil {
		e.idleWatts = nil
		return nil
	}
	if len(wattsByType) != e.sys.NumMachineTypes() {
		return fmt.Errorf("sched: %d idle powers for %d machine types", len(wattsByType), e.sys.NumMachineTypes())
	}
	for _, w := range wattsByType {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("sched: idle power %v, want finite and >= 0", w)
		}
	}
	perInstance := make([]float64, e.NumMachines())
	for m := range perInstance {
		perInstance[m] = wattsByType[e.sys.MachineTypeOf(m)]
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

// Evaluate simulates the allocation and returns the objective values,
// bit-identical to a Session's. It runs on scratch from the evaluator's
// replay pool, so it is safe for concurrent use and, once the pool is
// warm, does not allocate. The allocation is not validated and must be
// valid; call Validate first when the source is untrusted.
func (e *Evaluator) Evaluate(a *Allocation) Evaluation {
	r := e.getReplay()
	d, c := r.session(e)
	ev := d.EvaluateFull(a, c)
	e.replays.Put(r)
	return ev
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
