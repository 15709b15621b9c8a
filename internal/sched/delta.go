package sched

import "slices"

// Machine-major and incremental (dirty-machine) evaluation.
//
// The schedule semantics are machine-independent: a machine's queue —
// and therefore its utility, energy, busy time, and last completion —
// depends only on the set of tasks assigned to it and their relative
// scheduling order, never on what other machines run (§IV-D: a machine
// idles until the next of ITS tasks arrives). Evaluation can therefore
// be restructured machine-major: bucket the tasks per machine in
// execution order, simulate each machine independently, and reduce the
// per-machine contributions in fixed machine order. Because the
// reduction order is fixed, a re-evaluation that re-simulates only the
// machines whose task sequence changed and reuses the cached
// contributions of the rest produces bit-identical objective values —
// the basis of the NSGA-II engine's incremental offspring evaluation.
//
// A machine's bucket is identified by a splitmix fingerprint of its
// task sequence rather than by a stored copy of the sequence itself:
// Prepare streams the allocation's execution sequence (its packed
// 32-bit slots, see PackSlot) once, accumulating each machine's bucket
// fingerprint while gathering the task sequences machine-major, and
// inherits the row of every machine whose fingerprint matches the
// parent's, or failing that the other parent's. Only the machines whose
// fingerprint misses both get their sequence simulated.
//
// The kernel here (typedCont, one serial walk per needed machine) is the
// package's only simulation of a machine queue: the engine, Session, the
// Evaluator's Evaluate, Report, Gantt and DropNegligible all replay an
// allocation through it, and so does internal/dvfs, on an evaluator from
// Variants (DESIGN.md §12, "One simulator").

// Contribs caches the outcome of one allocation's machine-major
// simulation: per-machine objective contributions plus each machine's
// bucket fingerprint (a deterministic hash of its task sequence in
// execution order, folded with the machine id and queue length). A
// Contribs belongs to exactly one allocation snapshot; pass it as the
// parent cache to DeltaSession.EvaluateDelta when evaluating a
// variation of that allocation.
type Contribs struct {
	// Utility, Energy, Busy and Ready hold each machine's total earned
	// utility, execution energy, accumulated execution time, and last
	// task completion time (zero for idle machines).
	Utility []float64
	Energy  []float64
	Busy    []float64
	Ready   []float64
	// Done is the number of executed (non-dropped) tasks per machine.
	Done []int32
	// FP is each machine's bucket fingerprint. Equal fingerprints
	// identify equal task sequences (up to 64-bit hash collision), so a
	// row whose fingerprint matches may be inherited without
	// re-simulation.
	FP []uint64

	valid bool
}

// NewContribs returns an empty contribution cache sized for the
// evaluator, ready to be filled by EvaluateFull or EvaluateDelta.
func (e *Evaluator) NewContribs() *Contribs {
	nm := e.NumMachines()
	return &Contribs{
		Utility: make([]float64, nm),
		Energy:  make([]float64, nm),
		Busy:    make([]float64, nm),
		Ready:   make([]float64, nm),
		Done:    make([]int32, nm),
		FP:      make([]uint64, nm),
	}
}

// Equal reports whether two caches hold bit-identical contents
// (contribution rows, bucket fingerprints, and validity). It backs the
// engine's direct-evaluation oracle test.
func (c *Contribs) Equal(o *Contribs) bool {
	return c.valid == o.valid &&
		slices.Equal(c.Utility, o.Utility) &&
		slices.Equal(c.Energy, o.Energy) &&
		slices.Equal(c.Busy, o.Busy) &&
		slices.Equal(c.Ready, o.Ready) &&
		slices.Equal(c.Done, o.Done) &&
		slices.Equal(c.FP, o.FP)
}

// contribsLine is the cache-line size the batch allocator pads to.
const contribsLine = 64

// padSlots rounds n elements up so a slot's row occupies whole cache
// lines (elemSize must divide contribsLine).
func padSlots(n, elemSize int) int {
	per := contribsLine / elemSize
	return (n + per - 1) / per * per
}

// NewContribsBatch returns k contribution caches laid out
// structure-of-arrays: one contiguous backing slice per field, each
// cache's rows padded to whole cache lines so caches written by
// different workers never share a line. Every returned cache is
// interchangeable with a NewContribs one.
func (e *Evaluator) NewContribsBatch(k int) []*Contribs {
	nm := e.NumMachines()
	fs := padSlots(nm, 8) // float64 and uint64 rows
	ds := padSlots(nm, 4) // int32 Done rows
	util := make([]float64, k*fs)
	energy := make([]float64, k*fs)
	busy := make([]float64, k*fs)
	ready := make([]float64, k*fs)
	done := make([]int32, k*ds)
	fp := make([]uint64, k*fs)
	out := make([]*Contribs, k)
	for s := 0; s < k; s++ {
		out[s] = &Contribs{
			Utility: util[s*fs : s*fs+nm : s*fs+nm],
			Energy:  energy[s*fs : s*fs+nm : s*fs+nm],
			Busy:    busy[s*fs : s*fs+nm : s*fs+nm],
			Ready:   ready[s*fs : s*fs+nm : s*fs+nm],
			Done:    done[s*ds : s*ds+nm : s*ds+nm],
			FP:      fp[s*fs : s*fs+nm : s*fs+nm],
		}
	}
	return out
}

// Valid reports whether the cache holds the outcome of a completed
// evaluation.
func (c *Contribs) Valid() bool { return c != nil && c.valid }

// Invalidate marks the cache as stale; the next EvaluateDelta against it
// falls back to a full evaluation.
func (c *Contribs) Invalidate() {
	if c != nil {
		c.valid = false
	}
}

// DeltaStats counts the work a DeltaSession has performed since its
// creation: evaluations with and without a usable parent, and the
// per-machine simulate-vs-inherit split inside them. Counters are
// cumulative and monotone; diff two snapshots for an interval.
type DeltaStats struct {
	// FullEvals counts evaluations without a usable parent cache;
	// DeltaEvals counts evaluations that could inherit from a parent.
	FullEvals  uint64
	DeltaEvals uint64
	// MachinesSimulated counts machine queues re-simulated;
	// MachinesInherited counts contribution rows reused from a parent
	// cache.
	MachinesSimulated uint64
	MachinesInherited uint64
}

// Add accumulates o into s.
func (s *DeltaStats) Add(o DeltaStats) {
	s.FullEvals += o.FullEvals
	s.DeltaEvals += o.DeltaEvals
	s.MachinesSimulated += o.MachinesSimulated
	s.MachinesInherited += o.MachinesInherited
}

// Sub subtracts o from s (for diffing cumulative snapshots).
func (s *DeltaStats) Sub(o DeltaStats) {
	s.FullEvals -= o.FullEvals
	s.DeltaEvals -= o.DeltaEvals
	s.MachinesSimulated -= o.MachinesSimulated
	s.MachinesInherited -= o.MachinesInherited
}

// DeltaPlan is the residue of one Prepare call: which machines still
// need a contribution row after parent inheritance, plus every
// machine's task sequence in execution order (gathered machine-major
// during Prepare's single slot walk). Plans are caller-owned scratch
// (the engine keeps one per breeding worker); allocate with
// NewDeltaPlan and reuse freely.
type DeltaPlan struct {
	// Need lists the machines (ascending) whose row was not inherited
	// from the parent; the caller must simulate them (SimulateAllNeeds)
	// before Finish.
	Need []int32

	// seq holds every machine's task sequence back-to-back in machine
	// order; seqStart[m] offsets machine m's slice.
	seq      []int32
	seqStart []int32

	parentValid bool
}

// NewDeltaPlan returns an empty plan sized for the evaluator.
func (e *Evaluator) NewDeltaPlan() *DeltaPlan {
	nm, nt := e.NumMachines(), e.NumTasks()
	return &DeltaPlan{
		Need:     make([]int32, 0, nm),
		seq:      make([]int32, 0, nt),
		seqStart: make([]int32, nm+1),
	}
}

// NeedSeq returns the task sequence of Need[k] in execution order.
func (p *DeltaPlan) NeedSeq(k int) []int32 {
	m := p.Need[k]
	return p.seq[p.seqStart[m]:p.seqStart[m+1]]
}

// DeltaSession holds the scratch space for machine-major evaluation on
// one goroutine. Like Session, the underlying evaluator is read-only and
// may be shared; each goroutine needs its own DeltaSession.
type DeltaSession struct {
	e *Evaluator
	// slots is the standalone execution-sequence scratch for the
	// Allocation-based entry points; the engine's genotype already is
	// one.
	slots []uint32
	// fpSeed[m] seeds machine m's bucket fingerprint, so identical
	// sequences on different machines never share one.
	fpSeed []uint64
	// cur is the per-machine gather cursor scratch.
	cur []int32
	// counts is the per-machine task-count scratch for the standalone
	// entry points; the engine's breeding writes its own counts as a
	// by-product of building each child.
	counts []int32
	// plan is the standalone plan for the Allocation-based entry points.
	plan *DeltaPlan
	// stats counts the session's work with plain (non-atomic)
	// increments — sessions are single-goroutine by contract, so the
	// counters are always on and cost nothing measurable.
	stats DeltaStats
}

// Stats returns a snapshot of the session's cumulative work counters.
func (d *DeltaSession) Stats() DeltaStats { return d.stats }

// NewDeltaSession returns a machine-major evaluation session bound to e.
func (e *Evaluator) NewDeltaSession() *DeltaSession {
	nm := e.NumMachines()
	d := &DeltaSession{
		e:      e,
		slots:  make([]uint32, e.NumTasks()),
		fpSeed: make([]uint64, nm),
		cur:    make([]int32, nm),
		counts: make([]int32, nm),
		plan:   e.NewDeltaPlan(),
	}
	for m := 0; m < nm; m++ {
		d.fpSeed[m] = Mix64(uint64(m+1) * FPGamma)
	}
	return d
}

// Evaluator returns the evaluator the session is bound to.
func (d *DeltaSession) Evaluator() *Evaluator { return d.e }

// ScatterSlots rewrites slots (length NumTasks) into the allocation's
// execution sequence — slots[o] = PackSlot(machine, task) of the task
// scheduled o-th — and, when counts is non-nil, histograms the
// non-dropped task count per machine into counts (length NumMachines).
// Order must be a permutation; machines must fit the slot (see
// PackSlot).
//
//detlint:hotpath
func ScatterSlots(a *Allocation, slots []uint32, counts []int32) {
	for i, m := range a.Machine {
		slots[a.Order[i]] = PackSlot(m, i)
	}
	if counts == nil {
		return
	}
	clear(counts)
	for _, m := range a.Machine {
		if m >= 0 {
			counts[m]++
		}
	}
}

// UnpackSlots is ScatterSlots' inverse: it rewrites a's Machine and
// Order from an execution sequence, reusing a's backing arrays when
// they are large enough.
func UnpackSlots(slots []uint32, a *Allocation) {
	n := len(slots)
	if cap(a.Machine) < n {
		a.Machine = make([]int32, n)
	}
	if cap(a.Order) < n {
		a.Order = make([]int32, n)
	}
	a.Machine, a.Order = a.Machine[:n], a.Order[:n]
	for r, v := range slots {
		t := SlotTask(v)
		a.Machine[t] = SlotMachine(v)
		a.Order[t] = int32(r)
	}
}

// Prepare streams the execution sequence once, computing every
// machine's bucket fingerprint into dst and gathering every machine's
// task sequence machine-major into the plan. It inherits the parent's
// contribution row for each machine whose fingerprint matches the
// parent's, else alt's row when alt's matches (a parent that is nil,
// invalid, or dst itself never matches), and lists the remaining
// machines in plan.Need. The engine passes a child's two parents as
// parent and alt; the standalone entry points pass at most one. counts
// must hold each machine's non-dropped task count for these slots (a
// by-product of building them — see ScatterSlots); it is what lets the
// gather land machine-major in the same walk that computes the
// fingerprints. The caller simulates each needed machine, then calls
// Finish.
//
// Inheritance is decided by content, not by dirty-machine flags: an
// unchanged sequence always reproduces the parent's fingerprint, so it
// inherits without a stored copy of the parent's layout. A 64-bit
// collision between different sequences on the same machine would
// inherit a stale row; the engine's direct-evaluation oracle test checks
// every population member against a fresh EvaluateFull to rule that out.
//
//detlint:hotpath
func (d *DeltaSession) Prepare(slots []uint32, counts []int32, parent, alt, dst *Contribs, plan *DeltaPlan) {
	nm := len(dst.FP)
	fp := dst.FP
	copy(fp, d.fpSeed)
	seqStart := plan.seqStart[:nm+1]
	cur := d.cur[:nm]
	var cum int32
	for m, c := range counts[:nm] {
		seqStart[m] = cum
		cur[m] = cum
		cum += c
	}
	seqStart[nm] = cum
	plan.seq = plan.seq[:cum]
	seq := plan.seq
	for _, v := range slots {
		m := v >> SlotTaskBits
		if m == 0 {
			continue // dropped task
		}
		t := v & SlotTaskMask
		fp[m-1] = (fp[m-1] ^ uint64(t+1)) * FPMul1
		seq[cur[m-1]] = int32(t)
		cur[m-1]++
	}
	pv := parent.Valid() && parent != dst
	av := alt.Valid() && alt != dst && alt != parent
	plan.parentValid = pv || av
	plan.Need = plan.Need[:0]
	for m := 0; m < nm; m++ {
		fp[m] = Mix64(fp[m] ^ uint64(uint32(counts[m])))
		var src *Contribs
		if pv && fp[m] == parent.FP[m] {
			src = parent
		} else if av && fp[m] == alt.FP[m] {
			src = alt
		} else {
			plan.Need = append(plan.Need, int32(m))
			continue
		}
		dst.Utility[m] = src.Utility[m]
		dst.Energy[m] = src.Energy[m]
		dst.Busy[m] = src.Busy[m]
		dst.Ready[m] = src.Ready[m]
		dst.Done[m] = src.Done[m]
		d.stats.MachinesInherited++
	}
}

// Finish folds dst's per-machine contributions into the objective
// values and marks dst valid. Every Prepare must be balanced by exactly
// one Finish after the Need rows are supplied.
//
//detlint:hotpath
func (d *DeltaSession) Finish(dst *Contribs, plan *DeltaPlan) Evaluation {
	if plan.parentValid {
		d.stats.DeltaEvals++
	} else {
		d.stats.FullEvals++
	}
	dst.valid = true
	return d.reduce(dst)
}

// simMachineTyped simulates machine m's task sequence and records its
// contribution row in dst.
//
//detlint:hotpath
func (d *DeltaSession) simMachineTyped(m int, tasks []int32, dst *Contribs) {
	var st kstate
	d.typedCont(m, tasks, &st)
	dst.Utility[m] = st.util
	dst.Energy[m] = st.energy
	dst.Busy[m] = st.busy
	dst.Ready[m] = st.ready
	dst.Done[m] = int32(len(tasks))
}

// kstate is one machine's in-flight kernel state, carried across calls
// so CompletionTimes can step the walk one task at a time.
type kstate struct {
	ready, busy, util, energy float64
}

// typedCont advances machine m's walk over tasks, continuing from (and
// updating) the carried state. It indexes the machine's ETC/EEC rows by
// each task's type and resolves each task's utility in four tiers,
// picked by the thresholds in the task's record and computed from its
// function's record: past the TUF's tail guard, the stored tail value;
// inside a Constant or Linear first segment, that segment's
// interpolation; past it, for a TUF of at most three Constant or Linear
// segments, segments 2–3 (or the tail); anything else, Table.Value on
// the function's entry. Every floating-point operation that
// reaches an accumulator is the same operation in the same order as a
// plain per-task walk (the reference loop in the package tests):
// additions stay sequential, and the first three tiers compute exactly
// what Table.Value would. The result is bit-identical to that walk for
// any queue and any TUF shape.
//
//detlint:hotpath
func (d *DeltaSession) typedCont(m int, tasks []int32, st *kstate) {
	e := d.e
	etcRow, eecRow := e.etcT[m], e.eecT[m]
	meta, funcs := e.meta, e.funcs
	ready, busy, util, energy := st.ready, st.busy, st.util, st.energy
	for _, ti := range tasks {
		mt := &meta[ti]
		ty := mt.ty
		etc := etcRow[ty]
		arr := mt.arrival
		start := ready
		if arr > start {
			start = arr
		}
		completion := start + etc
		ready = completion
		busy += etc
		// The tiers of utility.Inline and utility.Later perform
		// Table.Value's operations in its order; each float64
		// conversion keeps a product from fusing into the sum.
		// Table.Value also clamps a negative elapsed time to 0, a no-op
		// here: el >= 0 because completion = max(ready, arrival) + ETC
		// and hcs validates ETC > 0.
		el := completion - arr
		if fm := &funcs[mt.fn]; el >= mt.tailT {
			util += fm.TailV
		} else if el < mt.dur0 {
			util += float64(fm.Prio * (fm.Start0 + fm.Aux0*(el/mt.dur0)))
		} else if !fm.Walk {
			t := el - mt.dur0
			if t < fm.Dur1 {
				util += float64(fm.Prio * (fm.Start1 + fm.Aux1*(t/fm.Dur1)))
			} else if t -= fm.Dur1; t < fm.Dur2 {
				util += float64(fm.Prio * (fm.Start2 + fm.Aux2*(t/fm.Dur2)))
			} else {
				util += fm.TailV
			}
		} else {
			util += e.tufs.Value(int(mt.fn), el)
		}
		energy += eecRow[ty]
	}
	st.ready, st.busy, st.util, st.energy = ready, busy, util, energy
}

// SimulateAllNeeds simulates every machine the plan left to the
// caller, one queue at a time, writing each contribution row into dst.
//
//detlint:hotpath
func (d *DeltaSession) SimulateAllNeeds(plan *DeltaPlan, dst *Contribs) {
	for k, m := range plan.Need {
		d.simMachineTyped(int(m), plan.NeedSeq(k), dst)
	}
	d.stats.MachinesSimulated += uint64(len(plan.Need))
}

// reduce folds the per-machine contributions into the objective values
// in fixed machine order. Both the full and the incremental path end
// here, which is what makes them bit-identical.
//
//detlint:hotpath
func (d *DeltaSession) reduce(c *Contribs) Evaluation {
	e := d.e
	var ev Evaluation
	for m := range c.Utility {
		ev.Utility += c.Utility[m]
		ev.Energy += c.Energy[m]
		if c.Ready[m] > ev.Makespan {
			ev.Makespan = c.Ready[m]
		}
		ev.Completed += int(c.Done[m])
	}
	ev.Energy += e.IdleEnergy(c.Ready, c.Busy)
	return ev
}

// evaluate is the shared standalone pipeline: prepare an execution
// sequence and its machine counts against the given parent, simulate
// every needed machine, reduce.
//
//detlint:hotpath
func (d *DeltaSession) evaluate(slots []uint32, counts []int32, parent *Contribs, dst *Contribs) Evaluation {
	d.Prepare(slots, counts, parent, nil, dst, d.plan)
	d.SimulateAllNeeds(d.plan, dst)
	return d.Finish(dst, d.plan)
}

// EvaluateFull simulates the allocation machine-major, filling dst with
// the per-machine contributions and bucket fingerprints, and returns
// the objective values. dst must come from the same evaluator's
// NewContribs; its prior contents are overwritten. The allocation is
// not validated.
//
//detlint:hotpath
//detlint:pure
func (d *DeltaSession) EvaluateFull(a *Allocation, dst *Contribs) Evaluation {
	ScatterSlots(a, d.slots, d.counts)
	return d.evaluate(d.slots, d.counts, nil, dst)
}

// EvaluateSlots is EvaluateFull for an allocation given as its
// execution sequence (the NSGA-II engine's genotype).
//
//detlint:hotpath
func (d *DeltaSession) EvaluateSlots(slots []uint32, dst *Contribs) Evaluation {
	clear(d.counts)
	for _, v := range slots {
		if m := SlotMachine(v); m >= 0 {
			d.counts[m]++
		}
	}
	return d.evaluate(slots, d.counts, nil, dst)
}

// CompletionTimes evaluates the allocation like EvaluateFull and also
// returns each task's completion time (-1 for a dropped task). It steps
// typedCont over one-task slices of every machine's gathered sequence,
// carrying the kernel state from task to task, so the completion
// times, the contribution rows in dst and the objective values are the
// kernel's own, bit for bit.
func (d *DeltaSession) CompletionTimes(a *Allocation, dst *Contribs) ([]float64, Evaluation) {
	times := make([]float64, len(a.Machine))
	for i := range times {
		times[i] = -1
	}
	ScatterSlots(a, d.slots, d.counts)
	d.Prepare(d.slots, d.counts, nil, nil, dst, d.plan)
	for k, m := range d.plan.Need {
		seq := d.plan.NeedSeq(k)
		var st kstate
		for j, ti := range seq {
			d.typedCont(int(m), seq[j:j+1], &st)
			times[ti] = st.ready
		}
		dst.Utility[m], dst.Energy[m], dst.Busy[m], dst.Ready[m], dst.Done[m] = st.util, st.energy, st.busy, st.ready, int32(len(seq))
		d.stats.MachinesSimulated++
	}
	return times, d.Finish(dst, d.plan)
}

// EvaluateDelta evaluates an allocation derived from a parent whose
// contribution cache is `parent`, re-simulating only machines whose
// task sequence actually changed: a machine whose bucket fingerprint
// matches the parent's inherits the parent's row.
//
// The result is bit-identical to EvaluateFull on the same allocation
// (up to 64-bit fingerprint collision; see Prepare). If parent is nil
// or invalid, every machine is simulated.
//
//detlint:hotpath
func (d *DeltaSession) EvaluateDelta(a *Allocation, parent *Contribs, dst *Contribs) Evaluation {
	ScatterSlots(a, d.slots, d.counts)
	return d.evaluate(d.slots, d.counts, parent, dst)
}
