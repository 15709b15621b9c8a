// Package online implements an event-driven dynamic scheduler simulator,
// closing the loop the paper sketches in §VI: the offline bi-objective
// analysis is a post-mortem over a recorded trace, and its product — the
// Pareto front and the maximum utility-per-energy region — is meant to
// "set the parameters needed for designing dynamic or online allocation
// heuristics", e.g. an energy constraint handed to "a separate online
// dynamic utility maximization heuristic".
//
// Here tasks are revealed only at their arrival times and dispatched
// immediately and irrevocably to a machine queue (non-preemptive FIFO per
// machine). Policies see the current machine commitments and the energy
// spent so far, nothing else. The Budgeted policy takes the energy value
// of an offline efficient-region solution as its budget, demonstrating
// the offline-informs-online workflow.
package online

import (
	"fmt"
	"math"

	"tradeoff/internal/sched"
)

// Decision is a policy's verdict for one arriving task.
type Decision struct {
	// Machine is the machine instance to enqueue on, or sched.Dropped to
	// reject the task (earns nothing, costs nothing).
	Machine int
}

// State is what a policy may observe when a task arrives.
type State struct {
	// Now is the arrival time of the task being placed.
	Now float64
	// Ready holds each machine's current commitment horizon: the time it
	// will finish everything already enqueued.
	Ready []float64
	// EnergySpent is the energy committed so far, in joules.
	EnergySpent float64
	// Eval exposes ETC/EEC lookups and eligibility.
	Eval *sched.Evaluator
}

// CompletionOn returns the completion time the arriving task would have
// on machine m given current commitments.
func (st *State) CompletionOn(taskType int, m int) float64 {
	start := st.Ready[m]
	if st.Now > start {
		start = st.Now
	}
	return start + st.Eval.ETCInstance(taskType, m)
}

// Policy decides machine placement for arriving tasks.
type Policy interface {
	Name() string
	// Place is called once per task, in arrival order.
	Place(task int, st *State) Decision
}

// Result summarizes one online simulation.
type Result struct {
	Policy     string
	Evaluation sched.Evaluation
	Dropped    int
	// Allocation is the realized allocation (order = dispatch order),
	// suitable for offline re-evaluation or comparison.
	Allocation *sched.Allocation
}

// Simulate runs a policy over the evaluator's trace. Tasks are offered
// in arrival order; the returned allocation reproduces the realized
// schedule under the offline evaluator (with dropping allowed).
func Simulate(e *sched.Evaluator, p Policy) (*Result, error) {
	n := e.NumTasks()
	tasks := e.Trace().Tasks
	st := &State{Ready: make([]float64, e.NumMachines()), Eval: e}
	alloc := sched.NewAllocation(n)
	res := &Result{Policy: p.Name(), Allocation: alloc}
	for i := 0; i < n; i++ {
		task := &tasks[i]
		st.Now = task.Arrival
		d := p.Place(i, st)
		if d.Machine == sched.Dropped {
			alloc.Machine[i] = sched.Dropped
			res.Dropped++
			continue
		}
		if d.Machine < 0 || d.Machine >= e.NumMachines() {
			return nil, fmt.Errorf("online: policy %s placed task %d on machine %d (out of range)", p.Name(), i, d.Machine)
		}
		if !e.System().CapableMachine(task.Type, d.Machine) {
			return nil, fmt.Errorf("online: policy %s placed task %d on incapable machine %d", p.Name(), i, d.Machine)
		}
		alloc.Machine[i] = int32(d.Machine)
		st.Ready[d.Machine] = st.CompletionOn(task.Type, d.Machine)
		st.EnergySpent += e.EECInstance(task.Type, d.Machine)
	}
	// Tasks were dispatched in index order, the allocation's identity
	// order, so each machine ran its tasks exactly as the offline replay
	// does, and the replay's evaluation (idle energy included) is the
	// online outcome.
	e.AllowDropping = true
	if err := e.Validate(alloc); err != nil {
		return nil, fmt.Errorf("online: realized allocation invalid: %w", err)
	}
	res.Evaluation = e.Evaluate(alloc)
	return res, nil
}

// --- Policies -------------------------------------------------------------

// GreedyUtility places each task on the machine maximizing its utility
// at the projected completion time (the online analogue of the
// Max Utility seed).
type GreedyUtility struct{}

// Name implements Policy.
func (GreedyUtility) Name() string { return "online-max-utility" }

// Place implements Policy.
func (GreedyUtility) Place(task int, st *State) Decision {
	t := &st.Eval.Trace().Tasks[task]
	best, bestU, bestC := -1, math.Inf(-1), math.Inf(1)
	for _, m := range st.Eval.Eligible(t.Type) {
		c := st.CompletionOn(t.Type, m)
		u := t.TUF.Value(c - t.Arrival)
		if u > bestU || (u == bestU && c < bestC) {
			best, bestU, bestC = m, u, c
		}
	}
	return Decision{Machine: best}
}

// GreedyEnergy places each task on its cheapest machine.
type GreedyEnergy struct{}

// Name implements Policy.
func (GreedyEnergy) Name() string { return "online-min-energy" }

// Place implements Policy.
func (GreedyEnergy) Place(task int, st *State) Decision {
	t := &st.Eval.Trace().Tasks[task]
	best, bestE := -1, math.Inf(1)
	for _, m := range st.Eval.Eligible(t.Type) {
		if c := st.Eval.EECInstance(t.Type, m); c < bestE {
			best, bestE = m, c
		}
	}
	return Decision{Machine: best}
}

// GreedyUPE places each task on the machine maximizing utility earned
// per joule.
type GreedyUPE struct{}

// Name implements Policy.
func (GreedyUPE) Name() string { return "online-max-upe" }

// Place implements Policy.
func (GreedyUPE) Place(task int, st *State) Decision {
	t := &st.Eval.Trace().Tasks[task]
	best, bestR, bestE := -1, math.Inf(-1), math.Inf(1)
	for _, m := range st.Eval.Eligible(t.Type) {
		c := st.CompletionOn(t.Type, m)
		u := t.TUF.Value(c - t.Arrival)
		en := st.Eval.EECInstance(t.Type, m)
		r := u / en
		if r > bestR || (r == bestR && en < bestE) {
			best, bestR, bestE = m, r, en
		}
	}
	return Decision{Machine: best}
}

// Budgeted wraps a utility-maximizing placement in an energy budget —
// the §VI workflow: the budget comes from the offline front (e.g. the
// energy of the maximum utility-per-energy solution). Placement spends
// the budget linearly across the trace: a task may use the cheapest
// machine once the pro-rata budget is exhausted, and is dropped when even
// the cheapest machine would overrun the total budget or its utility
// would be zero.
type Budgeted struct {
	// Budget is the total energy allowance in joules.
	Budget float64
	// Window is the trace window used for pro-rata pacing.
	Window float64
	// DropZeroUtility drops tasks whose best achievable utility is 0
	// (they would only burn energy).
	DropZeroUtility bool
}

// Name implements Policy.
func (b Budgeted) Name() string { return "online-budgeted" }

// Place implements Policy.
func (b Budgeted) Place(task int, st *State) Decision {
	t := &st.Eval.Trace().Tasks[task]
	type option struct {
		m    int
		u, e float64
	}
	var opts []option
	for _, m := range st.Eval.Eligible(t.Type) {
		c := st.CompletionOn(t.Type, m)
		opts = append(opts, option{
			m: m,
			u: t.TUF.Value(c - t.Arrival),
			e: st.Eval.EECInstance(t.Type, m),
		})
	}
	// Cheapest option, for fallback and feasibility.
	cheapest := opts[0]
	for _, o := range opts[1:] {
		if o.e < cheapest.e {
			cheapest = o
		}
	}
	if st.EnergySpent+cheapest.e > b.Budget {
		return Decision{Machine: sched.Dropped} // budget exhausted
	}
	// Pro-rata pacing: how much budget "should" be spent by now.
	pace := b.Budget
	if b.Window > 0 {
		frac := st.Now / b.Window
		if frac > 1 {
			frac = 1
		}
		// Allow a slack of one mean task cost so the policy is not
		// starved at t=0.
		pace = b.Budget*frac + b.Budget/float64(st.Eval.NumTasks())
	}
	best := option{m: -1, u: math.Inf(-1)}
	for _, o := range opts {
		if st.EnergySpent+o.e > pace && o.m != cheapest.m {
			continue // over pace: only the cheapest machine is allowed
		}
		if o.u > best.u || (o.u == best.u && o.e < best.e) {
			best = o
		}
	}
	if best.m == -1 {
		best = cheapest
	}
	if b.DropZeroUtility && best.u <= 0 {
		return Decision{Machine: sched.Dropped}
	}
	return Decision{Machine: best.m}
}
