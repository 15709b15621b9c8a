// Package heuristics implements the greedy seeding heuristics of the
// paper's §V-B. Each heuristic deterministically produces one complete
// resource allocation that is injected into an NSGA-II initial population
// to pull the search toward a region of the objective space:
//
//   - Min Energy: per task (in arrival order), the machine with the
//     smallest expected energy consumption. Provably reaches the minimum
//     possible total energy.
//   - Max Utility: per task (in arrival order), the machine whose queue
//     yields the highest utility at the task's completion time.
//   - Max Utility-per-Energy: per task, the machine maximizing utility
//     earned per joule consumed.
//   - Min-Min Completion Time: the classic two-stage heuristic (Ibarra &
//     Kim; Braun et al.): repeatedly map the task whose best-machine
//     completion time is globally smallest.
//
// All heuristics return allocations whose global scheduling order equals
// the order in which they map tasks. The three arrival-order heuristics
// cost O(n·machines); Min-Min costs O(n·types·machines) (see
// BuildMinMin).
package heuristics

import (
	"fmt"

	"tradeoff/internal/sched"
)

// Heuristic names a deterministic seeding strategy.
type Heuristic int

const (
	// MinEnergy maps each task to its energy-minimizing machine.
	MinEnergy Heuristic = iota
	// MaxUtility maps each task to the machine maximizing its utility.
	MaxUtility
	// MaxUtilityPerEnergy maps each task to the machine maximizing
	// utility earned per unit energy.
	MaxUtilityPerEnergy
	// MinMin is the two-stage minimum-completion-time heuristic.
	MinMin
)

// All lists every heuristic in a stable order.
var All = []Heuristic{MinEnergy, MaxUtility, MaxUtilityPerEnergy, MinMin}

func (h Heuristic) String() string {
	switch h {
	case MinEnergy:
		return "min-energy"
	case MaxUtility:
		return "max-utility"
	case MaxUtilityPerEnergy:
		return "max-utility-per-energy"
	case MinMin:
		return "min-min"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// Build runs the heuristic against an evaluator's system and trace.
func (h Heuristic) Build(e *sched.Evaluator) (*sched.Allocation, error) {
	switch h {
	case MinEnergy:
		return BuildMinEnergy(e), nil
	case MaxUtility:
		return BuildMaxUtility(e), nil
	case MaxUtilityPerEnergy:
		return BuildMaxUtilityPerEnergy(e), nil
	case MinMin:
		return BuildMinMin(e), nil
	default:
		return nil, fmt.Errorf("heuristics: unknown heuristic %d", int(h))
	}
}

// BuildMinEnergy maps tasks in arrival order to the machine consuming the
// least energy for their type (§V-B1). The resulting allocation attains
// the minimum achievable total energy because energy is separable per
// task and independent of ordering.
func BuildMinEnergy(e *sched.Evaluator) *sched.Allocation {
	n := e.NumTasks()
	a := sched.NewAllocation(n)
	tasks := e.Trace().Tasks
	for i := 0; i < n; i++ {
		best, bestE := -1, 0.0
		for _, m := range e.Eligible(tasks[i].Type) {
			if c := e.EECInstance(tasks[i].Type, m); best == -1 || c < bestE {
				best, bestE = m, c
			}
		}
		a.Machine[i] = int32(best)
	}
	return a
}

// BuildMaxUtility maps tasks in arrival order to the machine that yields
// the highest utility given current machine queues (§V-B2), breaking ties
// toward earlier completion. There is no optimality guarantee.
func BuildMaxUtility(e *sched.Evaluator) *sched.Allocation {
	n := e.NumTasks()
	a := sched.NewAllocation(n)
	tasks := e.Trace().Tasks
	ready := make([]float64, e.NumMachines())
	for i := 0; i < n; i++ {
		task := &tasks[i]
		best, bestU, bestC := -1, 0.0, 0.0
		for _, m := range e.Eligible(task.Type) {
			start := ready[m]
			if task.Arrival > start {
				start = task.Arrival
			}
			completion := start + e.ETCInstance(task.Type, m)
			u := task.TUF.Value(completion - task.Arrival)
			if best == -1 || u > bestU || (u == bestU && completion < bestC) {
				best, bestU, bestC = m, u, completion
			}
		}
		a.Machine[i] = int32(best)
		ready[best] = bestC
	}
	return a
}

// BuildMaxUtilityPerEnergy maps tasks in arrival order to the machine
// maximizing utility earned per unit of energy consumed (§V-B3), breaking
// ties toward lower energy.
func BuildMaxUtilityPerEnergy(e *sched.Evaluator) *sched.Allocation {
	n := e.NumTasks()
	a := sched.NewAllocation(n)
	tasks := e.Trace().Tasks
	ready := make([]float64, e.NumMachines())
	for i := 0; i < n; i++ {
		task := &tasks[i]
		best := -1
		bestRatio, bestEnergy, bestC := 0.0, 0.0, 0.0
		for _, m := range e.Eligible(task.Type) {
			start := ready[m]
			if task.Arrival > start {
				start = task.Arrival
			}
			completion := start + e.ETCInstance(task.Type, m)
			u := task.TUF.Value(completion - task.Arrival)
			en := e.EECInstance(task.Type, m)
			ratio := u / en
			if best == -1 || ratio > bestRatio || (ratio == bestRatio && en < bestEnergy) {
				best, bestRatio, bestEnergy, bestC = m, ratio, en, completion
			}
		}
		a.Machine[i] = int32(best)
		ready[best] = bestC
	}
	return a
}

// BuildMinMin runs the two-stage Min-Min completion time heuristic
// (§V-B4). Stage one finds, for every unmapped task, the machine
// minimizing that task's completion time; stage two maps the task-machine
// pair with the overall minimum completion time (lowest task index on
// ties), then repeats. The global scheduling order records the mapping
// sequence, so machines execute tasks in the order Min-Min chose them.
//
// Only each task type's head, its lowest-index unmapped task, can win
// stage two. Traces are sorted by arrival, so for tasks i < j of one type
// a_i <= a_j, and on every machine max(ready, a_i) + etc <= max(ready,
// a_j) + etc because IEEE addition is monotone: i's best completion is
// never later than j's, and the index tie-break prefers i. Each step
// therefore runs stage one on the heads alone, for O(n·types·machines)
// in total rather than the naive O(n²·machines), with the same result.
func BuildMinMin(e *sched.Evaluator) *sched.Allocation {
	n := e.NumTasks()
	a := sched.NewAllocation(n)
	tasks := e.Trace().Tasks
	ready := make([]float64, e.NumMachines())
	// byType[t] lists type t's task indices in ascending order; head[t]
	// is the cursor to its earliest unmapped task.
	byType := make([][]int, e.System().NumTaskTypes())
	for i := range tasks {
		byType[tasks[i].Type] = append(byType[tasks[i].Type], i)
	}
	head := make([]int, len(byType))

	for step := 0; step < n; step++ {
		pick, pickType, pickM, pickC := -1, -1, -1, 0.0
		for t, idx := range byType {
			if head[t] == len(idx) {
				continue
			}
			i := idx[head[t]]
			// Stage one for the head.
			bestM, bestC := -1, 0.0
			for _, m := range e.Eligible(t) {
				start := ready[m]
				if tasks[i].Arrival > start {
					start = tasks[i].Arrival
				}
				c := start + e.ETCInstance(t, m)
				if bestM == -1 || c < bestC {
					bestM, bestC = m, c
				}
			}
			// Stage two: heads are visited by type, not by index.
			if pick == -1 || bestC < pickC || (bestC == pickC && i < pick) {
				pick, pickType, pickM, pickC = i, t, bestM, bestC
			}
		}
		a.Machine[pick] = int32(pickM)
		a.Order[pick] = int32(step)
		ready[pickM] = pickC
		head[pickType]++
	}
	return a
}
