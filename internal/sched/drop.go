package sched

// Task dropping — the paper's second future-work item: tasks that will
// generate negligible utility when they complete need not execute at
// all. Dropping such a task saves its full EEC and can only help the
// tasks queued behind it on the same machine (their start times move
// earlier, and TUFs are monotonically decreasing, so their utility can
// only rise).

// DropNegligible returns a copy of the allocation in which every task
// whose earned utility would be at most minUtility is dropped, iterating
// until a fixed point (dropping a task can change the completion times —
// and hence utilities — of its queue successors). The evaluator's
// AllowDropping flag is enabled as a side effect. The returned
// evaluation describes the final allocation.
//
// Invariants (guaranteed by monotone TUFs): total energy never
// increases, and total utility never decreases by more than
// droppedTasks × minUtility.
func DropNegligible(e *Evaluator, a *Allocation, minUtility float64) (*Allocation, Evaluation) {
	e.AllowDropping = true
	out := a.Clone()
	r := e.getReplay()
	defer e.replays.Put(r)
	d, c := r.session(e)
	tasks := e.trace.Tasks
	for {
		times, _ := d.CompletionTimes(out, c)
		changed := false
		for i, ct := range times {
			if out.Machine[i] == Dropped || ct < 0 {
				continue
			}
			if u := tasks[i].TUF.Value(ct - tasks[i].Arrival); u <= minUtility {
				out.Machine[i] = Dropped
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return out, d.EvaluateFull(out, c)
}
