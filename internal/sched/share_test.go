package sched

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"tradeoff/internal/hcs"
	"tradeoff/internal/rng"
	"tradeoff/internal/utility"
	"tradeoff/internal/workload"
)

// unshared returns a copy of tr in which every task has a function of
// its own.
func unshared(tr *workload.Trace) *workload.Trace {
	c := &workload.Trace{Window: tr.Window, Tasks: slices.Clone(tr.Tasks)}
	for i := range c.Tasks {
		c.Tasks[i].TUF = c.Tasks[i].TUF.Clone()
	}
	return c
}

// distinctTUFs counts a trace's distinct TUF pointers.
func distinctTUFs(tr *workload.Trace) int {
	seen := make(map[*utility.Function]bool)
	for _, task := range tr.Tasks {
		seen[task.TUF] = true
	}
	return len(seen)
}

// earliestFinish assigns every task, in arrival order, to its eligible
// machine that completes it first, and runs each machine's tasks in
// arrival order. Its completions fall inside the TUFs' windows far more
// often than a random allocation's, whose long queues finish nearly
// every task past its tail guard.
func earliestFinish(e *Evaluator) *Allocation {
	a := NewAllocation(e.NumTasks())
	ready := make([]float64, e.NumMachines())
	for i, task := range e.Trace().Tasks {
		best, bestDone := -1, math.Inf(1)
		for _, m := range e.Eligible(task.Type) {
			if done := math.Max(ready[m], task.Arrival) + e.ETCInstance(task.Type, m); done < bestDone {
				best, bestDone = m, done
			}
		}
		a.Machine[i] = int32(best)
		ready[best] = bestDone
	}
	return a
}

// requireShareInvisible holds an evaluator over tr, whose tasks may
// share functions, to one over its unshared copy: it must compile one
// function per distinct TUF pointer (the copy one per task), and the
// earliest-finish allocation and random ones (a tenth of their tasks
// dropped when drops is set) must give bit-identical EvaluateFull and
// CompletionTimes results and contribution rows on both. It returns how
// many completions of tasks whose function another task shares each
// utility tier resolved (index 1–4, see recordUtility).
func requireShareInvisible(t *testing.T, sys *hcs.System, tr *workload.Trace, drops bool, seed uint64) (tiers [5]int) {
	t.Helper()
	es, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	eu, err := NewEvaluator(sys, unshared(tr))
	if err != nil {
		t.Fatal(err)
	}
	if n := distinctTUFs(tr); es.tufs.Len() != n || len(es.funcs) != n {
		t.Fatalf("shared trace: %d table entries and %d function records for %d distinct TUFs", es.tufs.Len(), len(es.funcs), n)
	}
	if n := tr.NumTasks(); eu.tufs.Len() != n || len(eu.funcs) != n {
		t.Fatalf("unshared copy: %d table entries and %d function records for %d tasks", eu.tufs.Len(), len(eu.funcs), n)
	}
	carriers := make([]int, len(es.funcs))
	for _, mt := range es.meta {
		carriers[mt.fn]++
	}
	es.AllowDropping, eu.AllowDropping = drops, drops
	ds, du := es.NewDeltaSession(), eu.NewDeltaSession()
	cs, cu := es.NewContribs(), eu.NewContribs()
	src := rng.New(seed)
	allocs := []*Allocation{earliestFinish(es)}
	for k := 0; k < 8; k++ {
		a := es.RandomAllocation(src)
		for i := 0; drops && i < a.Len(); i++ {
			if src.Bool(0.1) {
				a.Machine[i] = Dropped
			}
		}
		allocs = append(allocs, a)
	}
	same := func(a, b Evaluation) bool {
		return math.Float64bits(a.Utility) == math.Float64bits(b.Utility) &&
			math.Float64bits(a.Energy) == math.Float64bits(b.Energy) &&
			math.Float64bits(a.Makespan) == math.Float64bits(b.Makespan) &&
			a.Completed == b.Completed
	}
	for k, a := range allocs {
		evS, evU := ds.EvaluateFull(a, cs), du.EvaluateFull(a, cu)
		if !same(evS, evU) || !cs.Equal(cu) {
			t.Fatalf("allocation %d: EvaluateFull shared %+v, unshared %+v (rows equal: %v)", k, evS, evU, cs.Equal(cu))
		}
		ts, evS := ds.CompletionTimes(a, cs)
		tu, evU := du.CompletionTimes(a, cu)
		if !same(evS, evU) || !cs.Equal(cu) {
			t.Fatalf("allocation %d: CompletionTimes shared %+v, unshared %+v (rows equal: %v)", k, evS, evU, cs.Equal(cu))
		}
		for i := range ts {
			if math.Float64bits(ts[i]) != math.Float64bits(tu[i]) {
				t.Fatalf("allocation %d task %d: completion shared %v, unshared %v", k, i, ts[i], tu[i])
			}
			if mt := &es.meta[i]; ts[i] >= 0 && carriers[mt.fn] > 1 {
				_, tier := recordUtility(es, i, ts[i]-mt.arrival)
				tiers[tier]++
			}
		}
	}
	return tiers
}

// TestSharedTUFsMatchUnshared runs the sharing oracle on the kernel
// tests' random and degenerate TUFs, with a third to all but one of the
// tasks carrying an earlier task's function. The random functions
// include Exponential and four-segment ones, so tier 4 reaches
// Table.Value through a shared function's index.
func TestSharedTUFsMatchUnshared(t *testing.T) {
	var hit [5]bool
	for _, cfg := range []struct {
		n               int
		degFrac, shared float64
		drops           bool
	}{
		{30, 0, 0.3, false},
		{30, 1, 0.5, false}, // all degenerate
		{120, 0.3, 0.5, true},
		{400, 0.2, 0.9, false},
		{400, 0.5, 1, true}, // every task on the first task's function
	} {
		sys, tr := kernelTrace(t, cfg.n, uint64(7000+cfg.n), cfg.degFrac, cfg.shared)
		tiers := requireShareInvisible(t, sys, tr, cfg.drops, uint64(17+cfg.n))
		t.Logf("%+v: completions of shared functions by tier %v", cfg, tiers[1:])
		for k := 1; k < 5; k++ {
			hit[k] = hit[k] || tiers[k] > 0
		}
	}
	if !hit[1] || !hit[2] || !hit[3] || !hit[4] {
		t.Fatalf("tiers reached by shared functions %v, want all four", hit[1:])
	}
}

// TestTaskRecordBytes pins the per-task kernel record at 32 bytes, two
// to a cache line; the per-function values live in funcMeta.
func TestTaskRecordBytes(t *testing.T) {
	if got := unsafe.Sizeof(taskMeta{}); got != 32 {
		t.Fatalf("taskMeta is %d bytes, want 32", got)
	}
}
