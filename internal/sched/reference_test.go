package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/rng"
	"tradeoff/internal/workload"
)

// referenceEvaluate is an independent, deliberately naive implementation
// of the schedule semantics, used as a differential-testing oracle for
// Session.Evaluate: build each machine's queue explicitly, sort it by
// global order, and walk it accumulating start/completion times.
func referenceEvaluate(e *Evaluator, a *Allocation) Evaluation {
	type queued struct {
		task  int
		order int
	}
	queues := make(map[int][]queued)
	for i := 0; i < a.Len(); i++ {
		m := int(a.Machine[i])
		if m == Dropped {
			continue
		}
		queues[m] = append(queues[m], queued{task: i, order: int(a.Order[i])})
	}
	var ev Evaluation
	tasks := e.Trace().Tasks
	// Accumulate in ascending machine order so the float sums are
	// reproducible; map iteration order would reassociate them.
	machines := make([]int, 0, len(queues))
	for m := range queues {
		machines = append(machines, m)
	}
	sort.Ints(machines)
	for _, m := range machines {
		q := queues[m]
		sort.Slice(q, func(x, y int) bool { return q[x].order < q[y].order })
		clock := 0.0
		for _, item := range q {
			task := tasks[item.task]
			start := math.Max(clock, task.Arrival)
			completion := start + e.ETCInstance(task.Type, m)
			clock = completion
			ev.Utility += task.TUF.Value(completion - task.Arrival)
			ev.Energy += e.EECInstance(task.Type, m)
			ev.Makespan = math.Max(ev.Makespan, completion)
			ev.Completed++
		}
	}
	return ev
}

// taskMajorEvaluate is the task-major schedule walk, kept as a second
// reference beside the per-machine simMachine: it visits tasks in
// global order, advances each task's machine, and adds every task's
// utility and energy straight into the totals. It returns each task's
// completion time (-1 when dropped) and the evaluation, idle energy
// included. The kernel sums per machine first, so the totals agree
// with it only to rounding; completion times do not depend on the
// summation order and agree bit for bit.
func taskMajorEvaluate(e *Evaluator, a *Allocation) ([]float64, Evaluation) {
	n := e.NumTasks()
	seq := make([]int, n)
	for i := 0; i < n; i++ {
		seq[a.Order[i]] = i
	}
	times := make([]float64, n)
	ready := make([]float64, e.NumMachines())
	busy := make([]float64, e.NumMachines())
	tasks := e.Trace().Tasks
	var ev Evaluation
	for _, ti := range seq {
		m := int(a.Machine[ti])
		if m == Dropped {
			times[ti] = -1
			continue
		}
		task := &tasks[ti]
		start := ready[m]
		if task.Arrival > start {
			start = task.Arrival // machine idles until the task arrives
		}
		etc := e.ETCInstance(task.Type, m)
		completion := start + etc
		ready[m] = completion
		busy[m] += etc
		times[ti] = completion
		ev.Utility += task.TUF.Value(completion - task.Arrival)
		ev.Energy += e.EECInstance(task.Type, m)
		if completion > ev.Makespan {
			ev.Makespan = completion
		}
		ev.Completed++
	}
	ev.Energy += e.IdleEnergy(ready, busy)
	return times, ev
}

// TestReplayPathsBitIdentical holds every public replay of an
// allocation to the engine's EvaluateFull, bit for bit: the Evaluator's
// and a Session's Evaluate, the evaluation CompletionTimes returns, and
// DropNegligible with a threshold below every utility; Report's rows
// must be EvaluateFull's contribution rows. Completion times — from
// CompletionTimes and as Gantt row ends — must equal the task-major
// reference's exactly. Random TUF shapes, with and without drops, with
// idle power off and on.
func TestReplayPathsBitIdentical(t *testing.T) {
	for _, cfg := range []struct {
		n           int
		drops, idle bool
	}{
		{40, false, false}, {40, true, false}, {40, false, true}, {40, true, true},
		{250, false, false}, {250, true, true},
	} {
		e := kernelEval(t, cfg.n, uint64(5000+cfg.n), 0.2)
		if cfg.idle {
			watts := make([]float64, e.System().NumMachineTypes())
			for i := range watts {
				watts[i] = 50
			}
			if err := e.SetIdlePower(watts); err != nil {
				t.Fatal(err)
			}
		}
		e.AllowDropping = cfg.drops
		ds := e.NewDeltaSession()
		sess := e.NewSession()
		c := e.NewContribs()
		src := rng.New(uint64(61 + cfg.n))
		for trial := 0; trial < 15; trial++ {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("n=%d drops=%v idle=%v trial %d: %s", cfg.n, cfg.drops, cfg.idle, trial, fmt.Sprintf(format, args...))
			}
			a := e.RandomAllocation(src)
			if cfg.drops {
				for i := 0; i < a.Len(); i++ {
					if src.Bool(0.1) {
						a.Machine[i] = Dropped
					}
				}
			}
			want := ds.EvaluateFull(a, c)
			if got := e.Evaluate(a); got != want {
				fail("Evaluator.Evaluate %+v, EvaluateFull %+v", got, want)
			}
			if got := sess.Evaluate(a); got != want {
				fail("Session.Evaluate %+v, EvaluateFull %+v", got, want)
			}
			times, got := sess.CompletionTimes(a)
			if got != want {
				fail("CompletionTimes evaluation %+v, EvaluateFull %+v", got, want)
			}
			kept, got := DropNegligible(e, a, -1)
			if got != want || !slices.Equal(kept.Machine, a.Machine) {
				fail("DropNegligible below every utility %+v, EvaluateFull %+v", got, want)
			}
			e.AllowDropping = cfg.drops // DropNegligible turned it on

			reports, err := e.Report(a)
			if err != nil {
				t.Fatal(err)
			}
			for m, r := range reports {
				if r.Tasks != int(c.Done[m]) || r.BusySeconds != c.Busy[m] || r.SpanSeconds != c.Ready[m] ||
					r.EnergyJoules != c.Energy[m] || r.Utility != c.Utility[m] {
					fail("machine %d report %+v differs from its contribution row", m, r)
				}
			}

			refTimes, _ := taskMajorEvaluate(e, a)
			for i := range refTimes {
				if times[i] != refTimes[i] {
					fail("task %d completes at %v, reference %v", i, times[i], refTimes[i])
				}
			}
			rows, err := e.Gantt(a)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != want.Completed {
				fail("%d Gantt rows for %d executed tasks", len(rows), want.Completed)
			}
			for _, r := range rows {
				if r.End != refTimes[r.Task] {
					fail("Gantt row of task %d ends at %v, reference %v", r.Task, r.End, refTimes[r.Task])
				}
			}
		}
	}
}

func TestEvaluateAgainstReferenceImplementation(t *testing.T) {
	sys := data.RealSystem()
	for _, n := range []int{1, 2, 10, 80, 250} {
		tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: 600}, rng.New(uint64(100+n)))
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluator(sys, tr)
		if err != nil {
			t.Fatal(err)
		}
		sess := e.NewSession()
		src := rng.New(uint64(200 + n))
		for trial := 0; trial < 30; trial++ {
			a := e.RandomAllocation(src)
			got := sess.Evaluate(a)
			want := referenceEvaluate(e, a)
			if math.Abs(got.Utility-want.Utility) > 1e-9 ||
				math.Abs(got.Energy-want.Energy) > 1e-9 ||
				math.Abs(got.Makespan-want.Makespan) > 1e-9 ||
				got.Completed != want.Completed {
				t.Fatalf("n=%d trial %d: fast %+v vs reference %+v", n, trial, got, want)
			}
		}
	}
}

func TestEvaluateAgainstReferenceWithDrops(t *testing.T) {
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 60, Window: 300}, rng.New(301))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	e.AllowDropping = true
	sess := e.NewSession()
	src := rng.New(302)
	for trial := 0; trial < 20; trial++ {
		a := e.RandomAllocation(src)
		for i := 0; i < a.Len(); i++ {
			if src.Bool(0.3) {
				a.Machine[i] = Dropped
			}
		}
		got := sess.Evaluate(a)
		want := referenceEvaluate(e, a)
		if math.Abs(got.Utility-want.Utility) > 1e-9 || math.Abs(got.Energy-want.Energy) > 1e-9 ||
			got.Completed != want.Completed {
			t.Fatalf("trial %d: fast %+v vs reference %+v", trial, got, want)
		}
	}
}

func TestEvaluateAgainstReferenceOnEnlargedSystem(t *testing.T) {
	// The special-purpose machine paths (Incapable entries) must agree
	// too; use a capability-respecting random allocation.
	sys := data.RealSystem()
	// Build a minimal special-purpose system by hand to avoid importing
	// datagen (cycle-free but heavier); reuse the tiny system style.
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 150, Window: 900, Arrival: workload.PoissonArrivals}, rng.New(303))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	src := rng.New(304)
	for trial := 0; trial < 20; trial++ {
		a := e.RandomAllocation(src)
		got := sess.Evaluate(a)
		want := referenceEvaluate(e, a)
		if math.Abs(got.Utility-want.Utility) > 1e-9 || math.Abs(got.Energy-want.Energy) > 1e-9 {
			t.Fatalf("trial %d mismatch", trial)
		}
	}
}
