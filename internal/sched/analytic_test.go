package sched

import (
	"fmt"
	"slices"
	"testing"

	"tradeoff/internal/hcs"
	"tradeoff/internal/rng"
	"tradeoff/internal/utility"
	"tradeoff/internal/workload"
)

// analyticCase is a homogeneous instance with a closed-form schedule: n
// identical machines each run k identical tasks of execution time etc
// at power epc, drawing idle power w. Task j of every machine arrives at
// a + j·(etc+g), so each machine idles a before its first task and g
// between tasks, and no task waits.
type analyticCase struct {
	n, k              int
	etc, epc, w, a, g float64
}

// instance builds the case's evaluator: task j·n+i is slot j's i-th
// task, every task sharing one step TUF worth prio until long after
// etc.
func (c analyticCase) instance(t *testing.T, prio float64) *Evaluator {
	t.Helper()
	b := hcs.NewBuilder()
	mt := b.MachineType("m", hcs.GeneralPurpose, c.n)
	tt := b.TaskType("t", hcs.GeneralPurpose)
	b.Set(tt, mt, c.etc, c.epc)
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tuf := utility.StepDeadline(prio, 1024*c.etc)
	tr := &workload.Trace{Window: c.a + float64(c.k)*(c.etc+c.g)}
	for j := 0; j < c.k; j++ {
		for i := 0; i < c.n; i++ {
			tr.Tasks = append(tr.Tasks, workload.Task{
				ID: len(tr.Tasks), Type: tt, Arrival: c.a + float64(j)*(c.etc+c.g), TUF: tuf,
			})
		}
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetIdlePower([]float64{c.w}); err != nil {
		t.Fatal(err)
	}
	return e
}

// allocation places one task of every slot on each machine, so each
// machine's queue is in arrival order. With permute, each slot's tasks
// go to the machines in a random order; with interleave, the global
// order interleaves the machines' queues at random.
func (c analyticCase) allocation(src *rng.Source, permute, interleave bool) *Allocation {
	a := NewAllocation(c.n * c.k)
	for j := 0; j < c.k; j++ {
		for i := 0; i < c.n; i++ {
			a.Machine[j*c.n+i] = int32(i)
		}
		if permute {
			for i, m := range src.Perm(c.n) {
				a.Machine[j*c.n+i] = int32(m)
			}
		}
	}
	if !interleave {
		return a
	}
	// A random interleaving of the machines' queues: shuffle the order
	// values, then hand each machine's values back out in ascending
	// order along its tasks, which are in arrival order.
	src.PermInto32(a.Order)
	byMachine := make([][]int32, c.n)
	for task, m := range a.Machine {
		byMachine[m] = append(byMachine[m], a.Order[task])
	}
	for _, q := range byMachine {
		slices.Sort(q)
	}
	next := make([]int, c.n)
	for task, m := range a.Machine {
		a.Order[task] = byMachine[m][next[m]]
		next[m]++
	}
	return a
}

// TestAnalyticHomogeneousSchedule holds the kernel to closed forms on
// homogeneous instances: n identical machines, k identical tasks each,
// idle power on. Each machine runs its k tasks for k·ETC and idles
// a + (k−1)·g, so the makespan is a + k·ETC + (k−1)·g, Loghin's
// time_amdahl at f = 0 (n·k·ETC of work over n machines) shifted by the
// offset and the gaps, and the energy is k·n·EEC + n·w·(a + (k−1)·g),
// his energy_homogeneous at f = 0 with the idle draw. Every time and
// power is a small dyadic number, so both equalities are exact. The
// queues are also permuted: which machine takes which of a slot's
// tasks, and how the machines' queues interleave in the global order,
// change nothing.
func TestAnalyticHomogeneousSchedule(t *testing.T) {
	const prio = 4
	src := rng.New(7)
	for _, c := range []analyticCase{
		{n: 1, k: 1, etc: 4, epc: 2, w: 1, a: 0, g: 0},
		{n: 1, k: 5, etc: 0.25, epc: 8, w: 2, a: 0.5, g: 2},
		{n: 3, k: 1, etc: 2, epc: 16, w: 0.5, a: 8, g: 1},
		{n: 4, k: 7, etc: 0.5, epc: 4, w: 1, a: 2, g: 0.25},
		{n: 8, k: 16, etc: 1, epc: 32, w: 4, a: 16, g: 0},
		{n: 16, k: 9, etc: 8, epc: 0.5, w: 0.125, a: 1, g: 4},
	} {
		t.Run(fmt.Sprintf("n%d_k%d", c.n, c.k), func(t *testing.T) {
			e := c.instance(t, prio)
			n, k := float64(c.n), float64(c.k)
			wantMakespan := c.a + k*c.etc + (k-1)*c.g
			wantEnergy := k*n*(c.etc*c.epc) + n*c.w*(c.a+(k-1)*c.g)
			wantUtility := n * k * prio
			allocs := map[string]*Allocation{
				"identity":            c.allocation(src, false, false),
				"interleaved":         c.allocation(src, false, true),
				"permuted":            c.allocation(src, true, false),
				"permuted-interleave": c.allocation(src, true, true),
			}
			d := e.NewDeltaSession()
			dst := e.NewContribs()
			for name, a := range allocs {
				if err := e.Validate(a); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for path, ev := range map[string]Evaluation{
					"Evaluate":     e.Evaluate(a),
					"EvaluateFull": d.EvaluateFull(a, dst),
				} {
					if ev.Makespan != wantMakespan || ev.Energy != wantEnergy ||
						ev.Utility != wantUtility || ev.Completed != c.n*c.k {
						t.Fatalf("%s %s: makespan %v energy %v utility %v completed %d, want %v, %v, %v, %d",
							name, path, ev.Makespan, ev.Energy, ev.Utility, ev.Completed,
							wantMakespan, wantEnergy, wantUtility, c.n*c.k)
					}
				}
			}
		})
	}
}
