package heuristics_test

import (
	"fmt"
	"sort"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/experiments"
	"tradeoff/internal/hcs"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/workload"
)

// tieSystem has no general-purpose machine: task type 0 runs only on
// machine 0, and task types 1 and 2 run on three instances of one
// machine type with the same integral ETC, so completion times tie
// exactly across machines and across types.
func tieSystem(t testing.TB) *hcs.System {
	t.Helper()
	inf := hcs.Incapable
	etc, err := hcs.MatrixFromRows([][]float64{{4, inf}, {inf, 3}, {inf, 3}})
	if err != nil {
		t.Fatal(err)
	}
	epc, err := hcs.MatrixFromRows([][]float64{{50, inf}, {inf, 80}, {inf, 80}})
	if err != nil {
		t.Fatal(err)
	}
	sys := &hcs.System{
		MachineTypes: []hcs.MachineType{{Name: "acc-a", Category: hcs.SpecialPurpose}, {Name: "acc-b", Category: hcs.SpecialPurpose}},
		TaskTypes:    []hcs.TaskType{{Name: "only-a"}, {Name: "b1"}, {Name: "b2"}},
		ETC:          etc,
		EPC:          epc,
		Machines:     []hcs.Machine{{ID: 0, Type: 0}, {ID: 1, Type: 1}, {ID: 2, Type: 1}, {ID: 3, Type: 1}},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// syntheticEval builds an evaluator over the given nondecreasing
// arrivals with task types drawn uniformly from src.
func syntheticEval(t testing.TB, sys *hcs.System, arrivals []float64, src *rng.Source) *sched.Evaluator {
	t.Helper()
	window := arrivals[len(arrivals)-1] + 1
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: len(arrivals), Window: window}, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Tasks {
		tr.Tasks[i].Arrival = arrivals[i]
		tr.Tasks[i].Type = src.Intn(sys.NumTaskTypes())
	}
	e, err := sched.NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// assertMatchesNaive requires BuildMinMin to equal the naive two-stage
// Min-Min slot for slot, machines and scheduling order alike.
func assertMatchesNaive(t *testing.T, e *sched.Evaluator) {
	t.Helper()
	got, want := heuristics.BuildMinMin(e), heuristics.NaiveMinMin(e)
	for i := range want.Machine {
		if got.Machine[i] != want.Machine[i] || got.Order[i] != want.Order[i] {
			t.Fatalf("task %d: BuildMinMin gives (machine %d, order %d), naive two-stage (machine %d, order %d)",
				i, got.Machine[i], got.Order[i], want.Machine[i], want.Order[i])
		}
	}
}

func TestTwoStageMinFirstMatchesMinMin(t *testing.T) {
	for n := 1; n <= 3; n++ {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("dataset%d/seed%d", n, seed), func(t *testing.T) {
				ds, err := experiments.ByNumber(n, seed)
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesNaive(t, ds.Evaluator)
			})
		}
	}
	grouped := func(n, group int, gap float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i/group) * gap
		}
		return out
	}
	shared, realSys := tieSystem(t), data.RealSystem()
	cases := []struct {
		name     string
		sys      *hcs.System
		arrivals []float64
	}{
		{"burst-at-zero/shared-machines", shared, make([]float64, 60)},
		{"duplicate-arrivals/shared-machines", shared, grouped(80, 5, 2)},
		{"burst-at-zero/real", realSys, make([]float64, 60)},
		{"duplicate-arrivals/real", realSys, grouped(80, 4, 30)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			assertMatchesNaive(t, syntheticEval(t, c.sys, c.arrivals, rng.New(5)))
		})
	}
}

// FuzzMinMinMatchesTwoStage checks BuildMinMin against the naive
// two-stage Min-Min on small random traces whose arrivals sit on a
// coarse grid, so equal arrivals and equal completion times are common.
// grid 0 puts every task at t=0.
func FuzzMinMinMatchesTwoStage(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(0), true)
	f.Add(uint64(2), uint8(63), uint8(3), true)
	f.Add(uint64(3), uint8(50), uint8(7), false)
	f.Add(uint64(4), uint8(0), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, tasks, grid uint8, shared bool) {
		src := rng.New(seed)
		arrivals := make([]float64, 1+int(tasks)%80)
		for i := range arrivals {
			arrivals[i] = float64(src.Intn(int(grid)%8+1)) * 7.5
		}
		sort.Float64s(arrivals)
		sys := data.RealSystem()
		if shared {
			sys = tieSystem(t)
		}
		assertMatchesNaive(t, syntheticEval(t, sys, arrivals, src))
	})
}
