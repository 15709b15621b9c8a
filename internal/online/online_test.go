package online

import (
	"math"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/workload"
)

func newEval(t testing.TB, n int, window float64) *sched.Evaluator {
	t.Helper()
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: window}, rng.New(111))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sched.NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSimulateAllPoliciesValid(t *testing.T) {
	e := newEval(t, 150, 900)
	policies := []Policy{
		GreedyUtility{},
		GreedyEnergy{},
		GreedyUPE{},
		Budgeted{Budget: 5e6, Window: 900},
	}
	for _, p := range policies {
		res, err := Simulate(e, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Evaluation.Completed+res.Dropped != e.NumTasks() {
			t.Fatalf("%s: completed %d + dropped %d != %d", p.Name(), res.Evaluation.Completed, res.Dropped, e.NumTasks())
		}
	}
}

func TestSimulateMatchesOfflineReplay(t *testing.T) {
	// Replaying the realized allocation offline must reproduce the
	// online evaluation exactly, idle energy included: dispatch order
	// equals arrival order, so the offline simulator with identity order
	// agrees.
	e := newEval(t, 120, 600)
	idle := make([]float64, e.System().NumMachineTypes())
	for i := range idle {
		idle[i] = 50
	}
	for _, watts := range [][]float64{nil, idle} {
		if err := e.SetIdlePower(watts); err != nil {
			t.Fatal(err)
		}
		for _, p := range []Policy{GreedyUtility{}, GreedyEnergy{}, GreedyUPE{}} {
			res, err := Simulate(e, p)
			if err != nil {
				t.Fatal(err)
			}
			if off := e.Evaluate(res.Allocation); off != res.Evaluation {
				t.Fatalf("%s, idle power %v: offline replay %+v != online %+v", p.Name(), watts != nil, off, res.Evaluation)
			}
		}
	}
}

func TestGreedyEnergyMatchesOfflineMinEnergy(t *testing.T) {
	// Energy is order-independent, so the online min-energy policy must
	// attain exactly the offline Min Energy seed's energy.
	e := newEval(t, 150, 900)
	res, err := Simulate(e, GreedyEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	want := e.Evaluate(heuristics.BuildMinEnergy(e)).Energy
	if math.Abs(res.Evaluation.Energy-want) > 1e-9 {
		t.Fatalf("online min-energy %v != offline %v", res.Evaluation.Energy, want)
	}
}

func TestGreedyUtilityMatchesOfflineMaxUtilitySeed(t *testing.T) {
	// The online greedy-utility policy makes the same decisions as the
	// offline Max Utility seed (both walk tasks in arrival order with
	// the same tie-breaks).
	e := newEval(t, 150, 900)
	res, err := Simulate(e, GreedyUtility{})
	if err != nil {
		t.Fatal(err)
	}
	seed := heuristics.BuildMaxUtility(e)
	for i := range seed.Machine {
		if seed.Machine[i] != res.Allocation.Machine[i] {
			t.Fatalf("task %d: online chose %d, offline seed %d", i, res.Allocation.Machine[i], seed.Machine[i])
		}
	}
}

func TestBudgetedRespectsBudget(t *testing.T) {
	e := newEval(t, 200, 300)
	// Tight budget: half of what greedy utility spends.
	full, err := Simulate(e, GreedyUtility{})
	if err != nil {
		t.Fatal(err)
	}
	budget := full.Evaluation.Energy / 2
	res, err := Simulate(e, Budgeted{Budget: budget, Window: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluation.Energy > budget+1e-9 {
		t.Fatalf("budgeted policy spent %v > budget %v", res.Evaluation.Energy, budget)
	}
	if res.Dropped == 0 {
		t.Fatal("tight budget should force drops")
	}
}

func TestBudgetedBeatsMinEnergyOnUtilityGivenHeadroom(t *testing.T) {
	// With a budget well above the minimum, the budgeted policy should
	// earn more utility than pure min-energy placement.
	e := newEval(t, 150, 900)
	minE, err := Simulate(e, GreedyEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(e, Budgeted{Budget: minE.Evaluation.Energy * 1.5, Window: 900})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Evaluation.Utility > minE.Evaluation.Utility) {
		t.Fatalf("budgeted utility %v not above min-energy %v",
			res.Evaluation.Utility, minE.Evaluation.Utility)
	}
}

func TestBudgetedDropZeroUtility(t *testing.T) {
	// Overloaded instance: with DropZeroUtility the policy must never
	// execute a task that earns nothing.
	e := newEval(t, 250, 60)
	res, err := Simulate(e, Budgeted{Budget: 1e12, Window: 60, DropZeroUtility: true})
	if err != nil {
		t.Fatal(err)
	}
	times, _ := e.NewSession().CompletionTimes(res.Allocation)
	tasks := e.Trace().Tasks
	for i, ct := range times {
		if ct < 0 {
			continue
		}
		if u := tasks[i].TUF.Value(ct - tasks[i].Arrival); u <= 0 {
			t.Fatalf("task %d executed for zero utility", i)
		}
	}
	if res.Dropped == 0 {
		t.Fatal("overloaded instance should drop zero-utility tasks")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Policy{GreedyUtility{}, GreedyEnergy{}, GreedyUPE{}, Budgeted{}} {
		if p.Name() == "" {
			t.Fatal("empty policy name")
		}
		if names[p.Name()] {
			t.Fatalf("duplicate policy name %s", p.Name())
		}
		names[p.Name()] = true
	}
}

type badPolicy struct{}

func (badPolicy) Name() string               { return "bad" }
func (badPolicy) Place(int, *State) Decision { return Decision{Machine: 9999} }

func TestSimulateRejectsBadPolicy(t *testing.T) {
	e := newEval(t, 10, 100)
	if _, err := Simulate(e, badPolicy{}); err == nil {
		t.Fatal("out-of-range placement accepted")
	}
}

func BenchmarkSimulateGreedyUtility250(b *testing.B) {
	e := newEval(b, 250, 900)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(e, GreedyUtility{}); err != nil {
			b.Fatal(err)
		}
	}
}
