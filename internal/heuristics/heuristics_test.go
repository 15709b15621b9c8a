package heuristics

import (
	"math"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/workload"
)

func newEval(t testing.TB, n int) *sched.Evaluator {
	t.Helper()
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: 900}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sched.NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAllHeuristicsProduceValidAllocations(t *testing.T) {
	e := newEval(t, 120)
	for _, h := range All {
		a, err := h.Build(e)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if err := e.Validate(a); err != nil {
			t.Fatalf("%v produced invalid allocation: %v", h, err)
		}
	}
}

func TestUnknownHeuristicErrors(t *testing.T) {
	e := newEval(t, 5)
	if _, err := Heuristic(99).Build(e); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestMinEnergyAttainsMinimumEnergy(t *testing.T) {
	e := newEval(t, 150)
	a := BuildMinEnergy(e)
	got := e.Evaluate(a).Energy
	// Brute-force lower bound: sum over tasks of min EEC across eligible
	// machines (energy is separable and order-independent).
	var want float64
	for _, task := range e.Trace().Tasks {
		best := math.Inf(1)
		for _, m := range e.Eligible(task.Type) {
			if c := e.EECInstance(task.Type, m); c < best {
				best = c
			}
		}
		want += best
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("MinEnergy energy = %v, lower bound %v", got, want)
	}
	// No random allocation should beat it.
	src := rng.New(7)
	for i := 0; i < 50; i++ {
		r := e.RandomAllocation(src)
		if e.Evaluate(r).Energy < got-1e-9 {
			t.Fatal("random allocation consumed less energy than MinEnergy")
		}
	}
}

func TestMaxUtilityBeatsRandomOnUtility(t *testing.T) {
	e := newEval(t, 150)
	a := BuildMaxUtility(e)
	got := e.Evaluate(a).Utility
	src := rng.New(8)
	beaten := 0
	for i := 0; i < 50; i++ {
		r := e.RandomAllocation(src)
		if e.Evaluate(r).Utility > got {
			beaten++
		}
	}
	// Greedy has no optimality guarantee, but should beat essentially
	// every random allocation on utility.
	if beaten > 2 {
		t.Fatalf("MaxUtility beaten by %d/50 random allocations", beaten)
	}
}

func TestHeuristicsAreDeterministic(t *testing.T) {
	e := newEval(t, 80)
	for _, h := range All {
		a1, err := h.Build(e)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := h.Build(e)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a1.Machine {
			if a1.Machine[i] != a2.Machine[i] || a1.Order[i] != a2.Order[i] {
				t.Fatalf("%v not deterministic at task %d", h, i)
			}
		}
	}
}

func TestHeuristicsCoverDistinctTradeoffs(t *testing.T) {
	// The point of seeding: MinEnergy should consume less energy than
	// MaxUtility's solution, and MaxUtility should earn more utility than
	// MinEnergy's solution.
	e := newEval(t, 200)
	me := e.Evaluate(BuildMinEnergy(e))
	mu := e.Evaluate(BuildMaxUtility(e))
	if !(me.Energy < mu.Energy) {
		t.Fatalf("MinEnergy energy %v not below MaxUtility energy %v", me.Energy, mu.Energy)
	}
	if !(mu.Utility > me.Utility) {
		t.Fatalf("MaxUtility utility %v not above MinEnergy utility %v", mu.Utility, me.Utility)
	}
}

func TestMaxUtilityPerEnergyBetweenExtremes(t *testing.T) {
	e := newEval(t, 200)
	me := e.Evaluate(BuildMinEnergy(e))
	mu := e.Evaluate(BuildMaxUtility(e))
	upe := e.Evaluate(BuildMaxUtilityPerEnergy(e))
	// Its utility/energy ratio should be at least as good as both
	// extremes' ratios (it greedily optimizes exactly that).
	r := func(ev sched.Evaluation) float64 { return ev.Utility / ev.Energy }
	if r(upe) < r(me)*0.95 || r(upe) < r(mu)*0.95 {
		t.Fatalf("UPE ratio %v worse than extremes (%v, %v)", r(upe), r(me), r(mu))
	}
}

func TestMinMinMinimizesCompletionGreedily(t *testing.T) {
	e := newEval(t, 150)
	a := BuildMinMin(e)
	ev := e.Evaluate(a)
	// Min-Min targets completion time; its makespan should beat random
	// allocations' makespans essentially always.
	src := rng.New(9)
	worse := 0
	for i := 0; i < 50; i++ {
		r := e.RandomAllocation(src)
		if e.Evaluate(r).Makespan < ev.Makespan {
			worse++
		}
	}
	if worse > 2 {
		t.Fatalf("MinMin makespan beaten by %d/50 random allocations", worse)
	}
}

func TestMinMinOrderMatchesMappingSequence(t *testing.T) {
	e := newEval(t, 60)
	a := BuildMinMin(e)
	// Order must be a permutation (validated) and the earliest-mapped
	// task should be one whose arrival+ETC is minimal across the trace.
	if err := e.Validate(a); err != nil {
		t.Fatal(err)
	}
	first := -1
	for i, o := range a.Order {
		if o == 0 {
			first = i
			break
		}
	}
	if first == -1 {
		t.Fatal("no task mapped first")
	}
	task := e.Trace().Tasks[first]
	got := task.Arrival + e.ETCInstance(task.Type, int(a.Machine[first]))
	for _, other := range e.Trace().Tasks {
		for _, m := range e.Eligible(other.Type) {
			c := other.Arrival + e.ETCInstance(other.Type, m)
			if c < got-1e-9 {
				t.Fatalf("task %d could complete at %v before first-mapped %v", other.ID, c, got)
			}
		}
	}
}

func TestHeuristicString(t *testing.T) {
	want := map[Heuristic]string{
		MinEnergy:           "min-energy",
		MaxUtility:          "max-utility",
		MaxUtilityPerEnergy: "max-utility-per-energy",
		MinMin:              "min-min",
	}
	if len(want) != len(All) {
		t.Fatalf("want table covers %d heuristics, All has %d", len(want), len(All))
	}
	for _, h := range All {
		if h.String() != want[h] {
			t.Errorf("%d.String() = %q, want %q", int(h), h.String(), want[h])
		}
	}
	if Heuristic(42).String() == "" {
		t.Error("unknown heuristic empty string")
	}
}

func BenchmarkMinEnergy250(b *testing.B) { benchHeuristic(b, MinEnergy, 250) }
func BenchmarkMaxUtility250(b *testing.B) {
	benchHeuristic(b, MaxUtility, 250)
}
func BenchmarkMinMin250(b *testing.B)   { benchHeuristic(b, MinMin, 250) }
func BenchmarkMinMin1000(b *testing.B)  { benchHeuristic(b, MinMin, 1000) }
func BenchmarkMinMin10000(b *testing.B) { benchHeuristic(b, MinMin, 10000) }

func benchHeuristic(b *testing.B, h Heuristic, n int) {
	e := newEval(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Build(e); err != nil {
			b.Fatal(err)
		}
	}
}
