package heuristics

import (
	"math"
	"testing"

	"tradeoff/internal/rng"
)

func TestAllBaselinesProduceValidAllocations(t *testing.T) {
	e := newEval(t, 120)
	for _, b := range Baselines {
		a := b.Build(e)
		if err := e.Validate(a); err != nil {
			t.Fatalf("%v produced invalid allocation: %v", b, err)
		}
	}
}

func TestBaselinesDeterministic(t *testing.T) {
	e := newEval(t, 80)
	for _, b := range Baselines {
		a1, a2 := b.Build(e), b.Build(e)
		for i := range a1.Machine {
			if a1.Machine[i] != a2.Machine[i] || a1.Order[i] != a2.Order[i] {
				t.Fatalf("%v not deterministic", b)
			}
		}
	}
}

func TestMETMatchesPerTaskMinimumETC(t *testing.T) {
	e := newEval(t, 100)
	a := MET.Build(e)
	for i, task := range e.Trace().Tasks {
		best := math.Inf(1)
		for _, m := range e.Eligible(task.Type) {
			if c := e.ETCInstance(task.Type, m); c < best {
				best = c
			}
		}
		if got := e.ETCInstance(task.Type, int(a.Machine[i])); got != best {
			t.Fatalf("task %d: MET chose ETC %v, min is %v", i, got, best)
		}
	}
}

func TestMCTBeatsOLBOnMakespanUsually(t *testing.T) {
	// MCT considers execution time, OLB does not; on heterogeneous
	// machines MCT should not lose on makespan.
	e := newEval(t, 200)
	mct := e.Evaluate(MCT.Build(e))
	olb := e.Evaluate(OLB.Build(e))
	if mct.Makespan > olb.Makespan*1.05 {
		t.Fatalf("MCT makespan %v much worse than OLB %v", mct.Makespan, olb.Makespan)
	}
}

func TestMinMinVsMaxMinOrdering(t *testing.T) {
	// Max-Min maps long tasks first. Both must remain valid and produce
	// different mappings on a heterogeneous instance.
	e := newEval(t, 150)
	minmin := BuildMinMin(e)
	maxmin := MaxMin.Build(e)
	same := 0
	for i := range minmin.Machine {
		if minmin.Machine[i] == maxmin.Machine[i] {
			same++
		}
	}
	if same == len(minmin.Machine) {
		t.Fatal("Min-Min and Max-Min produced identical mappings")
	}
}

func TestSufferagePrioritizesConstrainedTasks(t *testing.T) {
	e := newEval(t, 120)
	a := Sufferage.Build(e)
	if err := e.Validate(a); err != nil {
		t.Fatal(err)
	}
	ev := e.Evaluate(a)
	// Sufferage targets completion time: it should beat random
	// allocations on makespan essentially always.
	src := rng.New(17)
	worse := 0
	for i := 0; i < 30; i++ {
		if e.Evaluate(e.RandomAllocation(src)).Makespan < ev.Makespan {
			worse++
		}
	}
	if worse > 2 {
		t.Fatalf("Sufferage beaten on makespan by %d/30 random allocations", worse)
	}
}

func TestBaselineStrings(t *testing.T) {
	want := map[Baseline]string{
		OLB: "olb", MCT: "mct", MET: "met", MaxMin: "max-min", Sufferage: "sufferage",
	}
	if len(want) != len(Baselines) {
		t.Fatalf("want table covers %d baselines, Baselines has %d", len(want), len(Baselines))
	}
	for _, b := range Baselines {
		if b.String() != want[b] {
			t.Errorf("%d.String() = %q", int(b), b.String())
		}
	}
	if Baseline(99).String() != "baseline-unknown" {
		t.Error("unknown baseline string wrong")
	}
}

func TestBaselinesLieWithinNSGA2ObjectiveSpace(t *testing.T) {
	// Sanity: every baseline's energy is at least the provable minimum
	// (Min-Energy) and its utility at most the trace's upper bound.
	e := newEval(t, 150)
	minEnergy := e.Evaluate(BuildMinEnergy(e)).Energy
	maxU := e.Trace().MaxUtility()
	for _, b := range Baselines {
		ev := e.Evaluate(b.Build(e))
		if ev.Energy < minEnergy-1e-6 {
			t.Fatalf("%v consumed %v J, below the provable minimum %v", b, ev.Energy, minEnergy)
		}
		if ev.Utility > maxU+1e-6 {
			t.Fatalf("%v earned %v utility, above the upper bound %v", b, ev.Utility, maxU)
		}
	}
}

func BenchmarkSufferage250(b *testing.B) {
	e := newEval(b, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Sufferage.Build(e)
	}
}

func BenchmarkMaxMin250(b *testing.B) {
	e := newEval(b, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MaxMin.Build(e)
	}
}
