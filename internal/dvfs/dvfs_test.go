package dvfs

import (
	"math"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/moea"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/workload"
)

func newDVFS(t testing.TB, n int) (*Evaluator, *sched.Evaluator) {
	t.Helper()
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: 900}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	base, err := sched.NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(base, DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	return e, base
}

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{},
		{States: []PState{{Freq: 0}}, Alpha: 3},
		{States: []PState{{Freq: 1}}, Alpha: 0.5},
		{States: []PState{{Freq: 1}}, Alpha: 3, StaticFrac: 1},
		{States: []PState{{Freq: 1}}, Alpha: 3, StaticFrac: -0.1},
		{States: []PState{{Freq: 1}}, Alpha: math.NaN()},
		{States: []PState{{Freq: 1}}, Alpha: math.Inf(1)},
		{States: []PState{{Freq: 1}}, Alpha: 3, StaticFrac: math.NaN()},
		{States: []PState{{Freq: math.Inf(1)}}, Alpha: 3},
		{States: []PState{{Freq: math.NaN()}}, Alpha: 3},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
	if err := DefaultProfile().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScalesMonotone(t *testing.T) {
	p := DefaultProfile()
	// Lower frequency: slower (timeScale up) but cheaper per task
	// (EnergyScale down) as long as static power is modest.
	for i := 1; i < len(p.States); i++ {
		if !(p.timeScale(i) > p.timeScale(i-1)) {
			t.Fatalf("timeScale not increasing at state %d", i)
		}
		if !(p.EnergyScale(i) < p.EnergyScale(i-1)) {
			t.Fatalf("EnergyScale not decreasing at state %d", i)
		}
	}
	// Full speed is the identity.
	if p.timeScale(0) != 1 || math.Abs(p.EnergyScale(0)-1) > 1e-12 {
		t.Fatal("P0 should be the identity scale")
	}
}

// TestEvaluateFullSpeedMatchesBase: with every task at P0 the DVFS
// evaluation is the base evaluation, bit for bit, with the idle-energy
// extension both off and on.
func TestEvaluateFullSpeedMatchesBase(t *testing.T) {
	e, base := newDVFS(t, 500)
	a := base.RandomAllocation(rng.New(1))
	ps := make([]int, a.Len()) // all P0
	idle := make([]float64, base.System().NumMachineTypes())
	for i := range idle {
		idle[i] = 50
	}
	for _, watts := range [][]float64{nil, idle} {
		if err := base.SetIdlePower(watts); err != nil {
			t.Fatal(err)
		}
		if got, want := e.Evaluate(a, ps), base.Evaluate(a); got != want {
			t.Fatalf("idle power %v: P0 evaluation %+v, base %+v", watts != nil, got, want)
		}
	}
}

// walkEvaluate is the reference for TestEvaluateMatchesWalk, a plain
// task-major walk independent of the sched kernel: it simulates the
// allocation in global order, scaling each task's ETC and EEC by its
// P-state's factors, sums per machine in queue order, then over
// machines in index order, and charges the base evaluator's idle power.
func walkEvaluate(e *Evaluator, a *sched.Allocation, pstates []int) sched.Evaluation {
	base := e.Base()
	n, nm := base.NumTasks(), base.NumMachines()
	seq := make([]int, n)
	for i := 0; i < n; i++ {
		seq[a.Order[i]] = i
	}
	ready := make([]float64, nm)
	busy := make([]float64, nm)
	util := make([]float64, nm)
	energy := make([]float64, nm)
	done := make([]int, nm)
	tasks := base.Trace().Tasks
	for _, ti := range seq {
		m := a.Machine[ti]
		if m == sched.Dropped {
			continue
		}
		task := &tasks[ti]
		ps := pstates[ti]
		start := ready[m]
		if task.Arrival > start {
			start = task.Arrival
		}
		exec := base.ETCInstance(task.Type, int(m)) * e.profile.timeScale(ps)
		completion := start + exec
		ready[m] = completion
		busy[m] += exec
		util[m] += task.TUF.Value(completion - task.Arrival)
		energy[m] += base.EECInstance(task.Type, int(m)) * e.profile.EnergyScale(ps)
		done[m]++
	}
	var ev sched.Evaluation
	for m := 0; m < nm; m++ {
		ev.Utility += util[m]
		ev.Energy += energy[m]
		if ready[m] > ev.Makespan {
			ev.Makespan = ready[m]
		}
		ev.Completed += done[m]
	}
	ev.Energy += base.IdleEnergy(ready, busy)
	return ev
}

// requireMatchesWalk holds Evaluate to walkEvaluate with == on every
// allocation, at trials random per-task P-states each drawn from src,
// with the base evaluator's idle power off and then on. It leaves idle
// power off.
func requireMatchesWalk(t *testing.T, e *Evaluator, allocs []*sched.Allocation, trials int, src *rng.Source) {
	t.Helper()
	base := e.Base()
	idle := make([]float64, base.System().NumMachineTypes())
	for i := range idle {
		idle[i] = 20 + 7*float64(i)
	}
	defer base.SetIdlePower(nil)
	for _, watts := range [][]float64{nil, idle} {
		if err := base.SetIdlePower(watts); err != nil {
			t.Fatal(err)
		}
		for k, a := range allocs {
			ps := make([]int, a.Len())
			for trial := 0; trial < trials; trial++ {
				for i := range ps {
					ps[i] = src.Intn(e.NumStates())
				}
				if got, want := e.Evaluate(a, ps), walkEvaluate(e, a, ps); got != want {
					t.Fatalf("idle power %v, allocation %d, trial %d: kernel %+v, walk %+v", watts != nil, k, trial, got, want)
				}
			}
		}
	}
}

// TestEvaluateMatchesWalk holds the kernel evaluation of P-states as
// virtual task types to the task-major walk, bit for bit, on random
// allocations (some with dropped tasks) at random per-task P-states,
// and OptimizeWeighted's result, whose trials each move one task's
// state, to the walk at the states it returns. Data set 3's
// special-purpose machines are covered by the external test.
func TestEvaluateMatchesWalk(t *testing.T) {
	e, base := newDVFS(t, 800)
	src := rng.New(6)
	var allocs []*sched.Allocation
	for k := 0; k < 10; k++ {
		a := base.RandomAllocation(src)
		if k%2 == 1 {
			for d := 0; d < 40; d++ {
				a.Machine[src.Intn(a.Len())] = sched.Dropped
			}
		}
		allocs = append(allocs, a)
	}
	requireMatchesWalk(t, e, allocs, 20, src)

	a := heuristics.BuildMaxUtility(base)
	for _, lambda := range []float64{1e-5, 1e-4} {
		ps, ev := e.OptimizeWeighted(a, lambda, 2)
		if want := walkEvaluate(e, a, ps); ev != want {
			t.Fatalf("λ=%v: OptimizeWeighted %+v, walk at its states %+v", lambda, ev, want)
		}
	}
}

// TestDVFSEvaluateAllocs: a warm Evaluate runs on the evaluator's own
// session and allocates nothing. Unlike the pooled sched replays it
// draws no scratch from a sync.Pool, so the count repeats under -race
// and the test runs there too.
func TestDVFSEvaluateAllocs(t *testing.T) {
	e, base := newDVFS(t, 250)
	a := base.RandomAllocation(rng.New(7))
	ps := make([]int, a.Len())
	for i := range ps {
		ps[i] = i % e.NumStates()
	}
	if n := testing.AllocsPerRun(20, func() { e.Evaluate(a, ps) }); n != 0 {
		t.Fatalf("warm Evaluate allocates %v times, want 0", n)
	}
}

func TestThrottlingSavesEnergyCostsUtility(t *testing.T) {
	e, base := newDVFS(t, 120)
	a := heuristics.BuildMaxUtility(base)
	sweep := e.SweepUniform(a)
	for i := 1; i < len(sweep); i++ {
		if !(sweep[i].Energy < sweep[i-1].Energy) {
			t.Fatalf("state %d did not reduce energy: %v -> %v", i, sweep[i-1].Energy, sweep[i].Energy)
		}
		if sweep[i].Utility > sweep[i-1].Utility+1e-9 {
			t.Fatalf("state %d increased utility while throttling", i)
		}
		if !(sweep[i].Makespan >= sweep[i-1].Makespan) {
			t.Fatalf("state %d shrank makespan while throttling", i)
		}
	}
}

func TestValidate(t *testing.T) {
	e, base := newDVFS(t, 20)
	a := base.RandomAllocation(rng.New(2))
	good := make([]int, a.Len())
	if err := e.Validate(a, good); err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(a, good[:5]); err == nil {
		t.Error("short p-state slice accepted")
	}
	bad := make([]int, a.Len())
	bad[3] = 99
	if err := e.Validate(a, bad); err == nil {
		t.Error("out-of-range p-state accepted")
	}
	badAlloc := a.Clone()
	badAlloc.Machine[0] = 999
	if err := e.Validate(badAlloc, good); err == nil {
		t.Error("invalid base allocation accepted")
	}
}

func TestOptimizeWeightedExtremes(t *testing.T) {
	e, base := newDVFS(t, 60)
	a := heuristics.BuildMaxUtility(base)
	// λ = 0: pure utility, should stay at (or match) full speed.
	psU, evU := e.OptimizeWeighted(a, 0, 3)
	full := e.Evaluate(a, make([]int, a.Len()))
	if evU.Utility < full.Utility-1e-9 {
		t.Fatalf("λ=0 optimization lost utility: %v < %v", evU.Utility, full.Utility)
	}
	// Huge λ: energy dominates; every task should throttle to the
	// cheapest state.
	psE, evE := e.OptimizeWeighted(a, 1e9, 5)
	last := e.NumStates() - 1
	for i, s := range psE {
		if s != last {
			t.Fatalf("task %d at state %d under energy-dominant λ, want %d", i, s, last)
		}
	}
	if !(evE.Energy < evU.Energy) {
		t.Fatal("energy-dominant optimization did not save energy")
	}
	if err := e.Validate(a, psU); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeWeightedNeverWorseThanScore(t *testing.T) {
	e, base := newDVFS(t, 40)
	a := base.RandomAllocation(rng.New(3))
	for _, lambda := range []float64{0, 1e-5, 1e-4, 1e-3} {
		_, ev := e.OptimizeWeighted(a, lambda, 3)
		start := e.Evaluate(a, make([]int, a.Len()))
		if ev.Utility-lambda*ev.Energy < start.Utility-lambda*start.Energy-1e-9 {
			t.Fatalf("λ=%v optimization worsened the scalarized objective", lambda)
		}
	}
}

func TestExtendFrontProducesTradeoffs(t *testing.T) {
	e, base := newDVFS(t, 60)
	a := heuristics.BuildMaxUtility(base)
	evs := e.ExtendFront(a, []float64{0, 1e-5, 1e-4, 1e-3, 1e-2}, 2)
	if len(evs) < 2 {
		t.Fatalf("front has %d points, want >= 2", len(evs))
	}
	// Sorted by energy and energy strictly increases with utility
	// (dedup guarantees distinct objective pairs).
	sp := moea.UtilityEnergySpace()
	for i := 1; i < len(evs); i++ {
		if evs[i].Energy < evs[i-1].Energy {
			t.Fatal("ExtendFront output not energy-sorted")
		}
	}
	// At least one pair must be mutually nondominated (a real trade-off).
	tradeoff := false
	for i := range evs {
		for j := i + 1; j < len(evs); j++ {
			pi := []float64{evs[i].Utility, evs[i].Energy}
			pj := []float64{evs[j].Utility, evs[j].Energy}
			if sp.Incomparable(pi, pj) {
				tradeoff = true
			}
		}
	}
	if !tradeoff {
		t.Fatal("ExtendFront produced no mutually nondominated pair")
	}
}

func TestDroppedTasksSkippedInDVFS(t *testing.T) {
	e, base := newDVFS(t, 20)
	base.AllowDropping = true
	a := base.RandomAllocation(rng.New(4))
	a.Machine[5] = sched.Dropped
	ps := make([]int, a.Len())
	ev := e.Evaluate(a, ps)
	if ev.Completed != a.Len()-1 {
		t.Fatalf("Completed = %d, want %d", ev.Completed, a.Len()-1)
	}
}

func BenchmarkDVFSEvaluate250(b *testing.B) {
	e, base := newDVFS(b, 250)
	a := base.RandomAllocation(rng.New(5))
	ps := make([]int, a.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Evaluate(a, ps)
	}
}

func BenchmarkOptimizeWeighted100(b *testing.B) {
	e, base := newDVFS(b, 100)
	a := heuristics.BuildMaxUtility(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = e.OptimizeWeighted(a, 1e-4, 1)
	}
}
