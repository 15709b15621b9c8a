package sched

import (
	"math"
	"slices"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/rng"
	"tradeoff/internal/workload"
)

// deltaEval builds an evaluator over the real system with n tasks.
func deltaEval(t testing.TB, n int, seed uint64) *Evaluator {
	t.Helper()
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: 600}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func evaluationsClose(a, b Evaluation) bool {
	near := func(x, y float64) bool {
		diff := math.Abs(x - y)
		scale := math.Max(math.Abs(x), math.Abs(y))
		return diff <= 1e-9 || diff <= 1e-12*scale
	}
	return near(a.Utility, b.Utility) && near(a.Energy, b.Energy) &&
		near(a.Makespan, b.Makespan) && a.Completed == b.Completed
}

// TestEvaluateFullMatchesSession cross-checks the machine-major kernel
// against the task-major Session sweep. The two sum the same per-task
// terms in different orders, so they agree to rounding, not bitwise.
func TestEvaluateFullMatchesSession(t *testing.T) {
	for _, cfg := range []struct {
		n        int
		idle     bool
		dropping bool
	}{
		{40, false, false}, {40, true, false}, {40, false, true}, {40, true, true},
		{250, false, false}, {250, true, true},
	} {
		e := deltaEval(t, cfg.n, uint64(1000+cfg.n))
		if cfg.idle {
			watts := make([]float64, e.System().NumMachineTypes())
			for i := range watts {
				watts[i] = 5 + float64(i)
			}
			if err := e.SetIdlePower(watts); err != nil {
				t.Fatal(err)
			}
		}
		e.AllowDropping = cfg.dropping
		sess := e.NewSession()
		ds := e.NewDeltaSession()
		contribs := e.NewContribs()
		src := rng.New(uint64(7 + cfg.n))
		for trial := 0; trial < 25; trial++ {
			a := e.RandomAllocation(src)
			if cfg.dropping {
				for i := 0; i < a.Len(); i++ {
					if src.Bool(0.2) {
						a.Machine[i] = Dropped
					}
				}
			}
			want := sess.Evaluate(a)
			got := ds.EvaluateFull(a, contribs)
			if !evaluationsClose(got, want) {
				t.Fatalf("n=%d idle=%v drop=%v trial %d: full %+v vs session %+v",
					cfg.n, cfg.idle, cfg.dropping, trial, got, want)
			}
		}
	}
}

// mutateAlloc applies the engine's mutation operator semantics and
// returns the dirtied machines: reassign one gene to a random eligible
// machine (or drop it), and swap two genes' global orders.
func mutateAlloc(e *Evaluator, a *Allocation, src *rng.Source, dirty []bool, allowDrop bool) {
	n := a.Len()
	g := src.Intn(n)
	if old := a.Machine[g]; old >= 0 {
		dirty[old] = true
	}
	if allowDrop && src.Bool(0.3) {
		a.Machine[g] = Dropped
	} else {
		el := e.Eligible(int(e.taskType[g]))
		a.Machine[g] = int32(el[src.Intn(len(el))])
		dirty[a.Machine[g]] = true
	}
	x, y := src.Intn(n), src.Intn(n)
	a.Order[x], a.Order[y] = a.Order[y], a.Order[x]
	if m := a.Machine[x]; m >= 0 {
		dirty[m] = true
	}
	if m := a.Machine[y]; m >= 0 {
		dirty[m] = true
	}
}

// crossAlloc applies the engine's segment-swap crossover with re-rank
// repair to two allocations in place, marking the candidate-dirty
// machines of both children (the same set: every machine present in the
// swapped segment of either side).
func crossAlloc(a, b *Allocation, src *rng.Source, dirty []bool) {
	n := a.Len()
	i, j := src.Intn(n), src.Intn(n)
	if i > j {
		i, j = j, i
	}
	for k := i; k <= j; k++ {
		a.Machine[k], b.Machine[k] = b.Machine[k], a.Machine[k]
		a.Order[k], b.Order[k] = b.Order[k], a.Order[k]
		if m := a.Machine[k]; m >= 0 {
			dirty[m] = true
		}
		if m := b.Machine[k]; m >= 0 {
			dirty[m] = true
		}
	}
	repairRerank(a.Order)
	repairRerank(b.Order)
}

// repairRerank mirrors the engine's re-rank repair: rank genes by
// (order value, gene index).
func repairRerank(ord []int32) {
	n := len(ord)
	keys := make([]int, n)
	for i, v := range ord {
		keys[i] = int(v)*n + i
	}
	slices.Sort(keys)
	for pos, key := range keys {
		ord[key%n] = int32(pos)
	}
}

// runDeltaSequence drives a random variation sequence, checking after
// every step that EvaluateDelta against the previous step's cache is
// bit-identical to EvaluateFull.
func runDeltaSequence(t *testing.T, e *Evaluator, seed uint64, steps int, allowDrop bool) {
	t.Helper()
	e.AllowDropping = e.AllowDropping || allowDrop
	src := rng.New(seed)
	ds := e.NewDeltaSession()
	nm := e.NumMachines()

	cur := e.RandomAllocation(src)
	other := e.RandomAllocation(src)
	parent := e.NewContribs()
	child := e.NewContribs()
	full := e.NewContribs()
	ds.EvaluateFull(cur, parent)
	dirty := make([]bool, nm)

	for s := 0; s < steps; s++ {
		for m := range dirty {
			dirty[m] = false
		}
		// Alternate crossover-style and mutation-style edits, sometimes
		// both, mirroring the engine's variation pipeline.
		next := cur.Clone()
		if src.Bool(0.6) {
			crossAlloc(next, other, src, dirty)
		}
		if src.Bool(0.5) {
			mutateAlloc(e, next, src, dirty, allowDrop)
		}
		got := ds.EvaluateDelta(next, parent, child)
		want := ds.EvaluateFull(next, full)
		if got != want {
			t.Fatalf("step %d: delta %+v != full %+v (dirty %v)", s, got, want, dirty)
		}
		for m := 0; m < nm; m++ {
			if child.Utility[m] != full.Utility[m] || child.Energy[m] != full.Energy[m] ||
				child.Busy[m] != full.Busy[m] || child.Ready[m] != full.Ready[m] ||
				child.Done[m] != full.Done[m] {
				t.Fatalf("step %d machine %d: delta row diverged from full", s, m)
			}
		}
		cur, other = next, cur
		parent, child = child, parent
	}
}

// TestEvaluateDeltaBitIdenticalToFull is the core incremental-evaluation
// property: over random crossover/mutation sequences, with idle power
// and dropping both on and off, the delta path must reproduce the full
// machine-major evaluation bit for bit.
func TestEvaluateDeltaBitIdenticalToFull(t *testing.T) {
	for _, n := range []int{1, 7, 60, 250} {
		for _, idle := range []bool{false, true} {
			for _, drop := range []bool{false, true} {
				e := deltaEval(t, n, uint64(40+n))
				if idle {
					watts := make([]float64, e.System().NumMachineTypes())
					for i := range watts {
						watts[i] = 2 * float64(i+1)
					}
					if err := e.SetIdlePower(watts); err != nil {
						t.Fatal(err)
					}
				}
				runDeltaSequence(t, e, uint64(n)*31+7, 40, drop)
			}
		}
	}
}

// TestEvaluateDeltaFallsBackWithoutParent checks the structural
// fallbacks: an invalid or aliased parent cache must route to a full
// evaluation rather than inherit garbage.
func TestEvaluateDeltaFallsBackWithoutParent(t *testing.T) {
	e := deltaEval(t, 30, 9)
	ds := e.NewDeltaSession()
	src := rng.New(11)
	a := e.RandomAllocation(src)

	dst := e.NewContribs()
	want := ds.EvaluateFull(a, e.NewContribs())
	if got := ds.EvaluateDelta(a, nil, dst); got != want {
		t.Fatalf("nil parent: %+v != %+v", got, want)
	}
	stale := e.NewContribs()
	stale.Invalidate()
	if got := ds.EvaluateDelta(a, stale, dst); got != want {
		t.Fatalf("invalid parent: %+v != %+v", got, want)
	}
	// Self-aliased parent/dst must not read rows it is overwriting.
	self := e.NewContribs()
	ds.EvaluateFull(a, self)
	b := a.Clone()
	mutateAlloc(e, b, src, make([]bool, e.NumMachines()), false)
	if got, wantB := ds.EvaluateDelta(b, self, self), ds.EvaluateFull(b, e.NewContribs()); got != wantB {
		t.Fatalf("aliased dst: %+v != %+v", got, wantB)
	}
}

// FuzzEvaluateDelta drives arbitrary-seeded variation sequences through
// the delta-vs-full cross-check.
func FuzzEvaluateDelta(f *testing.F) {
	f.Add(uint64(1), uint8(20), false, false)
	f.Add(uint64(99), uint8(60), true, true)
	f.Add(uint64(3), uint8(1), true, false)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, idle, drop bool) {
		n := 1 + int(nRaw)%120
		e := deltaEval(t, n, seed|1)
		if idle {
			watts := make([]float64, e.System().NumMachineTypes())
			for i := range watts {
				watts[i] = float64(i%7) + 0.5
			}
			if err := e.SetIdlePower(watts); err != nil {
				t.Fatal(err)
			}
		}
		runDeltaSequence(t, e, seed^0x9e3779b97f4a7c15, 12, drop)
	})
}
