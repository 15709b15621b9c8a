package sched

import (
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/hcs"
	"tradeoff/internal/rng"
	"tradeoff/internal/utility"
	"tradeoff/internal/workload"
)

// randomTUF draws a randomized but valid time-utility function: 1-4
// segments of random shape with non-increasing fractions and a tail not
// above the last segment's end.
func randomTUF(t *testing.T, src *rng.Source) *utility.Function {
	t.Helper()
	nseg := 1 + src.Intn(4)
	segs := make([]utility.Segment, 0, nseg)
	prevEnd := 1.0
	for i := 0; i < nseg; i++ {
		start := prevEnd * (0.2 + 0.8*src.Float64())
		end := start * (0.2 + 0.8*src.Float64())
		shape := utility.Shape(src.Intn(3))
		if shape == utility.Constant {
			end = start
		}
		segs = append(segs, utility.Segment{
			Duration:  1 + 200*src.Float64(),
			StartFrac: start,
			EndFrac:   end,
			Shape:     shape,
		})
		prevEnd = end
	}
	tail := prevEnd * src.Float64()
	f, err := utility.New(1+99*src.Float64(), tail, segs...)
	if err != nil {
		t.Fatalf("random TUF invalid: %v", err)
	}
	return f
}

// degenerateTUF draws one of two edge shapes: a single-segment step
// function, which the kernel resolves without Table.Value everywhere
// but the rounding margin past its end, or a zero-penalty function that
// earns full priority no matter when the task completes.
func degenerateTUF(t *testing.T, src *rng.Source) *utility.Function {
	t.Helper()
	var f *utility.Function
	var err error
	if src.Bool(0.5) {
		// Single segment, zero tail: a hard-deadline step.
		f, err = utility.New(1+9*src.Float64(), 0,
			utility.Segment{Duration: 1 + 50*src.Float64(), StartFrac: 1, EndFrac: 1, Shape: utility.Constant})
	} else {
		// Zero penalty: constant at priority forever (tail = 1).
		f, err = utility.New(1+9*src.Float64(), 1,
			utility.Segment{Duration: 1 + 50*src.Float64(), StartFrac: 1, EndFrac: 1, Shape: utility.Constant})
	}
	if err != nil {
		t.Fatalf("degenerate TUF invalid: %v", err)
	}
	return f
}

// kernelTrace returns the real system and an n-task trace whose TUFs
// are replaced by randomized shapes; degenerateFrac of the tasks
// receive a degenerate (single-segment or zero-penalty) function, and
// sharedFrac of them, instead of a function of their own, the function
// of a uniformly drawn earlier task.
func kernelTrace(t *testing.T, n int, seed uint64, degenerateFrac, sharedFrac float64) (*hcs.System, *workload.Trace) {
	t.Helper()
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: 600}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed ^ 0x9e3779b97f4a7c15)
	for i := range tr.Tasks {
		switch {
		case sharedFrac > 0 && i > 0 && src.Bool(sharedFrac):
			tr.Tasks[i].TUF = tr.Tasks[src.Intn(i)].TUF
		case src.Bool(degenerateFrac):
			tr.Tasks[i].TUF = degenerateTUF(t, src)
		default:
			tr.Tasks[i].TUF = randomTUF(t, src)
		}
	}
	return sys, tr
}

// kernelEval builds an evaluator over kernelTrace's system and trace,
// every task with a function of its own.
func kernelEval(t *testing.T, n int, seed uint64, degenerateFrac float64) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(kernelTrace(t, n, seed, degenerateFrac, 0))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// simMachine simulates machine m's task sequence and records its
// contribution row in dst: the plain per-task loop, kept here as the
// reference the production kernel (simMachineTyped's serial typedCont
// walk) must match bit for bit. It reads nothing the kernel reads:
// arrival and type come from the trace, execution time and energy from
// ETCInstance/EECInstance, and utility from the uncompiled Task.TUF, so
// a wrongly built task record or TUF table cannot pass by being wrong
// in both places.
func (d *DeltaSession) simMachine(m int, tasks []int32, dst *Contribs) {
	e := d.e
	trTasks := e.Trace().Tasks
	var ready, busy, util, energy float64
	for _, ti := range tasks {
		task := &trTasks[ti]
		start := ready
		if task.Arrival > start {
			start = task.Arrival // machine idles until the task arrives
		}
		etc := e.ETCInstance(task.Type, m)
		completion := start + etc
		ready = completion
		busy += etc
		util += task.TUF.Value(completion - task.Arrival)
		energy += e.EECInstance(task.Type, m)
	}
	dst.Utility[m] = util
	dst.Energy[m] = energy
	dst.Busy[m] = busy
	dst.Ready[m] = ready
	dst.Done[m] = int32(len(tasks))
}

// scalarEvaluateFull is EvaluateFull with every needed machine run
// through the reference loop instead of the production kernel.
func scalarEvaluateFull(d *DeltaSession, a *Allocation, dst *Contribs) Evaluation {
	ScatterSlots(a, d.slots, d.counts)
	d.Prepare(d.slots, d.counts, nil, nil, dst, d.plan)
	for k, m := range d.plan.Need {
		d.simMachine(int(m), d.plan.NeedSeq(k), dst)
	}
	return d.Finish(dst, d.plan)
}

// contribsEqual reports whether two contribution sets are bitwise equal
// on every machine row.
func contribsEqual(a, b *Contribs) bool {
	for m := range a.Utility {
		if a.Utility[m] != b.Utility[m] || a.Energy[m] != b.Energy[m] ||
			a.Busy[m] != b.Busy[m] || a.Ready[m] != b.Ready[m] ||
			a.Done[m] != b.Done[m] || a.FP[m] != b.FP[m] {
			return false
		}
	}
	return true
}

// TestKernelsBitIdentical holds the production kernel to the per-task
// reference loop: on randomized TUF shapes (including degenerate
// single-segment and zero-penalty functions), random allocations — with
// and without drops — must produce bitwise-equal evaluations and
// per-machine contribution rows through EvaluateFull (every tier of the
// serial typedCont walk) and through the reference.
func TestKernelsBitIdentical(t *testing.T) {
	for _, cfg := range []struct {
		n       int
		degFrac float64
		drops   bool
	}{
		{30, 0, false},
		{30, 1, false}, // all degenerate
		{120, 0.3, false},
		{120, 0.3, true},
		{400, 0.5, true},
	} {
		e := kernelEval(t, cfg.n, uint64(9000+cfg.n), cfg.degFrac)
		e.AllowDropping = cfg.drops
		typed := e.NewDeltaSession()
		scalar := e.NewDeltaSession()
		ct, cs := e.NewContribs(), e.NewContribs()
		src := rng.New(uint64(31 + cfg.n))
		for trial := 0; trial < 20; trial++ {
			a := e.RandomAllocation(src)
			if cfg.drops {
				for i := 0; i < a.Len(); i++ {
					if src.Bool(0.15) {
						a.Machine[i] = Dropped
					}
				}
			}
			evT := typed.EvaluateFull(a, ct)
			evS := scalarEvaluateFull(scalar, a, cs)
			if evT != evS {
				t.Fatalf("n=%d deg=%v drops=%v trial %d: typed %+v vs scalar %+v",
					cfg.n, cfg.degFrac, cfg.drops, trial, evT, evS)
			}
			if !contribsEqual(ct, cs) {
				t.Fatalf("n=%d deg=%v drops=%v trial %d: contribution rows differ",
					cfg.n, cfg.degFrac, cfg.drops, trial)
			}
		}
	}
}
