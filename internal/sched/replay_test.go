package sched

import (
	"slices"
	"sync"
	"testing"

	"tradeoff/internal/rng"
)

// TestPooledReplaysCarryNoState runs the pooled replays from four
// goroutines at once on one evaluator (run it under -race). Each
// goroutine mixes Validate, Evaluate, Report and Gantt over the same
// allocations, in its own rotation, so every call draws scratch another
// call just left: random allocations, ones with dropped tasks, and one
// invalid allocation with a duplicate order. Each result must equal what
// fresh scratch computes bit for bit — a fresh Session for Evaluate, a
// fresh evaluator with an empty pool for Report, Gantt and Validate —
// and the invalid allocation must return the same error right after a
// valid call.
func TestPooledReplaysCarryNoState(t *testing.T) {
	e := kernelEval(t, 250, 7100, 0.2)
	e.AllowDropping = true
	watts := make([]float64, e.System().NumMachineTypes())
	for i := range watts {
		watts[i] = 50
	}
	if err := e.SetIdlePower(watts); err != nil {
		t.Fatal(err)
	}
	fresh := func() *Evaluator {
		f, err := NewEvaluator(e.System(), e.Trace())
		if err != nil {
			t.Fatal(err)
		}
		f.AllowDropping = true
		if err := f.SetIdlePower(watts); err != nil {
			t.Fatal(err)
		}
		return f
	}

	src := rng.New(7101)
	var allocs []*Allocation
	for i := 0; i < 6; i++ {
		a := e.RandomAllocation(src)
		if i%2 == 1 {
			for k := range a.Machine {
				if src.Bool(0.2) {
					a.Machine[k] = Dropped
				}
			}
		}
		allocs = append(allocs, a)
	}
	bad := allocs[1].Clone()
	bad.Order[7] = bad.Order[3]
	allocs = append(allocs, bad)

	type result struct {
		ev      Evaluation
		reports []MachineReport
		rows    []GanttRow
		err     string
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	want := make([]result, len(allocs))
	for i, a := range allocs {
		w := &want[i]
		w.err = errText(fresh().Validate(a))
		if w.err != "" {
			continue
		}
		w.ev = e.NewSession().Evaluate(a)
		var err error
		if w.reports, err = fresh().Report(a); err != nil {
			t.Fatal(err)
		}
		if w.rows, err = fresh().Gantt(a); err != nil {
			t.Fatal(err)
		}
	}
	if want[len(allocs)-1].err == "" {
		t.Fatal("the duplicate-order allocation passed Validate")
	}

	const goroutines, rounds = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range allocs {
					i := (k + g) % len(allocs)
					a, w := allocs[i], &want[i]
					switch op := (r + k + g) % 4; {
					case w.err != "":
						// An invalid allocation is only validated; each
						// entry point must refuse it the same way.
						var err error
						switch op {
						case 0:
							err = e.Validate(a)
						case 1, 2:
							_, err = e.Report(a)
						default:
							_, err = e.Gantt(a)
						}
						if got := errText(err); got != w.err {
							t.Errorf("goroutine %d alloc %d op %d: error %q, want %q", g, i, op, got, w.err)
						}
					case op == 0:
						if err := e.Validate(a); err != nil {
							t.Errorf("goroutine %d alloc %d: Validate: %v", g, i, err)
						}
					case op == 1:
						if got := e.Evaluate(a); got != w.ev {
							t.Errorf("goroutine %d alloc %d: Evaluate %+v, fresh Session %+v", g, i, got, w.ev)
						}
					case op == 2:
						got, err := e.Report(a)
						if err != nil || !slices.Equal(got, w.reports) {
							t.Errorf("goroutine %d alloc %d: Report differs from fresh scratch (err %v)", g, i, err)
						}
					default:
						got, err := e.Gantt(a)
						if err != nil || !slices.Equal(got, w.rows) {
							t.Errorf("goroutine %d alloc %d: Gantt differs from fresh scratch (err %v)", g, i, err)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
