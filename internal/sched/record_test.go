package sched

import (
	"math"
	"testing"

	"tradeoff/internal/hcs"
	"tradeoff/internal/rng"
	"tradeoff/internal/utility"
	"tradeoff/internal/workload"
)

// fuzzTUF draws a valid time-utility function from the fuzzer's inputs:
// 1-4 segments whose shapes come two bits each from shapes, durations
// over six decades, and a tail of tailFrac (folded into [0, 1]) times
// the last segment's end. With flat set every fraction is 1, so a
// tailFrac of 1 gives a function whose tail is 1.
func fuzzTUF(src *rng.Source, nseg, shapes uint8, flat bool, tailFrac float64) (*utility.Function, error) {
	n := 1 + int(nseg%4)
	segs := make([]utility.Segment, n)
	prevEnd := 1.0
	for i := range segs {
		shape := utility.Shape((shapes >> (2 * i) & 3) % 3)
		start, end := 1.0, 1.0
		if !flat {
			start = prevEnd * (0.2 + 0.8*src.Float64())
			end = start * (0.2 + 0.8*src.Float64())
		}
		if shape == utility.Constant {
			end = start
		}
		segs[i] = utility.Segment{
			Duration:  (0.5 + src.Float64()) * math.Pow(10, float64(src.Intn(6)-3)),
			StartFrac: start,
			EndFrac:   end,
			Shape:     shape,
		}
		prevEnd = end
	}
	if math.IsNaN(tailFrac) || math.IsInf(tailFrac, 0) {
		tailFrac = 0
	}
	if tailFrac < 0 || tailFrac > 1 {
		tailFrac = math.Mod(math.Abs(tailFrac), 1)
	}
	return utility.New(1+99*src.Float64(), prevEnd*tailFrac, segs...)
}

// recordUtility resolves task ti's utility at elapsed time el with the
// kernel's four tiers, written as in typedCont: the thresholds from the
// task's record pick the tier, the values come from its function's
// record. It reports which tier answered: 1 the tail guard, 2 the
// first segment, 3 segments 2–3 (or the tail past them), 4 the
// Table.Value fallback on the function's entry.
func recordUtility(e *Evaluator, ti int, el float64) (float64, int) {
	mt := &e.meta[ti]
	fm := &e.funcs[mt.fn]
	switch {
	case el >= mt.tailT:
		return fm.TailV, 1
	case el < mt.dur0:
		return float64(fm.Prio * (fm.Start0 + fm.Aux0*(el/mt.dur0))), 2
	case !fm.Walk:
		t := el - mt.dur0
		if t < fm.Dur1 {
			return float64(fm.Prio * (fm.Start1 + fm.Aux1*(t/fm.Dur1))), 3
		}
		if t -= fm.Dur1; t < fm.Dur2 {
			return float64(fm.Prio * (fm.Start2 + fm.Aux2*(t/fm.Dur2))), 3
		}
		return fm.TailV, 3
	}
	return e.tufs.Value(int(mt.fn), el), 4
}

// kernelUtility runs task ti alone through typedCont on machine 0, with
// the machine busy until el - ETC after the task's arrival, so the task
// completes about el after it. It returns the elapsed time the kernel
// computed and the utility it added.
func kernelUtility(e *Evaluator, ti int, el float64) (float64, float64) {
	arr := e.meta[ti].arrival
	st := kstate{ready: arr + (el - e.ETCInstance(e.Trace().Tasks[ti].Type, 0))}
	e.NewDeltaSession().typedCont(0, []int32{int32(ti)}, &st)
	return st.ready - arr, st.util
}

// FuzzTaskRecordUtility checks the kernel's task and function records
// against the compiled table and the uncompiled function, bit for bit,
// at the edges of each tier (0, the end of each of the first three
// segments and the tail guard, the floats just below each, and the
// margin between the horizon and the guard) and at uniform draws up to
// 1.2 × horizon. The fuzzed function sits on two tasks, and an equal
// but separate copy on a third: the first two must share one function
// record, the third must get its own, and all three must resolve every
// probe identically. It also checks that each elapsed time takes the
// tier it should: the tail guard past every segment with margin, the
// first segment inside a Constant or Linear one, segments 2–3
// everywhere else for a TUF of at most three Constant or Linear
// segments, and Table.Value everywhere else for a TUF with an
// Exponential segment or more than three segments. Last, it runs the
// kernel itself on each task near each probe and holds it to the
// mirror and to Function.Value at the elapsed time the kernel computed.
func FuzzTaskRecordUtility(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(utility.Exponential), false, 0.3)                   // Exponential first
	f.Add(uint64(2), uint8(0), uint8(utility.Constant), false, 0.0)                      // a single Constant segment
	f.Add(uint64(3), uint8(2), uint8(0x24), true, 1.0)                                   // tail 1: flat at priority
	f.Add(uint64(4), uint8(3), uint8(utility.Linear|utility.Exponential<<2), false, 0.5) // four segments, all shapes
	f.Add(uint64(5), uint8(2), uint8(utility.Linear|utility.Constant<<2|utility.Linear<<4), false, 0.4)
	f.Add(uint64(6), uint8(1), uint8(utility.Constant|utility.Linear<<2), false, 0.0)
	f.Add(uint64(7), uint8(2), uint8(utility.Linear|utility.Linear<<2|utility.Exponential<<4), false, 0.2)
	f.Fuzz(func(t *testing.T, seed uint64, nseg, shapes uint8, flat bool, tailFrac float64) {
		src := rng.New(seed)
		fn, err := fuzzTUF(src, nseg, shapes, flat, tailFrac)
		if err != nil {
			t.Fatalf("drawn TUF invalid: %v", err)
		}
		// A 1e-6 execution time lets the kernel complete the task at
		// nearly any elapsed time the probes ask for.
		sys := tinySystem(t)
		if sys.ETC, err = hcs.MatrixFromRows([][]float64{{1e-6, 1e-6}, {1e-6, 1e-6}}); err != nil {
			t.Fatal(err)
		}
		tr := &workload.Trace{Window: 100, Tasks: []workload.Task{
			{ID: 0, Type: 1, Arrival: 7, TUF: fn},
			{ID: 1, Type: 1, Arrival: 7, TUF: fn},
			{ID: 2, Type: 1, Arrival: 7, TUF: fn.Clone()},
		}}
		e, err := NewEvaluator(sys, tr)
		if err != nil {
			t.Fatal(err)
		}
		for ti, want := range []int32{0, 0, 1} {
			if mt := &e.meta[ti]; mt.arrival != 7 || mt.ty != 1 || mt.fn != want {
				t.Fatalf("task %d record arrival %v type %d function %d, want 7, 1 and %d", ti, mt.arrival, mt.ty, mt.fn, want)
			}
		}
		if len(e.funcs) != 2 || e.tufs.Len() != 2 {
			t.Fatalf("%d function records and %d table entries for 2 distinct functions", len(e.funcs), e.tufs.Len())
		}
		mt := &e.meta[0]
		walk := len(fn.Segments) > 3
		for _, sg := range fn.Segments {
			walk = walk || sg.Shape == utility.Exponential
		}
		if e.funcs[0].Walk != walk {
			t.Fatalf("function record Walk %v for %d segments %v, want %v", e.funcs[0].Walk, len(fn.Segments), fn.Segments, walk)
		}
		seg0 := fn.Segments[0]
		horizon := fn.Horizon()
		// The midpoint between the horizon and the tail guard falls off
		// every segment without reaching the guard.
		els := []float64{0, mt.tailT, math.Nextafter(mt.tailT, 0), horizon + (mt.tailT-horizon)/2}
		var end float64
		for k := 0; k < len(fn.Segments) && k < 3; k++ {
			end += fn.Segments[k].Duration
			els = append(els, end, math.Nextafter(end, 0))
		}
		for i := 0; i < 64; i++ {
			els = append(els, 1.2*horizon*src.Float64())
		}
		for _, el := range els {
			got, tier := recordUtility(e, 0, el)
			for ti := 1; ti < 3; ti++ {
				if other, otherTier := recordUtility(e, ti, el); math.Float64bits(other) != math.Float64bits(got) || otherTier != tier {
					t.Fatalf("el=%v: task %d %v (tier %d), task 0 %v (tier %d)", el, ti, other, otherTier, got, tier)
				}
			}
			if want := e.tufs.Value(0, el); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("el=%v tier %d: record %v, Table.Value %v", el, tier, got, want)
			}
			if want := fn.Value(el); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("el=%v tier %d: record %v, Function.Value %v", el, tier, got, want)
			}
			switch {
			case el >= horizon*(1+2e-12):
				if tier != 1 {
					t.Fatalf("el=%v past horizon %v took tier %d, want the tail guard", el, horizon, tier)
				}
			case el < seg0.Duration && seg0.Shape != utility.Exponential:
				if tier != 2 {
					t.Fatalf("el=%v inside a %v first segment took tier %d, want inline", el, seg0.Shape, tier)
				}
			case tier == 1: // inside the guard's own margin
			case !walk && tier != 3:
				t.Fatalf("el=%v past the first of %v took tier %d, want inline segments 2–3", el, fn.Segments, tier)
			case walk && tier != 4:
				t.Fatalf("el=%v past the first of %v took tier %d, want Table.Value", el, fn.Segments, tier)
			}
			for ti := 0; ti < 3; ti++ {
				elK, got := kernelUtility(e, ti, el)
				mirror, tier := recordUtility(e, ti, elK)
				if want := fn.Value(elK); math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(got) != math.Float64bits(mirror) {
					t.Fatalf("task %d el=%v: kernel %v, mirror %v (tier %d), Function.Value %v", ti, elK, got, mirror, tier, want)
				}
			}
		}
	})
}
