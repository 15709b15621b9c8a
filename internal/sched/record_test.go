package sched

import (
	"math"
	"testing"

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
// kernel's three tiers, written as in typedCont, and reports which tier
// answered: 1 the tail guard, 2 the inline first segment, 3 the
// Table.Value fallback.
func recordUtility(e *Evaluator, ti int, el float64) (float64, int) {
	mt := &e.meta[ti]
	switch {
	case el >= mt.TailT:
		return mt.TailV, 1
	case el < mt.Dur0:
		return float64(mt.Prio * (mt.Start0 + mt.Aux0*(el/mt.Dur0))), 2
	}
	return e.tufs.Value(ti, el), 3
}

// FuzzTaskRecordUtility checks the kernel's per-task record against the
// compiled table and the uncompiled function, bit for bit, at the edges
// of each tier (0, the first segment's end and the tail guard, and the
// floats just below them) and at uniform draws up to 1.2 × horizon. It
// also checks that each elapsed time takes the tier it should: the tail
// guard past every segment with margin, the inline tier inside a
// Constant or Linear first segment, and never the inline tier for an
// Exponential one.
func FuzzTaskRecordUtility(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(utility.Exponential), false, 0.3)                   // Exponential first
	f.Add(uint64(2), uint8(0), uint8(utility.Constant), false, 0.0)                      // a single Constant segment
	f.Add(uint64(3), uint8(2), uint8(0x24), true, 1.0)                                   // tail 1: flat at priority
	f.Add(uint64(4), uint8(3), uint8(utility.Linear|utility.Exponential<<2), false, 0.5) // four segments, all shapes
	f.Fuzz(func(t *testing.T, seed uint64, nseg, shapes uint8, flat bool, tailFrac float64) {
		src := rng.New(seed)
		fn, err := fuzzTUF(src, nseg, shapes, flat, tailFrac)
		if err != nil {
			t.Fatalf("drawn TUF invalid: %v", err)
		}
		tr := &workload.Trace{Window: 100, Tasks: []workload.Task{{Type: 1, Arrival: 7, TUF: fn}}}
		e, err := NewEvaluator(tinySystem(t), tr)
		if err != nil {
			t.Fatal(err)
		}
		mt := &e.meta[0]
		if mt.arrival != 7 || mt.ty != 1 {
			t.Fatalf("record arrival %v type %d, want 7 and 1", mt.arrival, mt.ty)
		}
		seg0 := fn.Segments[0]
		horizon := fn.Horizon()
		els := []float64{
			0,
			seg0.Duration, math.Nextafter(seg0.Duration, 0),
			mt.TailT, math.Nextafter(mt.TailT, 0),
		}
		for i := 0; i < 64; i++ {
			els = append(els, 1.2*horizon*src.Float64())
		}
		for _, el := range els {
			got, tier := recordUtility(e, 0, el)
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
			case seg0.Shape == utility.Exponential && tier == 2:
				t.Fatalf("el=%v resolved inline inside an Exponential first segment", el)
			}
		}
	})
}
