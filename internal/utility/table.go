package utility

import (
	"fmt"
	"math"
)

// Table flattens a batch of Functions into contiguous parallel arrays so
// hot loops (schedule evaluation calls one TUF per simulated task) read
// segments from cache-friendly memory instead of chasing a *Function,
// its segment slice, and four fields per segment. Table.Value is
// bit-identical to Function.Value on the source function: it performs
// the same floating-point operations in the same order, only the data
// layout changes.
//
// A Table is immutable after construction and safe for concurrent use.
type Table struct {
	progs []tableProg
	segs  []tableSeg
}

// tableProg is one compiled function: a segment range plus the scalars
// Value needs after segment lookup.
type tableProg struct {
	off  int32
	n    int32
	prio float64
	tail float64
	// tailT is a conservative elapsed-time threshold: any elapsed >=
	// tailT is guaranteed to fall off the end of the segment walk, so
	// Value can return prio*tail without touching the segments. The
	// guard must never fire for an elapsed the walk would place inside
	// a segment: the walk subtracts durations with one rounding per
	// step, so its effective boundary sits within n·2^-52 (relative) of
	// the exact duration sum; a 1e-12 relative margin clears that for
	// any realistic segment count. Times below the threshold take the
	// walk, so the result is bit-identical either way.
	tailT float64
}

// tableSeg is one compiled segment. For Constant and Linear shapes aux
// holds EndFrac-StartFrac (zero for Constant), and the segment value is
// start + aux*(t/dur) — for Constant the product term is exactly +0, so
// the shared formula reproduces Function.Value bit for bit. For
// Exponential aux holds EndFrac/StartFrac and the value is
// start * Pow(aux, t/dur), again matching segValue's arithmetic.
type tableSeg struct {
	dur   float64
	start float64
	aux   float64
	exp   bool
}

// NewTable returns an empty table with capacity hints for n functions
// and totalSegs segments.
func NewTable(n, totalSegs int) *Table {
	return &Table{
		progs: make([]tableProg, 0, n),
		segs:  make([]tableSeg, 0, totalSegs),
	}
}

// Add compiles a validated function into the table and returns its id.
// The function is copied; later mutation of f does not affect the table.
func (tb *Table) Add(f *Function) (int, error) {
	if err := f.Validate(); err != nil {
		return 0, fmt.Errorf("utility: compiling invalid function: %w", err)
	}
	id := len(tb.progs)
	off := int32(len(tb.segs))
	var total float64
	for _, seg := range f.Segments {
		total += seg.Duration
		ts := tableSeg{dur: seg.Duration, start: seg.StartFrac}
		if seg.Shape == Exponential {
			ts.aux = seg.EndFrac / seg.StartFrac
			ts.exp = true
		} else {
			ts.aux = seg.EndFrac - seg.StartFrac
		}
		tb.segs = append(tb.segs, ts)
	}
	tb.progs = append(tb.progs, tableProg{
		off:   off,
		n:     int32(len(f.Segments)),
		prio:  f.Priority,
		tail:  f.TailFrac,
		tailT: total + total*1e-12,
	})
	return id, nil
}

// Len returns the number of compiled functions.
func (tb *Table) Len() int { return len(tb.progs) }

// Inline is the part of one compiled function a caller can evaluate
// without calling Value: the tail guard and the first segment. For an
// elapsed time el >= 0, Value returns TailV if el >= TailT, and
// otherwise, if el < Dur0, Prio * (Start0 + Aux0*(el/Dur0)) — the same
// operations in the same order as its first-segment branch, so a
// caller that computes that expression is bit-identical. A caller that
// adds it to a sum should round it with an explicit float64 conversion,
// so the product cannot be fused into a multiply-add. Any other elapsed
// time needs Value. (Value clamps a negative elapsed time to 0; the
// expression does not.)
type Inline struct {
	// TailT and TailV are the tail guard: for elapsed >= TailT, Value
	// returns TailV, the same Prio*TailFrac product its tail path
	// computes.
	TailT, TailV float64
	// Prio, Dur0, Start0 and Aux0 are the priority and the first
	// segment's compiled duration, start and aux. Dur0 is -Inf when the
	// first segment is Exponential, so no elapsed time is below it.
	Prio, Dur0, Start0, Aux0 float64
}

// Inline returns the id-th compiled function's tail guard and first
// segment.
func (tb *Table) Inline(id int) Inline {
	p := &tb.progs[id]
	sg := &tb.segs[p.off]
	in := Inline{
		TailT:  p.tailT,
		TailV:  p.prio * p.tail,
		Prio:   p.prio,
		Dur0:   sg.dur,
		Start0: sg.start,
		Aux0:   sg.aux,
	}
	if sg.exp {
		in.Dur0 = math.Inf(-1)
	}
	return in
}

// Value returns the utility earned by the id-th compiled function at the
// given elapsed time. It is bit-identical to calling Value on the
// function passed to Add.
func (tb *Table) Value(id int, elapsed float64) float64 {
	p := &tb.progs[id]
	t := elapsed
	if t < 0 {
		t = 0
	}
	if t >= p.tailT {
		// Past every segment with margin beyond the walk's worst-case
		// rounding (see tailT): identical to falling off the loop below.
		// The evaluation kernel resolves this tier and Constant or
		// Linear first segments itself (Inline), so it calls Value only
		// for the rest of the TUF window.
		return p.prio * p.tail
	}
	segs := tb.segs[p.off : p.off+p.n]
	for k := range segs {
		sg := &segs[k]
		if t < sg.dur {
			if sg.exp {
				// Same ops as segValue: start * (end/start)^(t/d).
				return p.prio * (sg.start * math.Pow(sg.aux, t/sg.dur))
			}
			// Same ops as segValue Linear; Constant has aux == 0 and
			// t/dur finite, so the product term is +0 and the sum is
			// exactly start.
			return p.prio * (sg.start + sg.aux*(t/sg.dur))
		}
		t -= sg.dur
	}
	return p.prio * p.tail
}
