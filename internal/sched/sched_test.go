package sched

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"tradeoff/internal/data"
	"tradeoff/internal/hcs"
	"tradeoff/internal/rng"
	"tradeoff/internal/utility"
	"tradeoff/internal/workload"
)

// tinySystem: 2 general-purpose machine types, 1 instance each.
func tinySystem(t *testing.T) *hcs.System {
	t.Helper()
	etc, _ := hcs.MatrixFromRows([][]float64{
		{10, 20},
		{30, 15},
	})
	epc, _ := hcs.MatrixFromRows([][]float64{
		{100, 50},
		{120, 60},
	})
	s := &hcs.System{
		MachineTypes: []hcs.MachineType{{Name: "A", Category: hcs.GeneralPurpose}, {Name: "B", Category: hcs.GeneralPurpose}},
		TaskTypes:    []hcs.TaskType{{Name: "t0", Category: hcs.GeneralPurpose}, {Name: "t1", Category: hcs.GeneralPurpose}},
		ETC:          etc,
		EPC:          epc,
		Machines:     []hcs.Machine{{ID: 0, Type: 0}, {ID: 1, Type: 1}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyTrace: 3 tasks with known TUFs and arrivals.
func tinyTrace(t *testing.T) *workload.Trace {
	t.Helper()
	tuf := utility.LinearDecay(100, 1000)
	tr := &workload.Trace{
		Window: 100,
		Tasks: []workload.Task{
			{ID: 0, Type: 0, Arrival: 0, TUF: tuf.Clone()},
			{ID: 1, Type: 1, Arrival: 5, TUF: tuf.Clone()},
			{ID: 2, Type: 0, Arrival: 50, TUF: tuf.Clone()},
		},
	}
	return tr
}

func newEval(t *testing.T) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(tinySystem(t), tinyTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEvaluateHandComputed(t *testing.T) {
	e := newEval(t)
	// All three tasks on machine 0 in arrival order.
	a := &Allocation{Machine: []int32{0, 0, 0}, Order: []int32{0, 1, 2}}
	if err := e.Validate(a); err != nil {
		t.Fatal(err)
	}
	ev := e.Evaluate(a)
	// Task 0: start 0, etc 10 -> completes 10, elapsed 10, U = 100*(1-10/1000) = 99.
	// Task 1: type 1 on machine 0: etc 30; start max(10,5)=10 -> completes 40, elapsed 35, U = 96.5.
	// Task 2: start max(40,50)=50 (idle) -> completes 60, elapsed 10, U = 99.
	wantU := 99 + 96.5 + 99.0
	if math.Abs(ev.Utility-wantU) > 1e-9 {
		t.Errorf("Utility = %v, want %v", ev.Utility, wantU)
	}
	// Energy: task0 10*100 + task1 30*120 + task2 10*100 = 1000+3600+1000.
	if math.Abs(ev.Energy-5600) > 1e-9 {
		t.Errorf("Energy = %v, want 5600", ev.Energy)
	}
	if ev.Makespan != 60 {
		t.Errorf("Makespan = %v, want 60", ev.Makespan)
	}
	if ev.Completed != 3 {
		t.Errorf("Completed = %d", ev.Completed)
	}
}

func TestGlobalOrderControlsSequence(t *testing.T) {
	e := newEval(t)
	// Tasks 0 and 2 both on machine 0; run task 2 first by global order.
	a := &Allocation{Machine: []int32{0, 1, 0}, Order: []int32{2, 1, 0}}
	if err := e.Validate(a); err != nil {
		t.Fatal(err)
	}
	times, _ := e.NewSession().CompletionTimes(a)
	// Task 2 (order 0) starts at its arrival 50, completes 60.
	// Task 0 (order 2) waits for machine: starts 60, completes 70.
	if times[2] != 60 || times[0] != 70 {
		t.Fatalf("completion times = %v", times)
	}
}

func TestEnergyIndependentOfOrder(t *testing.T) {
	e := newEval(t)
	src := rng.New(1)
	a := e.RandomAllocation(src)
	base := e.Evaluate(a).Energy
	for i := 0; i < 20; i++ {
		b := a.Clone()
		b.Order = make([]int32, a.Len())
		src.PermInto32(b.Order)
		if got := e.Evaluate(b).Energy; math.Abs(got-base) > 1e-9 {
			t.Fatalf("energy changed with order: %v vs %v", got, base)
		}
	}
}

func TestStartNeverBeforeArrival(t *testing.T) {
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 120, Window: 900}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	sess := e.NewSession()
	for trial := 0; trial < 25; trial++ {
		a := e.RandomAllocation(src)
		times, _ := sess.CompletionTimes(a)
		for i, ct := range times {
			task := tr.Tasks[i]
			etc := e.ETCInstance(task.Type, int(a.Machine[i]))
			if ct-etc < task.Arrival-1e-9 {
				t.Fatalf("task %d starts at %v before arrival %v", i, ct-etc, task.Arrival)
			}
		}
	}
}

func TestMachineQueuesDoNotOverlap(t *testing.T) {
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 60, Window: 300}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	a := e.RandomAllocation(rng.New(5))
	times, _ := e.NewSession().CompletionTimes(a)
	// Per machine, sort tasks by order; successive intervals must not overlap.
	type interval struct{ start, end float64 }
	byMachine := map[int][]interval{}
	// Reconstruct in global order.
	seq := make([]int, len(times))
	for i, o := range a.Order {
		seq[o] = i
	}
	for _, ti := range seq {
		m := int(a.Machine[ti])
		etc := e.ETCInstance(tr.Tasks[ti].Type, m)
		byMachine[m] = append(byMachine[m], interval{times[ti] - etc, times[ti]})
	}
	for m, ivs := range byMachine {
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end-1e-9 {
				t.Fatalf("machine %d intervals overlap: %v then %v", m, ivs[i-1], ivs[i])
			}
		}
	}
}

func TestValidateRejectsBadAllocations(t *testing.T) {
	e := newEval(t)
	cases := []*Allocation{
		{Machine: []int32{0, 0}, Order: []int32{0, 1}},        // wrong length
		{Machine: []int32{0, 0, 9}, Order: []int32{0, 1, 2}},  // machine out of range
		{Machine: []int32{0, 0, -1}, Order: []int32{0, 1, 2}}, // dropped without permission
		{Machine: []int32{0, 0, 0}, Order: []int32{0, 1, 1}},  // duplicate order
		{Machine: []int32{0, 0, 0}, Order: []int32{0, 1, 5}},  // order out of range
		{Machine: []int32{0, 0, 0}, Order: []int32{0, 1, -2}}, // negative order
	}
	for i, a := range cases {
		if err := e.Validate(a); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestValidateSlotsRejectsBadSequences: the packed-sequence walk accepts
// every valid allocation's execution sequence and rejects each way a
// sequence can be malformed, with Validate's message wherever the
// fault is a machine assignment.
func TestValidateSlotsRejectsBadSequences(t *testing.T) {
	e := newEval(t)
	good := &Allocation{Machine: []int32{0, 1, 0}, Order: []int32{2, 0, 1}}
	slots := make([]uint32, 3)
	ScatterSlots(good, slots, nil)
	if err := e.ValidateSlots(slots); err != nil {
		t.Fatalf("valid sequence rejected: %v", err)
	}
	dropped := []uint32{PackSlot(0, 0), PackSlot(Dropped, 1), PackSlot(0, 2)}
	cases := []struct {
		name  string
		slots []uint32
	}{
		{"wrong length", []uint32{PackSlot(0, 0), PackSlot(0, 1)}},
		{"task out of range", []uint32{PackSlot(0, 0), PackSlot(0, 1), PackSlot(0, 7)}},
		{"task twice", []uint32{PackSlot(0, 0), PackSlot(0, 1), PackSlot(1, 1)}},
		{"machine out of range", []uint32{PackSlot(0, 0), PackSlot(9, 1), PackSlot(0, 2)}},
		{"drop not permitted", dropped},
	}
	for _, c := range cases {
		if err := e.ValidateSlots(c.slots); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// A machine fault reads as Validate's on the same allocation.
	for _, m := range []int32{9, Dropped} {
		bad := good.Clone()
		bad.Machine[1] = m
		ScatterSlots(bad, slots, nil)
		want, got := e.Validate(bad), e.ValidateSlots(slots)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("machine %d: ValidateSlots %v, Validate %v", m, got, want)
		}
	}
	e.AllowDropping = true
	if err := e.ValidateSlots(dropped); err != nil {
		t.Errorf("permitted drop rejected: %v", err)
	}
}

func TestValidateRejectsIncapableAssignment(t *testing.T) {
	// Build a system with a special-purpose machine and verify Validate
	// rejects assigning a general task to it.
	etc, _ := hcs.MatrixFromRows([][]float64{
		{10, hcs.Incapable},
		{30, 3},
	})
	epc, _ := hcs.MatrixFromRows([][]float64{
		{100, hcs.Incapable},
		{120, 80},
	})
	sys := &hcs.System{
		MachineTypes: []hcs.MachineType{{Name: "gp", Category: hcs.GeneralPurpose}, {Name: "sp", Category: hcs.SpecialPurpose}},
		TaskTypes:    []hcs.TaskType{{Name: "t0", Category: hcs.GeneralPurpose}, {Name: "t1", Category: hcs.SpecialPurpose}},
		ETC:          etc,
		EPC:          epc,
		Machines:     []hcs.Machine{{ID: 0, Type: 0}, {ID: 1, Type: 1}},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	tuf := utility.LinearDecay(10, 100)
	tr := &workload.Trace{Window: 10, Tasks: []workload.Task{
		{ID: 0, Type: 0, Arrival: 0, TUF: tuf},
		{ID: 1, Type: 1, Arrival: 1, TUF: tuf},
	}}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Allocation{Machine: []int32{1, 1}, Order: []int32{0, 1}}
	if err := e.Validate(bad); err == nil {
		t.Fatal("general-purpose task on special-purpose machine accepted")
	}
	slots := make([]uint32, 2)
	ScatterSlots(bad, slots, nil)
	if err := e.ValidateSlots(slots); err == nil {
		t.Fatal("packed sequence with an incapable machine accepted")
	}
	good := &Allocation{Machine: []int32{0, 1}, Order: []int32{0, 1}}
	if err := e.Validate(good); err != nil {
		t.Fatal(err)
	}
}

func TestDroppedTasks(t *testing.T) {
	e := newEval(t)
	e.AllowDropping = true
	a := &Allocation{Machine: []int32{0, Dropped, 0}, Order: []int32{0, 1, 2}}
	if err := e.Validate(a); err != nil {
		t.Fatal(err)
	}
	ev := e.Evaluate(a)
	if ev.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", ev.Completed)
	}
	// Energy excludes the dropped task (task 1 would cost 30*120).
	full := e.Evaluate(&Allocation{Machine: []int32{0, 0, 0}, Order: []int32{0, 1, 2}})
	if !(ev.Energy < full.Energy) {
		t.Fatal("dropping did not reduce energy")
	}
	times, _ := e.NewSession().CompletionTimes(a)
	if times[1] != -1 {
		t.Fatalf("dropped task completion = %v, want -1", times[1])
	}
}

func TestRandomAllocationFeasibleProperty(t *testing.T) {
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 80, Window: 900}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	check := func(seed uint32) bool {
		a := e.RandomAllocation(rng.New(uint64(seed)))
		return e.Validate(a) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewEvaluatorRejectsInvalidInputs(t *testing.T) {
	sys := tinySystem(t)
	tr := tinyTrace(t)
	bad := tr.Clone()
	bad.Tasks[0].Type = 99
	if _, err := NewEvaluator(sys, bad); err == nil {
		t.Fatal("invalid trace accepted")
	}
	badSys := sys.Clone()
	badSys.Machines = nil
	if _, err := NewEvaluator(badSys, tr); err == nil {
		t.Fatal("invalid system accepted")
	}
}

func TestSessionReuseMatchesFreshEvaluation(t *testing.T) {
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 50, Window: 300}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	src := rng.New(8)
	for i := 0; i < 30; i++ {
		a := e.RandomAllocation(src)
		got := sess.Evaluate(a)
		want := e.Evaluate(a)
		if got != want {
			t.Fatalf("session reuse diverged: %+v vs %+v", got, want)
		}
	}
}

func TestEnergyMegajoules(t *testing.T) {
	ev := Evaluation{Energy: 2.5e6}
	if ev.EnergyMegajoules() != 2.5 {
		t.Fatal("MJ conversion wrong")
	}
}

func TestIdlePowerValidation(t *testing.T) {
	e := newEval(t)
	if err := e.SetIdlePower([]float64{10}); err == nil {
		t.Error("wrong-length idle power accepted")
	}
	if err := e.SetIdlePower([]float64{10, -5}); err == nil {
		t.Error("negative idle power accepted")
	}
	if err := e.SetIdlePower([]float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if !e.IdlePowerEnabled() {
		t.Fatal("idle power not enabled")
	}
	if err := e.SetIdlePower(nil); err != nil {
		t.Fatal(err)
	}
	if e.IdlePowerEnabled() {
		t.Fatal("idle power not disabled")
	}
}

func TestIdlePowerHandComputed(t *testing.T) {
	e := newEval(t)
	// All on machine 0 in arrival order: busy 10+30+10=50, end 60, idle 10.
	a := &Allocation{Machine: []int32{0, 0, 0}, Order: []int32{0, 1, 2}}
	base := e.Evaluate(a).Energy
	if err := e.SetIdlePower([]float64{7, 11}); err != nil {
		t.Fatal(err)
	}
	got := e.Evaluate(a).Energy
	// Machine 0 idles 10 s at 7 W; machine 1 never starts (end=busy=0).
	want := base + 10*7
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("idle energy: got %v, want %v", got, want)
	}
}

func TestIdlePowerMakesEnergyOrderDependent(t *testing.T) {
	e := newEval(t)
	if err := e.SetIdlePower([]float64{50, 50}); err != nil {
		t.Fatal(err)
	}
	// Same machines, different order: running task 2 (arrival 50) first
	// forces idle time before it.
	a := &Allocation{Machine: []int32{0, 1, 0}, Order: []int32{0, 1, 2}}
	b := &Allocation{Machine: []int32{0, 1, 0}, Order: []int32{2, 1, 0}}
	ea, eb := e.Evaluate(a).Energy, e.Evaluate(b).Energy
	if ea == eb {
		t.Fatal("idle power should make energy order-dependent here")
	}
}

func TestIdlePowerNeverReducesEnergy(t *testing.T) {
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 60, Window: 600}, rng.New(71))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(72)
	watts := make([]float64, sys.NumMachineTypes())
	for i := range watts {
		watts[i] = 30
	}
	for trial := 0; trial < 20; trial++ {
		a := e.RandomAllocation(src)
		if err := e.SetIdlePower(nil); err != nil {
			t.Fatal(err)
		}
		base := e.Evaluate(a).Energy
		if err := e.SetIdlePower(watts); err != nil {
			t.Fatal(err)
		}
		withIdle := e.Evaluate(a).Energy
		if withIdle < base-1e-9 {
			t.Fatalf("idle power reduced energy: %v < %v", withIdle, base)
		}
	}
}

func TestReportBreakdown(t *testing.T) {
	e := newEval(t)
	a := &Allocation{Machine: []int32{0, 0, 1}, Order: []int32{0, 1, 2}}
	reports, err := e.Report(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports", len(reports))
	}
	// Machine 0: tasks 0 (etc 10, start 0) and 1 (etc 30, start 10);
	// busy 40, span 40, util 1.
	if reports[0].Tasks != 2 || reports[0].BusySeconds != 40 || reports[0].Utilization != 1 {
		t.Fatalf("machine 0 report: %+v", reports[0])
	}
	// Machine 1: task 2 (type 0, etc 20) arrives at 50; span 70, busy 20.
	if reports[1].Tasks != 1 || reports[1].BusySeconds != 20 || reports[1].SpanSeconds != 70 {
		t.Fatalf("machine 1 report: %+v", reports[1])
	}
	// Totals must agree with Evaluate.
	ev := e.Evaluate(a)
	var u, en float64
	for _, r := range reports {
		u += r.Utility
		en += r.EnergyJoules
	}
	if math.Abs(u-ev.Utility) > 1e-9 || math.Abs(en-ev.Energy) > 1e-9 {
		t.Fatal("report totals disagree with Evaluate")
	}
}

func TestReportValidatesInput(t *testing.T) {
	e := newEval(t)
	if _, err := e.Report(&Allocation{Machine: []int32{0}, Order: []int32{0}}); err == nil {
		t.Fatal("short allocation accepted")
	}
}

func TestWriteReport(t *testing.T) {
	e := newEval(t)
	a := &Allocation{Machine: []int32{0, 1, 0}, Order: []int32{0, 1, 2}}
	var sb strings.Builder
	if err := e.WriteReport(&sb, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "machine type") || !strings.Contains(sb.String(), "A") {
		t.Fatalf("report output incomplete:\n%s", sb.String())
	}
}

func TestGanttRowsConsistent(t *testing.T) {
	e := newEval(t)
	a := &Allocation{Machine: []int32{0, 0, 1}, Order: []int32{0, 1, 2}}
	rows, err := e.Gantt(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Sorted by machine then start; no overlap per machine; start >= arrival.
	for i, r := range rows {
		if r.Start < r.Arrival-1e-9 {
			t.Fatalf("row %d starts before arrival", i)
		}
		if r.WaitSeconds != r.Start-r.Arrival {
			t.Fatalf("row %d wait wrong", i)
		}
		if i > 0 && rows[i-1].Machine == r.Machine && r.Start < rows[i-1].End-1e-9 {
			t.Fatalf("rows %d/%d overlap on machine %d", i-1, i, r.Machine)
		}
	}
	// Totals agree with Evaluate.
	ev := e.Evaluate(a)
	var u, en float64
	for _, r := range rows {
		u += r.Utility
		en += r.Energy
	}
	if math.Abs(u-ev.Utility) > 1e-9 || math.Abs(en-ev.Energy) > 1e-9 {
		t.Fatal("gantt totals disagree with Evaluate")
	}
}

func TestGanttSkipsDropped(t *testing.T) {
	e := newEval(t)
	e.AllowDropping = true
	a := &Allocation{Machine: []int32{0, Dropped, 1}, Order: []int32{0, 1, 2}}
	rows, err := e.Gantt(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
}

func TestWriteGanttCSV(t *testing.T) {
	e := newEval(t)
	a := &Allocation{Machine: []int32{0, 0, 1}, Order: []int32{0, 1, 2}}
	var sb strings.Builder
	if err := e.WriteGanttCSV(&sb, a); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d CSV lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "task,task_type,machine") {
		t.Fatal("CSV header wrong")
	}
	if err := e.WriteGanttCSV(&sb, &Allocation{Machine: []int32{9}, Order: []int32{0}}); err == nil {
		t.Fatal("invalid allocation accepted")
	}
}

func TestSessionEvaluateZeroAlloc(t *testing.T) {
	// Session.Evaluate runs the engine's kernel, whose hot path must not
	// allocate: lock in the property the benchmarks report (0 B/op).
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 250, Window: 900}, rng.New(91))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	a := e.RandomAllocation(rng.New(92))
	allocs := testing.AllocsPerRun(100, func() {
		_ = sess.Evaluate(a)
	})
	if allocs > 0 {
		t.Fatalf("Session.Evaluate allocates %v per run, want 0", allocs)
	}
}

// TestSlotLimits pins the packed slot's bounds as structured errors:
// the machine bound through NewEvaluator on a tiny trace, the task
// bound through the validation helper NewEvaluator calls (a trace of a
// million tasks is too slow to build for a unit test).
func TestSlotLimits(t *testing.T) {
	withMachines := func(n int) (*hcs.System, *workload.Trace) {
		sys := tinySystem(t)
		sys.Machines = make([]hcs.Machine, n)
		for m := range sys.Machines {
			sys.Machines[m] = hcs.Machine{ID: m, Type: m % 2}
		}
		return sys, tinyTrace(t)
	}
	cases := []struct {
		name  string
		check func() error
		what  string // "" when the instance must be accepted
		count int
	}{
		{"machines at limit", func() error { _, err := NewEvaluator(withMachines(MaxSlotMachines)); return err }, "", 0},
		{"machines over limit", func() error { _, err := NewEvaluator(withMachines(MaxSlotMachines + 1)); return err }, "machines", MaxSlotMachines + 1},
		{"tasks at limit", func() error { return checkSlotLimits(MaxSlotTasks, 2) }, "", 0},
		{"tasks over limit", func() error { return checkSlotLimits(MaxSlotTasks+1, 2) }, "tasks", MaxSlotTasks + 1},
	}
	for _, tc := range cases {
		err := tc.check()
		if tc.what == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		var le *LimitError
		if !errors.As(err, &le) {
			t.Errorf("%s: error %v, want a *LimitError", tc.name, err)
			continue
		}
		limit := map[string]int{"machines": MaxSlotMachines, "tasks": MaxSlotTasks}[tc.what]
		if le.What != tc.what || le.Count != tc.count || le.Limit != limit {
			t.Errorf("%s: %+v, want %s %d over limit %d", tc.name, *le, tc.what, tc.count, limit)
		}
		if !strings.Contains(err.Error(), strconv.Itoa(limit)) {
			t.Errorf("%s: message %q does not name the limit %d", tc.name, err, limit)
		}
	}
	if MaxSlotTasks != 1048575 || MaxSlotMachines != 4094 {
		t.Fatalf("slot limits %d tasks / %d machines, want 1048575 / 4094", MaxSlotTasks, MaxSlotMachines)
	}
}
