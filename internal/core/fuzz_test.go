package core

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"tradeoff/internal/hcs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/workload"
)

// Fuzz targets for the two external inputs the CLI decodes: a -loadtrace
// trace and a -system HCS description. Every input must end in an error
// or a valid evaluation; a panic or a hang is a failure.

// fuzzSystem is a small system with a special-purpose machine, so a
// decoded trace can name a task type that only some machines run.
func fuzzSystem() *hcs.System {
	b := hcs.NewBuilder()
	cpu := b.MachineType("cpu", hcs.GeneralPurpose, 2)
	fpga := b.MachineType("fpga", hcs.SpecialPurpose, 1)
	render := b.TaskType("render", hcs.SpecialPurpose)
	compress := b.TaskType("compress", hcs.GeneralPurpose)
	b.Set(render, cpu, 120, 150)
	b.Set(render, fpga, 12, 60)
	b.Set(compress, cpu, 40, 130)
	sys, err := b.Build()
	if err != nil {
		panic(err)
	}
	return sys
}

// requireValidEvaluation builds a framework over sys and tr, evaluates a
// random allocation drawn from seed through Framework.Evaluate, and
// fails unless every task completed with finite, non-negative objectives
// and no more utility than the trace's bound.
func requireValidEvaluation(t *testing.T, sys *hcs.System, tr *workload.Trace, seed uint64) {
	t.Helper()
	fw, err := New(sys, tr)
	if err != nil {
		return
	}
	ev, err := fw.Evaluate(fw.Evaluator().RandomAllocation(rng.New(seed)))
	if err != nil {
		t.Fatalf("a random allocation failed validation: %v", err)
	}
	switch {
	case ev.Completed != tr.NumTasks():
		t.Fatalf("%d of %d tasks completed", ev.Completed, tr.NumTasks())
	case math.IsNaN(ev.Utility) || ev.Utility < 0 || ev.Utility > tr.MaxUtility()*(1+1e-9):
		t.Fatalf("utility %v outside [0, %v]", ev.Utility, tr.MaxUtility())
	case math.IsNaN(ev.Energy) || ev.Energy < 0:
		t.Fatalf("energy %v", ev.Energy)
	case math.IsNaN(ev.Makespan) || ev.Makespan < 0:
		t.Fatalf("makespan %v", ev.Makespan)
	}
}

// requireSharingInvisible evaluates a random allocation drawn from seed
// on tr, whose tasks may share functions, and on a copy in which every
// task has a function of its own, and fails unless the objectives and
// every completion time agree bit for bit.
func requireSharingInvisible(t *testing.T, sys *hcs.System, tr *workload.Trace, seed uint64) {
	t.Helper()
	own := &workload.Trace{Window: tr.Window, Tasks: slices.Clone(tr.Tasks)}
	for i := range own.Tasks {
		own.Tasks[i].TUF = own.Tasks[i].TUF.Clone()
	}
	es, err := sched.NewEvaluator(sys, tr)
	if err != nil {
		return
	}
	eo, err := sched.NewEvaluator(sys, own)
	if err != nil {
		t.Fatalf("the unshared copy fails where the decoded trace builds: %v", err)
	}
	a := es.RandomAllocation(rng.New(seed))
	ts, evS := es.NewSession().CompletionTimes(a)
	to, evO := eo.NewSession().CompletionTimes(a)
	for _, p := range [][2]float64{{evS.Utility, evO.Utility}, {evS.Energy, evO.Energy}, {evS.Makespan, evO.Makespan}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("decoded trace evaluates to %+v, its unshared copy to %+v", evS, evO)
		}
	}
	for i := range ts {
		if math.Float64bits(ts[i]) != math.Float64bits(to[i]) {
			t.Fatalf("task %d completes at %v on the decoded trace, %v on its unshared copy", i, ts[i], to[i])
		}
	}
}

// FuzzDecodeTrace feeds arbitrary bytes to workload.DecodeTrace against
// a fixed system, then builds the framework and evaluates a random
// allocation of whatever trace decoded. The decoded trace shares its
// bit-identical TUFs, so it must also evaluate exactly as a copy in
// which every task has a function of its own.
func FuzzDecodeTrace(f *testing.F) {
	sys := fuzzSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 5, Window: 300}, rng.New(3))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := workload.EncodeTrace(tr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, uint64(1))
	f.Add([]byte(`{"Tasks":[{"ID":0,"Type":1,"Arrival":0,"TUF":{"Priority":1,"Segments":[{"Duration":10,"StartFrac":1,"EndFrac":0,"Shape":"linear"}],"TailFrac":0}}],"Window":10}`), uint64(2))
	f.Add([]byte(`{"Tasks":[{"ID":0,"Type":7,"Arrival":0}],"Window":10}`), uint64(3))
	f.Add([]byte(`{"Tasks":[],"Window":-1}`), uint64(4))
	f.Add([]byte(`not json`), uint64(5))
	// Tasks 0 and 2 decode bit-identical and share; task 1's tail is
	// -0, so it keeps a function of its own.
	f.Add([]byte(`{"Tasks":[`+
		`{"ID":0,"Type":1,"Arrival":0,"TUF":{"Priority":3,"Segments":[{"Duration":50,"StartFrac":1,"EndFrac":0.5,"Shape":1}],"TailFrac":0}},`+
		`{"ID":1,"Type":1,"Arrival":1,"TUF":{"Priority":3,"Segments":[{"Duration":50,"StartFrac":1,"EndFrac":0.5,"Shape":1}],"TailFrac":-0}},`+
		`{"ID":2,"Type":1,"Arrival":2,"TUF":{"Priority":3,"Segments":[{"Duration":50,"StartFrac":1,"EndFrac":0.5,"Shape":1}],"TailFrac":0}}],"Window":10}`), uint64(6))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		tr, err := workload.DecodeTrace(raw, sys)
		if err != nil {
			return
		}
		requireValidEvaluation(t, sys, tr, seed)
		requireSharingInvisible(t, sys, tr, seed)
	})
}

// FuzzSystemJSON feeds arbitrary bytes to the hcs.System JSON decoder,
// then generates a short trace on whatever system decoded, builds the
// framework and evaluates a random allocation.
func FuzzSystemJSON(f *testing.F) {
	raw, err := json.Marshal(fuzzSystem())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, uint64(1))
	f.Add([]byte(`{"machineTypes":[{"Name":"a","Category":0}],"taskTypes":[{"Name":"t","Category":0}],"etc":{"rows":1,"cols":1,"data":[[5]]},"epc":{"rows":1,"cols":1,"data":[[100]]},"machines":[{"ID":0,"Type":0}]}`), uint64(2))
	f.Add([]byte(`{"machineTypes":[{"Name":"a","Category":0}],"taskTypes":[{"Name":"t","Category":0},{"Name":"u","Category":0}],"etc":{"rows":1,"cols":1,"data":[[5]]},"epc":{"rows":1,"cols":1,"data":[[100]]},"machines":[{"ID":0,"Type":0}]}`), uint64(3))
	f.Add([]byte(`{"etc":{"rows":2,"cols":1,"data":[[1]]}}`), uint64(4))
	f.Add([]byte(`{}`), uint64(5))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		var sys hcs.System
		if err := json.Unmarshal(raw, &sys); err != nil {
			return
		}
		tr, err := workload.Generate(&sys, workload.GenConfig{NumTasks: 6, Window: 100}, rng.New(seed))
		if err != nil {
			return
		}
		requireValidEvaluation(t, &sys, tr, seed)
	})
}
