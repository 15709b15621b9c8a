package nsga2

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"tradeoff/internal/hcs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/utility"
	"tradeoff/internal/workload"
)

// injectTasks is the fuzzed instance's trace length.
const injectTasks = 12

// injectEval builds a 12-task instance on three machines, two
// general-purpose and one special-purpose: even tasks are of a general
// type the special-purpose machine cannot run, odd tasks of a type
// every machine runs.
func injectEval(tb testing.TB) *sched.Evaluator {
	tb.Helper()
	etc, _ := hcs.MatrixFromRows([][]float64{{10, hcs.Incapable}, {30, 3}})
	epc, _ := hcs.MatrixFromRows([][]float64{{100, hcs.Incapable}, {120, 80}})
	sys := &hcs.System{
		MachineTypes: []hcs.MachineType{{Name: "gp", Category: hcs.GeneralPurpose}, {Name: "sp", Category: hcs.SpecialPurpose}},
		TaskTypes:    []hcs.TaskType{{Name: "t0", Category: hcs.GeneralPurpose}, {Name: "t1", Category: hcs.SpecialPurpose}},
		ETC:          etc,
		EPC:          epc,
		Machines:     []hcs.Machine{{ID: 0, Type: 0}, {ID: 1, Type: 0}, {ID: 2, Type: 1}},
	}
	tr := &workload.Trace{Window: 100}
	for i := 0; i < injectTasks; i++ {
		tr.Tasks = append(tr.Tasks, workload.Task{ID: i, Type: i % 2, Arrival: float64(5 * i), TUF: utility.LinearDecay(10, 200)})
	}
	e, err := sched.NewEvaluator(sys, tr)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// injectCandidate decodes a migrant from byte pairs, each value stored
// plus one so that byte 0 reads as -1. As an allocation, pair g is gene
// g's machine (-1 drops the task) and order. Packed, pair r is the
// machine and task of the slot scheduled r-th, byte 0 standing for task
// 255. The pair count is the genotype's length.
func injectCandidate(packed bool, raw []byte) Individual {
	n := len(raw) / 2
	if !packed {
		a := &sched.Allocation{Machine: make([]int32, n), Order: make([]int32, n)}
		for g := 0; g < n; g++ {
			a.Machine[g] = int32(raw[2*g]) - 1
			a.Order[g] = int32(raw[2*g+1]) - 1
		}
		return Individual{Alloc: a}
	}
	seq := make([]uint32, n)
	for r := 0; r < n; r++ {
		seq[r] = sched.PackSlot(int32(raw[2*r])-1, (int(raw[2*r+1])+255)%256)
	}
	return Individual{seq: seq}
}

// injectValid is the reference check: the genotype covers every task
// once, each on an existing machine that can run it; dropping is off.
func injectValid(e *sched.Evaluator, ind Individual) bool {
	n := e.NumTasks()
	machine := make([]int32, n)
	seen := make([]bool, n)
	if a := ind.Alloc; a != nil {
		if len(a.Machine) != n {
			return false
		}
		for g, o := range a.Order {
			if o < 0 || int(o) >= n || seen[o] {
				return false
			}
			seen[o] = true
			machine[g] = a.Machine[g]
		}
	} else {
		if len(ind.seq) != n {
			return false
		}
		for _, v := range ind.seq {
			t := sched.SlotTask(v)
			if t >= n || seen[t] {
				return false
			}
			seen[t] = true
			machine[t] = sched.SlotMachine(v)
		}
	}
	for g, m := range machine {
		if m < 0 || int(m) >= e.NumMachines() || math.IsInf(e.ETCInstance(e.Trace().Tasks[g].Type, int(m)), 1) {
			return false
		}
	}
	return true
}

// popState is a deep copy of everything Inject may change.
type popState struct {
	Seqs  [][]uint32
	Objs  [][]float64
	Ranks []int
	Crowd []float64
}

func capturePop(e *Engine) popState {
	var s popState
	for i := range e.pop {
		ind := &e.pop[i]
		s.Seqs = append(s.Seqs, append([]uint32(nil), ind.seq...))
		s.Objs = append(s.Objs, append([]float64(nil), ind.Objectives...))
		s.Ranks = append(s.Ranks, ind.Rank)
		s.Crowd = append(s.Crowd, ind.Crowding)
	}
	return s
}

// injectPairs renders a seed allocation (machines and orders) as the
// byte pairs injectCandidate decodes.
func injectPairs(machine, order []int) []byte {
	raw := make([]byte, 0, 2*len(machine))
	for g := range machine {
		raw = append(raw, byte(machine[g]+1), byte(order[g]+1))
	}
	return raw
}

// FuzzInjectRejectsMalformed injects a fuzzed migrant, materialized or
// packed, behind up to two valid ones. A migrant the reference check
// rejects must fail Inject with its own index's error and leave the
// population bit-identical; a valid one must be accepted. Nothing may
// panic.
func FuzzInjectRejectsMalformed(f *testing.F) {
	eval := injectEval(f)
	ident := make([]int, injectTasks)
	zeros := make([]int, injectTasks)
	for i := range ident {
		ident[i] = i
	}
	with := func(src []int, g, v int) []int {
		out := append([]int(nil), src...)
		out[g] = v
		return out
	}
	valid := injectPairs(zeros, ident)
	f.Add(false, uint8(1), valid)
	f.Add(true, uint8(2), valid)
	f.Add(false, uint8(0), valid[:len(valid)-2])                   // wrong length
	f.Add(false, uint8(1), injectPairs(zeros, with(ident, 3, 5)))  // duplicate order
	f.Add(false, uint8(2), injectPairs(zeros, with(ident, 4, 40))) // order out of range
	f.Add(false, uint8(0), injectPairs(zeros, with(ident, 5, -1))) // negative order
	f.Add(false, uint8(1), injectPairs(with(zeros, 6, 7), ident))  // machine out of range
	f.Add(false, uint8(2), injectPairs(with(zeros, 0, 2), ident))  // incapable machine
	f.Add(false, uint8(0), injectPairs(with(zeros, 1, -1), ident)) // drop, dropping off
	f.Add(true, uint8(1), injectPairs(zeros, with(ident, 2, 9)))   // task scheduled twice
	f.Add(true, uint8(0), injectPairs(zeros, with(ident, 7, 200))) // task out of range
	f.Add(true, uint8(2), injectPairs(with(zeros, 8, 2), ident))   // incapable machine
	f.Add(true, uint8(1), injectPairs(with(zeros, 9, -1), ident))  // drop, dropping off
	f.Add(true, uint8(0), append(valid, 1, 1))                     // wrong length
	f.Fuzz(func(t *testing.T, packed bool, lead uint8, raw []byte) {
		if len(raw) > 128 {
			raw = raw[:128]
		}
		eng, err := New(eval, Config{PopulationSize: 6, Workers: 1}, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		donor, err := New(eval, Config{PopulationSize: 6, Workers: 1}, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		k := int(lead % 3)
		batch := donor.Elites(k)
		if packed {
			batch = donor.newMigrants(k)
			donor.packElites(batch)
		}
		cand := injectCandidate(packed, raw)
		batch = append(batch, cand)
		before := capturePop(eng)
		err = eng.Inject(batch)
		if injectValid(eval, cand) {
			if err != nil {
				t.Fatalf("valid migrant rejected: %v", err)
			}
			requireArenaInUse(t, eng, "after a valid injection")
			return
		}
		want := fmt.Sprintf("nsga2: injected individual %d invalid", k)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("malformed migrant: error %v, want %q", err, want)
		}
		if after := capturePop(eng); !reflect.DeepEqual(before, after) {
			t.Fatal("a rejected injection changed the population")
		}
		requireArenaInUse(t, eng, "after a rejected injection")
	})
}
