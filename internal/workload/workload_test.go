package workload

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/rng"
	"tradeoff/internal/utility"
)

func genTrace(t *testing.T, n int, window float64, arrival ArrivalProcess) *Trace {
	t.Helper()
	sys := data.RealSystem()
	tr, err := Generate(sys, GenConfig{NumTasks: n, Window: window, Arrival: arrival}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenerateUniform(t *testing.T) {
	tr := genTrace(t, 250, 900, UniformArrivals)
	if tr.NumTasks() != 250 {
		t.Fatalf("NumTasks = %d", tr.NumTasks())
	}
	if err := tr.Validate(data.RealSystem()); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratePoisson(t *testing.T) {
	tr := genTrace(t, 250, 900, PoissonArrivals)
	if err := tr.Validate(data.RealSystem()); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	sys := data.RealSystem()
	cfg := GenConfig{NumTasks: 50, Window: 900}
	a, err := Generate(sys, cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(sys, cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tasks {
		if a.Tasks[i].Type != b.Tasks[i].Type || a.Tasks[i].Arrival != b.Tasks[i].Arrival {
			t.Fatalf("generation not deterministic at task %d", i)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	sys := data.RealSystem()
	src := rng.New(1)
	if _, err := Generate(sys, GenConfig{NumTasks: 0, Window: 10}, src); err == nil {
		t.Error("NumTasks=0 accepted")
	}
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := Generate(sys, GenConfig{NumTasks: 5, Window: w}, src)
		if want := fmt.Sprintf("window %v, want finite and > 0", w); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Window=%v: err %v, want %q", w, err, want)
		}
	}
	if _, err := Generate(sys, GenConfig{NumTasks: 5, Window: 10, TypeWeights: []float64{1}}, src); err == nil {
		t.Error("mismatched TypeWeights accepted")
	}
	if _, err := Generate(sys, GenConfig{NumTasks: 5, Window: 10, Arrival: ArrivalProcess(7)}, src); err == nil {
		t.Error("unknown arrival process accepted")
	}
}

func TestTypeWeightsRespected(t *testing.T) {
	sys := data.RealSystem()
	weights := []float64{0, 0, 1, 0, 0}
	tr, err := Generate(sys, GenConfig{NumTasks: 100, Window: 10, TypeWeights: weights}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tr.Tasks {
		if task.Type != 2 {
			t.Fatalf("task %d has type %d, want 2", task.ID, task.Type)
		}
	}
}

func TestArrivalsSortedAndWithinWindow(t *testing.T) {
	for _, ap := range []ArrivalProcess{UniformArrivals, PoissonArrivals} {
		tr := genTrace(t, 500, 3600, ap)
		prev := -1.0
		for _, task := range tr.Tasks {
			if task.Arrival < prev {
				t.Fatalf("arrivals not sorted (process %d)", ap)
			}
			if task.Arrival < 0 || task.Arrival > 3600 {
				t.Fatalf("arrival %v outside window (process %d)", task.Arrival, ap)
			}
			prev = task.Arrival
		}
	}
}

func TestMaxUtilityPositive(t *testing.T) {
	tr := genTrace(t, 100, 900, UniformArrivals)
	mu := tr.MaxUtility()
	if mu <= 0 {
		t.Fatalf("MaxUtility = %v", mu)
	}
	// Every individual TUF value is bounded by its max.
	var sum float64
	for _, task := range tr.Tasks {
		sum += task.TUF.Value(0)
	}
	if math.Abs(sum-mu) > 1e-9 {
		t.Fatalf("MaxUtility %v != sum of Value(0) %v", mu, sum)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	sys := data.RealSystem()
	fresh := func() *Trace { return genTrace(t, 20, 900, UniformArrivals) }

	tr := fresh()
	tr.Tasks[3].ID = 99
	if err := tr.Validate(sys); err == nil {
		t.Error("non-dense ID accepted")
	}

	tr = fresh()
	tr.Tasks[3].Type = 99
	if err := tr.Validate(sys); err == nil {
		t.Error("bad type accepted")
	}

	tr = fresh()
	tr.Tasks[3].Arrival = -1
	if err := tr.Validate(sys); err == nil {
		t.Error("negative arrival accepted")
	}

	tr = fresh()
	tr.Tasks[3].Arrival = tr.Tasks[10].Arrival + 1 // out of order
	if err := tr.Validate(sys); err == nil {
		t.Error("unsorted arrivals accepted")
	}

	tr = fresh()
	tr.Tasks[3].TUF = nil
	if err := tr.Validate(sys); err == nil {
		t.Error("nil TUF accepted")
	}

	for _, w := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr = fresh()
		tr.Window = w
		if err := tr.Validate(sys); err == nil || !strings.Contains(err.Error(), "want finite and > 0") {
			t.Errorf("window %v: err %v, want a window error", w, err)
		}
	}

	empty := &Trace{Window: 10}
	if err := empty.Validate(sys); err == nil {
		t.Error("empty trace accepted")
	}
}

// distinctTUFs counts a trace's distinct TUF pointers.
func distinctTUFs(tr *Trace) int {
	seen := make(map[*utility.Function]bool)
	for _, task := range tr.Tasks {
		seen[task.TUF] = true
	}
	return len(seen)
}

// TestCloneDeep: a clone copies each distinct TUF once, so it keeps the
// original's sharing without sharing a function with the original, and
// editing the clone leaves the original alone.
func TestCloneDeep(t *testing.T) {
	tr := genTrace(t, 300, 900, UniformArrivals)
	c := tr.Clone()
	if n, m := distinctTUFs(tr), distinctTUFs(c); n != m || n >= tr.NumTasks() {
		t.Fatalf("clone has %d distinct TUFs, original %d over %d tasks", m, n, tr.NumTasks())
	}
	orig := make(map[*utility.Function]bool)
	for _, task := range tr.Tasks {
		orig[task.TUF] = true
	}
	for i, task := range c.Tasks {
		if orig[task.TUF] {
			t.Fatalf("clone task %d shares its TUF with the original", i)
		}
	}
	for i := range tr.Tasks {
		for j := range tr.Tasks[:i] {
			if (tr.Tasks[i].TUF == tr.Tasks[j].TUF) != (c.Tasks[i].TUF == c.Tasks[j].TUF) {
				t.Fatalf("tasks %d and %d: sharing differs between original and clone", j, i)
			}
		}
	}
	c.Tasks[0].Arrival = 1e9
	c.Tasks[0].TUF.Priority = 1e9
	c.Tasks[0].TUF.Segments[0].Duration = 1e9
	if tr.Tasks[0].Arrival == 1e9 || tr.Tasks[0].TUF.Priority == 1e9 || tr.Tasks[0].TUF.Segments[0].Duration == 1e9 {
		t.Fatal("Clone aliases original")
	}
}

// TestDefaultTUFPolicySharesFunctions: one policy returns the same
// function for every repeat of a (priority, horizon, shape), and it
// consumes the same draws and builds the same function values as a
// fresh policy that has shared nothing yet.
func TestDefaultTUFPolicySharesFunctions(t *testing.T) {
	sys := data.RealSystem()
	p := NewDefaultTUFPolicy(sys)
	shared, fresh := rng.New(9), rng.New(9)
	byValue := make(map[string]*utility.Function)
	for i := 0; i < 2000; i++ {
		ty := i % sys.NumTaskTypes()
		f := p.NewTUF(shared, ty)
		g := NewDefaultTUFPolicy(sys).NewTUF(fresh, ty)
		if *shared != *fresh {
			t.Fatalf("draw %d: shared policy consumed different draws", i)
		}
		if !reflect.DeepEqual(f, g) {
			t.Fatalf("draw %d: shared function %+v, fresh %+v", i, f, g)
		}
		key := fmt.Sprint(*f)
		if prev, ok := byValue[key]; ok && prev != f {
			t.Fatalf("draw %d: equal functions %+v not shared", i, *f)
		}
		byValue[key] = f
	}
	if limit := len(p.Classes) * len(p.UrgencyLevels) * 3 * sys.NumTaskTypes(); len(byValue) > limit {
		t.Fatalf("%d distinct functions, at most %d possible", len(byValue), limit)
	}
}

// TestDefaultTUFPolicyNewTUFAllocs: repeating a built (class, level,
// shape) allocates nothing, not even the class weights.
func TestDefaultTUFPolicyNewTUFAllocs(t *testing.T) {
	p := NewDefaultTUFPolicy(data.RealSystem())
	base := *rng.New(11)
	src := new(rng.Source)
	*src = base
	f := p.NewTUF(src, 3)
	allocs := testing.AllocsPerRun(100, func() {
		*src = base
		if p.NewTUF(src, 3) != f {
			t.Fatal("repeated draw returned a new function")
		}
	})
	if allocs != 0 {
		t.Fatalf("repeated NewTUF allocates %v times, want 0", allocs)
	}
}

func TestDefaultTUFPolicyScalesToExecTime(t *testing.T) {
	sys := data.RealSystem()
	p := NewDefaultTUFPolicy(sys)
	if len(p.AvgExec) != sys.NumTaskTypes() {
		t.Fatal("AvgExec length wrong")
	}
	// Kernel compile (type 4) is the longest task; its TUF horizons must
	// exceed those of Warsow (type 2), the shortest.
	src := rng.New(3)
	var hLong, hShort float64
	for i := 0; i < 200; i++ {
		hLong += p.NewTUF(src, 4).Horizon()
		hShort += p.NewTUF(src, 2).Horizon()
	}
	if hLong <= hShort {
		t.Fatalf("TUF horizons not scaled to execution time: long=%v short=%v", hLong, hShort)
	}
}

func TestDefaultTUFPolicyProducesValidMonotoneFunctions(t *testing.T) {
	sys := data.RealSystem()
	p := NewDefaultTUFPolicy(sys)
	src := rng.New(4)
	for i := 0; i < 500; i++ {
		f := p.NewTUF(src, i%sys.NumTaskTypes())
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

type fixedTUF struct{ f *utility.Function }

func (p fixedTUF) NewTUF(_ *rng.Source, _ int) *utility.Function { return p.f }

func TestCustomTUFPolicy(t *testing.T) {
	sys := data.RealSystem()
	f := utility.StepDeadline(5, 100)
	tr, err := Generate(sys, GenConfig{NumTasks: 10, Window: 50, TUF: fixedTUF{f}}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tr.Tasks {
		if task.TUF.MaxValue() != 5 {
			t.Fatal("custom TUF policy ignored")
		}
	}
}

func BenchmarkGenerate1000(b *testing.B) {
	sys := data.RealSystem()
	cfg := GenConfig{NumTasks: 1000, Window: 900}
	for i := 0; i < b.N; i++ {
		if _, err := Generate(sys, cfg, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBurstArrivalsShape(t *testing.T) {
	tr := genTrace(t, 2000, 3600, BurstArrivals)
	if err := tr.Validate(data.RealSystem()); err != nil {
		t.Fatal(err)
	}
	// Count tasks inside the three 5%-wide burst windows: must be well
	// above the uniform expectation (15% of tasks).
	inBurst := 0
	for _, task := range tr.Tasks {
		for b := 0; b < 3; b++ {
			c := 3600 * (float64(b) + 0.5) / 3
			if task.Arrival >= c-90 && task.Arrival <= c+90 {
				inBurst++
				break
			}
		}
	}
	frac := float64(inBurst) / 2000
	if frac < 0.5 {
		t.Fatalf("burst windows hold %.0f%% of tasks, want >= 50%%", frac*100)
	}
}
