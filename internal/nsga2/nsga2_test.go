package nsga2

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"tradeoff/internal/data"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/moea"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/workload"
)

func newEval(t testing.TB, n int) *sched.Evaluator {
	t.Helper()
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: 900}, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sched.NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newEngine(t testing.TB, tasks int, cfg Config, seed uint64) *Engine {
	t.Helper()
	eng, err := New(newEval(t, tasks), cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestConfigValidation(t *testing.T) {
	e := newEval(t, 10)
	cases := []Config{
		{PopulationSize: 3},                      // odd
		{PopulationSize: -4},                     // negative
		{PopulationSize: 10, MutationRate: 1.5},  // bad rate
		{PopulationSize: 10, MutationRate: -0.5}, // bad rate
		{PopulationSize: 10, Workers: -1},        // bad workers
		{PopulationSize: 10, Ranking: Ranking(9)},
		{PopulationSize: 10, Repair: Repair(9)},
	}
	for i, cfg := range cases {
		if _, err := New(e, cfg, rng.New(1)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(e, Config{}, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestInitialPopulationSizeAndValidity(t *testing.T) {
	eng := newEngine(t, 40, Config{PopulationSize: 20}, 1)
	pop := eng.Population()
	if len(pop) != 20 {
		t.Fatalf("population size %d, want 20", len(pop))
	}
	for i, ind := range pop {
		if ind.Objectives == nil || len(ind.Objectives) != 2 {
			t.Fatalf("individual %d not evaluated", i)
		}
		if ind.Rank < 1 {
			t.Fatalf("individual %d not ranked", i)
		}
	}
}

func TestSeedsEnterInitialPopulation(t *testing.T) {
	e := newEval(t, 60)
	seed := heuristics.BuildMinEnergy(e)
	eng, err := New(e, Config{PopulationSize: 10, Seeds: []*sched.Allocation{seed}}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	want := e.Evaluate(seed)
	found := false
	for _, ind := range eng.Population() {
		if math.Abs(ind.Objectives[0]-want.Utility) < 1e-9 && math.Abs(ind.Objectives[1]-want.Energy) < 1e-9 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("seed objectives not present in initial population")
	}
}

func TestInvalidSeedRejected(t *testing.T) {
	e := newEval(t, 10)
	bad := sched.NewAllocation(3) // wrong length
	if _, err := New(e, Config{PopulationSize: 4, Seeds: []*sched.Allocation{bad}}, rng.New(3)); err == nil {
		t.Fatal("invalid seed accepted")
	}
}

func TestStepKeepsPopulationValid(t *testing.T) {
	eng := newEngine(t, 50, Config{PopulationSize: 16, MutationRate: 0.5}, 4)
	e := eng.eval
	for g := 0; g < 20; g++ {
		eng.Step()
		for i, ind := range eng.Population() {
			if err := e.Validate(ind.Alloc); err != nil {
				t.Fatalf("gen %d individual %d invalid: %v", g, i, err)
			}
		}
	}
	if eng.Generation() != 20 {
		t.Fatalf("Generation = %d", eng.Generation())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() [][]float64 {
		eng := newEngine(t, 40, Config{PopulationSize: 12, Workers: 4}, 7)
		eng.Run(15)
		return eng.FrontPoints()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("front sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Fatalf("fronts diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	runWith := func(workers int) [][]float64 {
		eng := newEngine(t, 40, Config{PopulationSize: 12, Workers: workers}, 8)
		eng.Run(10)
		return eng.FrontPoints()
	}
	serial := runWith(1)
	parallel := runWith(8)
	if len(serial) != len(parallel) {
		t.Fatalf("front sizes differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i][0] != parallel[i][0] || serial[i][1] != parallel[i][1] {
			t.Fatalf("serial/parallel fronts diverge at %d", i)
		}
	}
}

// TestFanoutRepanicsOnCaller requires a worker goroutine's panic to
// reach the fanout caller, recoverable, with the lowest-numbered
// panicking worker's value, and to leave no stale value behind for the
// next fan-out.
func TestFanoutRepanicsOnCaller(t *testing.T) {
	eng := newEngine(t, 40, Config{PopulationSize: 8, Workers: 4}, 3)
	recovered := func() (got any) {
		defer func() { got = recover() }()
		eng.fanout(8, func(w, lo, hi int) {
			if w >= 1 {
				panic(w)
			}
		})
		return nil
	}()
	if recovered != 1 {
		t.Fatalf("recovered %v, want worker 1's panic value", recovered)
	}
	eng.fanout(8, func(w, lo, hi int) {})
	eng.Run(2)
}

func TestElitismExtremesNeverRegress(t *testing.T) {
	eng := newEngine(t, 60, Config{PopulationSize: 20, MutationRate: 0.3}, 9)
	bestU, bestE := math.Inf(-1), math.Inf(1)
	for _, ind := range eng.pop {
		bestU = math.Max(bestU, ind.Objectives[0])
		bestE = math.Min(bestE, ind.Objectives[1])
	}
	for g := 0; g < 40; g++ {
		eng.Step()
		curU, curE := math.Inf(-1), math.Inf(1)
		for _, ind := range eng.pop {
			curU = math.Max(curU, ind.Objectives[0])
			curE = math.Min(curE, ind.Objectives[1])
		}
		if curU < bestU-1e-9 {
			t.Fatalf("gen %d: best utility regressed %v -> %v", g, bestU, curU)
		}
		if curE > bestE+1e-9 {
			t.Fatalf("gen %d: best energy regressed %v -> %v", g, bestE, curE)
		}
		bestU, bestE = curU, curE
	}
}

func TestHypervolumeNonDecreasing(t *testing.T) {
	eng := newEngine(t, 60, Config{PopulationSize: 20}, 10)
	sp := moea.UtilityEnergySpace()
	// Fixed, clearly dominated reference point.
	ref := []float64{0, 1e12}
	prev := sp.Hypervolume2D(eng.FrontPoints(), ref)
	for g := 0; g < 30; g++ {
		eng.Step()
		hv := sp.Hypervolume2D(eng.FrontPoints(), ref)
		if hv < prev-1e-6 {
			t.Fatalf("gen %d: hypervolume decreased %v -> %v", g, prev, hv)
		}
		prev = hv
	}
}

func TestFrontImprovesOverRandom(t *testing.T) {
	eng := newEngine(t, 80, Config{PopulationSize: 30}, 11)
	initial := eng.FrontPoints()
	eng.Run(60)
	final := eng.FrontPoints()
	sp := moea.UtilityEnergySpace()
	ref := sp.ReferenceFrom(0.05, initial, final)
	hv0 := sp.Hypervolume2D(initial, ref)
	hv1 := sp.Hypervolume2D(final, ref)
	if !(hv1 > hv0) {
		t.Fatalf("no improvement: HV %v -> %v", hv0, hv1)
	}
}

func TestParetoFrontMutuallyNondominated(t *testing.T) {
	eng := newEngine(t, 50, Config{PopulationSize: 20}, 12)
	eng.Run(10)
	sp := moea.UtilityEnergySpace()
	front := eng.FrontPoints()
	for i := range front {
		for j := range front {
			if i != j && sp.Dominates(front[i], front[j]) {
				t.Fatal("rank-1 set contains dominated point")
			}
		}
	}
	// Sorted by utility descending.
	if !sort.SliceIsSorted(front, func(i, j int) bool { return front[i][0] > front[j][0] }) {
		t.Fatal("front not sorted by utility")
	}
}

// randomParent draws a parent for the merge tests: a random order
// permutation and machines in [-1, machines), dropped genes included.
func randomParent(src *rng.Source, n, machines int) *sched.Allocation {
	a := &sched.Allocation{Machine: make([]int32, n), Order: make([]int32, n)}
	src.PermInto32(a.Order)
	for g := range a.Machine {
		a.Machine[g] = int32(src.Intn(machines+1)) - 1
	}
	return a
}

// TestRepairOrderProperty holds the merged children and their
// histograms to the counting-sort reference on random parents and
// segments, forcing segments of length 1 and n on some draws, and the
// sequence mutation to the reference edit, forcing x = y and g ∈ {x, y}.
func TestRepairOrderProperty(t *testing.T) {
	check := func(seed uint32, nRaw, mRaw, shape uint8) bool {
		n, machines := int(nRaw%30)+1, int(mRaw%5)+1
		src := rng.New(uint64(seed))
		p1, p2 := randomParent(src, n, machines), randomParent(src, n, machines)
		i, j := src.Intn(n), src.Intn(n)
		if i > j {
			i, j = j, i
		}
		switch shape % 4 {
		case 1:
			j = i // one-gene segment
		case 2:
			i, j = 0, n-1 // the whole chromosome
		}
		if err := checkMerge(p1, p2, i, j, machines); err != nil {
			t.Log(err)
			return false
		}
		g, x, y := src.Intn(n), src.Intn(n), src.Intn(n)
		switch shape % 3 {
		case 1:
			y = x
		case 2:
			x = g
		}
		if shape%5 == 0 {
			y = g
		}
		if err := checkMutate(p1, g, int32(src.Intn(machines)), x, y, machines); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRepairOrderIdentityOnPermutation: merging a parent with itself
// returns it unchanged over every segment, and swapping the whole
// chromosome returns the parents exchanged.
func TestRepairOrderIdentityOnPermutation(t *testing.T) {
	p := &sched.Allocation{Machine: []int32{0, -1, 1, 0}, Order: []int32{3, 1, 0, 2}}
	q := &sched.Allocation{Machine: []int32{1, 1, -1, 0}, Order: []int32{0, 2, 3, 1}}
	n := p.Len()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if err := checkMerge(p, p, i, j, 2); err != nil {
				t.Fatal(err)
			}
			c1, c2 := make([]uint32, n), make([]uint32, n)
			mergePair(packed(p), packed(p), c1, c2, make([]int32, 3), make([]int32, 3), i, j)
			if want := packed(p); !reflect.DeepEqual(c1, want) || !reflect.DeepEqual(c2, want) {
				t.Fatalf("segment [%d,%d]: self-merge changed the parent: %v, %v, want %v", i, j, c1, c2, want)
			}
		}
	}
	c1, c2 := make([]uint32, n), make([]uint32, n)
	mergePair(packed(p), packed(q), c1, c2, make([]int32, 3), make([]int32, 3), 0, n-1)
	if !reflect.DeepEqual(c1, packed(q)) || !reflect.DeepEqual(c2, packed(p)) {
		t.Fatalf("whole-chromosome swap: children %v, %v, want the parents exchanged", c1, c2)
	}
}

func TestCrossoverProducesValidChildren(t *testing.T) {
	eng := newEngine(t, 30, Config{PopulationSize: 10}, 13)
	e := eng.eval
	n, nm := e.NumTasks(), e.NumMachines()
	s1, s2 := make([]uint32, n), make([]uint32, n)
	h1, h2 := make([]int32, nm+1), make([]int32, nm+1)
	for trial := 0; trial < 100; trial++ {
		p1 := packed(e.RandomAllocation(eng.src))
		p2 := packed(e.RandomAllocation(eng.src))
		lo, hi := eng.src.Intn(n), eng.src.Intn(n)
		if lo > hi {
			lo, hi = hi, lo
		}
		mergePair(p1, p2, s1, s2, h1, h2, lo, hi)
		for k, s := range [][]uint32{s1, s2} {
			var c sched.Allocation
			sched.UnpackSlots(s, &c)
			if err := e.Validate(&c); err != nil {
				t.Fatalf("child %d invalid: %v", k+1, err)
			}
		}
	}
}

func TestMutationProducesValidAllocations(t *testing.T) {
	eng := newEngine(t, 30, Config{PopulationSize: 10}, 14)
	e := eng.eval
	a := e.RandomAllocation(eng.src)
	seq := packed(a)
	counts := refHistogram(a, e.NumMachines())
	for trial := 0; trial < 200; trial++ {
		eng.mutateWith(seq, counts, eng.src)
		sched.UnpackSlots(seq, a)
		if err := e.Validate(a); err != nil {
			t.Fatalf("mutated allocation invalid: %v", err)
		}
		if want := refHistogram(a, e.NumMachines()); !reflect.DeepEqual(counts[1:], want[1:]) {
			t.Fatalf("mutated histogram %v, want %v", counts[1:], want[1:])
		}
	}
}

func TestShuffleRepairStillValid(t *testing.T) {
	eng := newEngine(t, 30, Config{PopulationSize: 10, Repair: ShuffleRepair}, 15)
	eng.Run(5)
	for i, ind := range eng.Population() {
		if err := eng.eval.Validate(ind.Alloc); err != nil {
			t.Fatalf("individual %d invalid under shuffle repair: %v", i, err)
		}
	}
}

func TestDominanceCountRankingRuns(t *testing.T) {
	eng := newEngine(t, 40, Config{PopulationSize: 16, Ranking: DominanceCount}, 16)
	eng.Run(10)
	front := eng.FrontPoints()
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	sp := moea.UtilityEnergySpace()
	for i := range front {
		for j := range front {
			if i != j && sp.Dominates(front[i], front[j]) {
				t.Fatal("dominance-count front contains dominated point")
			}
		}
	}
}

func TestRunCheckpoints(t *testing.T) {
	eng := newEngine(t, 30, Config{PopulationSize: 10}, 17)
	var gens []int
	err := eng.RunCheckpoints([]int{2, 5, 5, 9}, func(g int, front []Individual) {
		gens = append(gens, g)
		if len(front) == 0 {
			t.Fatal("empty front at checkpoint")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 5, 5, 9}
	for i := range want {
		if gens[i] != want[i] {
			t.Fatalf("checkpoint generations %v, want %v", gens, want)
		}
	}
	if err := eng.RunCheckpoints([]int{12, 10}, func(int, []Individual) {}); err == nil {
		t.Fatal("decreasing checkpoint list accepted")
	}
}

func TestPopulationReturnsCopies(t *testing.T) {
	eng := newEngine(t, 20, Config{PopulationSize: 10}, 18)
	pop := eng.Population()
	pop[0].Alloc.Machine[0] = -99
	pop[0].Objectives[0] = -99
	if again := eng.Population(); again[0].Alloc.Machine[0] == -99 || eng.pop[0].Objectives[0] == -99 {
		t.Fatal("Population exposes internal state")
	}
}

func TestSelectSurvivorsPrefersLowerRank(t *testing.T) {
	eng := newEngine(t, 40, Config{PopulationSize: 8}, 19)
	eng.Run(5)
	// Every survivor must have rank computed, and if any individual has
	// rank > 1 then the front-1 count must be below the population size.
	front1 := 0
	for _, ind := range eng.pop {
		if ind.Rank == 1 {
			front1++
		}
	}
	if front1 == 0 {
		t.Fatal("no rank-1 individuals after selection")
	}
}

func TestRankingAndRepairStrings(t *testing.T) {
	if DebFronts.String() != "deb-fronts" || DominanceCount.String() != "dominance-count" {
		t.Fatal("Ranking strings wrong")
	}
	if RerankRepair.String() != "rerank" || ShuffleRepair.String() != "shuffle" {
		t.Fatal("Repair strings wrong")
	}
	if Ranking(9).String() == "" || Repair(9).String() == "" {
		t.Fatal("unknown enum strings empty")
	}
}

func BenchmarkStep250Pop100(b *testing.B) {
	eng := newEngine(b, 250, Config{PopulationSize: 100}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkStepSerial250Pop100(b *testing.B) {
	eng := newEngine(b, 250, Config{PopulationSize: 100, Workers: 1}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func TestTournamentSelectionRuns(t *testing.T) {
	eng := newEngine(t, 40, Config{PopulationSize: 16, Selection: TournamentSelection}, 20)
	eng.Run(10)
	if len(eng.FrontPoints()) == 0 {
		t.Fatal("empty front under tournament selection")
	}
	for i, ind := range eng.Population() {
		if err := eng.eval.Validate(ind.Alloc); err != nil {
			t.Fatalf("individual %d invalid: %v", i, err)
		}
	}
}

func TestUnknownSelectionRejected(t *testing.T) {
	e := newEval(t, 10)
	if _, err := New(e, Config{PopulationSize: 4, Selection: Selection(9)}, rng.New(1)); err == nil {
		t.Fatal("unknown selection accepted")
	}
}

func TestSelectionString(t *testing.T) {
	if UniformSelection.String() != "uniform" || TournamentSelection.String() != "tournament" {
		t.Fatal("Selection strings wrong")
	}
	if Selection(9).String() == "" {
		t.Fatal("unknown selection empty")
	}
}

func TestTournamentConvergesAtLeastAsFast(t *testing.T) {
	// Tournament selection focuses reproduction on good individuals; on
	// this instance its hypervolume after a fixed budget should not be
	// drastically worse than uniform selection's.
	run := func(sel Selection) float64 {
		eng := newEngine(t, 60, Config{PopulationSize: 20, Selection: sel}, 21)
		eng.Run(40)
		sp := moea.UtilityEnergySpace()
		return sp.Hypervolume2D(eng.FrontPoints(), []float64{0, 1e12})
	}
	u := run(UniformSelection)
	tn := run(TournamentSelection)
	if tn < 0.7*u {
		t.Fatalf("tournament hypervolume %v collapsed vs uniform %v", tn, u)
	}
}

func TestMakespanEnergyProblem(t *testing.T) {
	eng := newEngine(t, 60, Config{PopulationSize: 16, Problem: MakespanEnergyProblem()}, 22)
	initialBest := math.Inf(1)
	for _, ind := range eng.pop {
		initialBest = math.Min(initialBest, ind.Objectives[0])
	}
	eng.Run(30)
	front := eng.FrontPoints()
	if len(front) == 0 {
		t.Fatal("empty makespan-energy front")
	}
	// Front sorted ascending (minimize first objective).
	for i := 1; i < len(front); i++ {
		if front[i][0] < front[i-1][0] {
			t.Fatal("makespan-energy front not sorted ascending")
		}
	}
	// Elitism under minimization: best makespan never worse than start.
	best := math.Inf(1)
	for _, p := range front {
		best = math.Min(best, p[0])
	}
	if best > initialBest+1e-9 {
		t.Fatalf("best makespan regressed: %v -> %v", initialBest, best)
	}
	// Mutual nondominance under the min/min space.
	sp := moea.NewSpace(moea.Minimize, moea.Minimize)
	for i := range front {
		for j := range front {
			if i != j && sp.Dominates(front[i], front[j]) {
				t.Fatal("makespan-energy front contains dominated point")
			}
		}
	}
}

func TestInvalidProblemRejected(t *testing.T) {
	e := newEval(t, 10)
	if _, err := New(e, Config{PopulationSize: 4, Problem: &Problem{Name: "broken"}}, rng.New(1)); err == nil {
		t.Fatal("problem without objectives accepted")
	}
}

func TestMakespanAndUtilityProblemsDiffer(t *testing.T) {
	// The two formulations pull toward different allocations: compare
	// best utility of the makespan engine vs the utility engine.
	utilEng := newEngine(t, 80, Config{PopulationSize: 20}, 23)
	makeEng := newEngine(t, 80, Config{PopulationSize: 20, Problem: MakespanEnergyProblem()}, 23)
	utilEng.Run(40)
	makeEng.Run(40)
	// Re-evaluate the makespan engine's front under the utility problem.
	sess := makeEng.eval.NewSession()
	bestMakeU := math.Inf(-1)
	for _, ind := range makeEng.ParetoFront() {
		ev := sess.Evaluate(ind.Allocation())
		bestMakeU = math.Max(bestMakeU, ev.Utility)
	}
	bestUtilU := math.Inf(-1)
	for _, p := range utilEng.FrontPoints() {
		bestUtilU = math.Max(bestUtilU, p[0])
	}
	if !(bestUtilU >= bestMakeU*0.9) {
		t.Fatalf("utility-problem engine (%v) should be competitive with makespan engine (%v) on utility",
			bestUtilU, bestMakeU)
	}
}
