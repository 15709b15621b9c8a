package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"tradeoff/internal/hcs"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/moea"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/workload"
)

// Ground truth on tiny instances: every schedule of a few tasks on three
// machines is enumerated, so the exact utility/energy front is known and
// NSGA-II's front can be measured against it instead of against another
// mode of the same engine.

// roundingRel bounds summation-order rounding relative to an objective's
// magnitude.
const roundingRel = 1e-12

// exactTasks is the task count of the enumerated instances: 8 tasks on 3
// machines is 8!·C(10,2) = 1,814,400 schedules; -short and the race
// detector, which slows the enumeration tenfold, use 6 (20,160).
func exactTasks() int {
	if testing.Short() || raceEnabled {
		return 6
	}
	return 8
}

// tinySystem builds machines general-purpose machines, one instance of
// each type, and two task types that run on all of them. Each machine
// has a speed s in [0.5, 2) and draws power in proportion to s², so a
// faster machine finishes sooner but spends more energy: ETC is a task
// type's base time in [10, 40) s divided by s, EPC is 100·s² W, each
// jittered by up to ±20%.
func tinySystem(src *rng.Source, machines int) *hcs.System {
	b := hcs.NewBuilder()
	var mts []int
	var speed []float64
	for m := 0; m < machines; m++ {
		mts = append(mts, b.MachineType(fmt.Sprintf("m%d", m), hcs.GeneralPurpose, 1))
		speed = append(speed, src.Range(0.5, 2))
	}
	for tt := 0; tt < 2; tt++ {
		ty := b.TaskType(fmt.Sprintf("t%d", tt), hcs.GeneralPurpose)
		base := src.Range(10, 40)
		for m, mt := range mts {
			b.Set(ty, mt, base/speed[m]*src.Range(0.8, 1.2), 100*speed[m]*speed[m]*src.Range(0.8, 1.2))
		}
	}
	sys, err := b.Build()
	if err != nil {
		panic(err)
	}
	return sys
}

// tinyInstance returns a random three-machine system and a trace of n
// tasks arriving within 60 s, so machine queues contend and the order
// on each machine moves utility.
func tinyInstance(t testing.TB, seed uint64, n int) (*hcs.System, *workload.Trace) {
	t.Helper()
	sys := tinySystem(rng.NewStream(seed, 1), 3)
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: 60}, rng.NewStream(seed, 2))
	if err != nil {
		t.Fatal(err)
	}
	return sys, tr
}

// exactFront enumerates every schedule of sys and tr, each machine
// assignment with every order of the tasks on each machine, and returns
// the nondominated [utility, energy] points sorted by increasing energy.
// A schedule is a permutation of the tasks cut into one run per machine:
// every (permutation, cuts) pair is a distinct schedule and every
// schedule has exactly one such pair. Energy depends on the assignment
// alone, so only each assignment's best utility can reach the front.
func exactFront(t testing.TB, sys *hcs.System, tr *workload.Trace) [][]float64 {
	t.Helper()
	e, err := sched.NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	n, m := e.NumTasks(), e.NumMachines()
	keys := 1
	for i := 0; i < n; i++ {
		keys *= m
	}
	bestU, energy := make([]float64, keys), make([]float64, keys)
	for k := range bestU {
		bestU[k] = math.Inf(-1)
	}
	s := e.NewSession()
	a := sched.NewAllocation(n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	cuts := make([]int, m+1)
	cuts[m] = n
	var split func(machine, from int)
	split = func(machine, from int) {
		if machine < m-1 {
			for c := from; c <= n; c++ {
				cuts[machine+1] = c
				split(machine+1, c)
			}
			return
		}
		key := 0
		for mi := 0; mi < m; mi++ {
			for pos := cuts[mi]; pos < cuts[mi+1]; pos++ {
				a.Machine[perm[pos]] = int32(mi)
				a.Order[perm[pos]] = int32(pos)
			}
		}
		for i := n - 1; i >= 0; i-- {
			key = key*m + int(a.Machine[i])
		}
		if ev := s.Evaluate(a); ev.Utility > bestU[key] {
			bestU[key], energy[key] = ev.Utility, ev.Energy
		}
	}
	// Heap's algorithm visits every permutation of perm once.
	c := make([]int, n)
	split(0, 0)
	for i := 0; i < n; {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			split(0, 0)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	points := make([][]float64, keys)
	for k := range points {
		points[k] = []float64{bestU[k], energy[k]}
	}
	return roundedFront(points)
}

// roundedFront returns the points no other point dominates by more than
// summation-order rounding, sorted by increasing energy. Utility and
// energy are sums whose order depends on the machine numbering and the
// queue order, so a plain Pareto filter would let a point survive on a
// one-ulp energy advantage and make the front depend on the numbering.
// Here q rules p out when q is at least as good within the rounding
// tolerance in both objectives and better by more than it in one; near
// duplicates all stay.
func roundedFront(points [][]float64) [][]float64 {
	var tolU, tolE float64
	for _, p := range points {
		tolU, tolE = max(tolU, math.Abs(p[0])), max(tolE, math.Abs(p[1]))
	}
	tolU, tolE = roundingRel*tolU, roundingRel*tolE
	sort.Slice(points, func(i, j int) bool { return points[i][1] < points[j][1] })
	// A point three tolerances below the best utility at no more energy
	// is ruled out by that point; whatever it would rule out, the point
	// that beat it rules out too, so only the survivors need the
	// pairwise check.
	var cand [][]float64
	best := math.Inf(-1)
	for _, p := range points {
		if p[0] >= best-3*tolU {
			cand = append(cand, p)
		}
		best = max(best, p[0])
	}
	var front [][]float64
	for _, p := range cand {
		ruledOut := false
		for _, q := range cand {
			if q[0] >= p[0]-tolU && q[1] <= p[1]+tolE && (q[0] > p[0]+tolU || q[1] < p[1]-tolE) {
				ruledOut = true
				break
			}
		}
		if !ruledOut {
			front = append(front, p)
		}
	}
	return front
}

// normalizedGaps returns the additive ε-indicator and IGD of found
// against the exact front, both computed after scaling each objective
// by the exact front's range, so one gap bound fits every instance.
func normalizedGaps(t *testing.T, found, exact [][]float64) (eps, igd float64) {
	t.Helper()
	lo := []float64{math.Inf(1), math.Inf(1)}
	hi := []float64{math.Inf(-1), math.Inf(-1)}
	for _, p := range exact {
		for k, v := range p {
			lo[k], hi[k] = min(lo[k], v), max(hi[k], v)
		}
	}
	scale := func(set [][]float64) [][]float64 {
		out := make([][]float64, len(set))
		for i, p := range set {
			out[i] = make([]float64, 2)
			for k, v := range p {
				if hi[k] > lo[k] {
					out[i][k] = (v - lo[k]) / (hi[k] - lo[k])
				}
			}
		}
		return out
	}
	sp := moea.UtilityEnergySpace()
	f, x := scale(found), scale(exact)
	eps, err := sp.EpsilonIndicator(f, x)
	if err != nil {
		t.Fatal(err)
	}
	if igd, err = sp.IGD(f, x); err != nil {
		t.Fatal(err)
	}
	return eps, igd
}

// TestOptimizeReachesExactFront runs NSGA-II with the CLI's four
// seeding heuristics and its default seed on random tiny instances and
// holds its front to the enumerated exact front: on every instance a
// normalized additive ε of at most 0.1 and a normalized IGD of at most
// 0.05, and a mean IGD of at most 0.015 over the instances. Measured on
// the six 8-task instances: ε 0 to 0.064, IGD 0 to 0.031, mean IGD
// 0.0075. Because the reference is ground truth, a search fault that
// every mode shares (a selection, variation or archive bug) fails here
// even though all the mode-agreement tests still pass.
func TestOptimizeReachesExactFront(t *testing.T) {
	const maxEps, maxIGD, maxMeanIGD = 0.1, 0.05, 0.015
	const instances = 6
	n := exactTasks()
	var sumIGD float64
	for seed := uint64(1); seed <= instances; seed++ {
		sys, tr := tinyInstance(t, seed, n)
		exact := exactFront(t, sys, tr)
		fw, err := New(sys, tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fw.Optimize(Options{
			Generations:    1000,
			PopulationSize: 100,
			Seeds:          heuristics.All,
			RandomSeed:     1,
			Workers:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		found := make([][]float64, len(res.Front))
		for i, p := range res.Front {
			found[i] = []float64{p.Utility, p.Energy}
			if !dominatedByExact(exact, found[i]) {
				t.Errorf("instance %d: front point %v is not dominated by the exact front: the enumeration missed a schedule", seed, found[i])
			}
		}
		eps, igd := normalizedGaps(t, found, exact)
		sumIGD += igd
		t.Logf("instance %d, %d tasks: exact front %d points, found %d; normalized ε %.3g, IGD %.3g",
			seed, n, len(exact), len(found), eps, igd)
		if eps > maxEps || igd > maxIGD {
			t.Errorf("instance %d: front misses the exact front: normalized ε %.3g (max %g), IGD %.3g (max %g)",
				seed, eps, maxEps, igd, maxIGD)
		}
	}
	if mean := sumIGD / instances; mean > maxMeanIGD {
		t.Errorf("mean normalized IGD %.3g over %d instances, max %g", mean, instances, maxMeanIGD)
	}
}

// dominatedByExact reports whether some exact-front point weakly
// dominates p, allowing 1e-12 relative summation-order rounding.
func dominatedByExact(exact [][]float64, p []float64) bool {
	for _, q := range exact {
		if q[0] >= p[0]-roundingRel*math.Abs(p[0]) && q[1] <= p[1]+roundingRel*math.Abs(p[1]) {
			return true
		}
	}
	return false
}

// sameFront reports whether every point of a lies within 1e-12 relative
// of some point of b in both objectives, and every point of b of some
// point of a.
func sameFront(a, b [][]float64) bool {
	near := func(p, q []float64) bool {
		return math.Abs(p[0]-q[0]) <= roundingRel*math.Abs(q[0]) && math.Abs(p[1]-q[1]) <= roundingRel*math.Abs(q[1])
	}
	covered := func(x, y [][]float64) bool {
		for _, p := range x {
			found := false
			for _, q := range y {
				if near(p, q) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	return covered(a, b) && covered(b, a)
}

// relabeled returns sys with its machines renumbered: new machine j is
// old machine perm[j], carrying its machine type and ETC/EPC columns.
func relabeled(sys *hcs.System, perm []int) *hcs.System {
	out := sys.Clone()
	for j, old := range perm {
		out.MachineTypes[j] = sys.MachineTypes[old]
		for t := 0; t < sys.NumTaskTypes(); t++ {
			out.ETC.Set(t, j, sys.ETC.At(t, old))
			out.EPC.Set(t, j, sys.EPC.At(t, old))
		}
	}
	return out
}

// TestExactFrontMachineRelabeling: renumbering the machines together
// with their ETC/EPC columns renames schedules one to one without
// changing any schedule's utility or energy, so the exact front is the
// same up to summation-order rounding. The relation does not hold for
// one seeded NSGA-II run: relabeling changes which machine each random
// draw picks and the order of the objective reductions.
func TestExactFrontMachineRelabeling(t *testing.T) {
	n := exactTasks()
	for seed := uint64(1); seed <= 2; seed++ {
		sys, tr := tinyInstance(t, seed, n)
		base := exactFront(t, sys, tr)
		for _, perm := range [][]int{{2, 0, 1}, {1, 0, 2}} {
			got := exactFront(t, relabeled(sys, perm), tr)
			if !sameFront(base, got) {
				t.Errorf("seed %d: relabeling %v moved the exact front:\n%v\nwant\n%v", seed, perm, got, base)
			}
		}
	}
}

// withSlowMachine returns sys plus one machine of a new type that is
// strictly dominated on every task type: slower than the slowest and
// hungrier than the hungriest existing machine.
func withSlowMachine(sys *hcs.System) *hcs.System {
	b := hcs.NewBuilder()
	var mts []int
	for _, mt := range sys.MachineTypes {
		mts = append(mts, b.MachineType(mt.Name, mt.Category, 1))
	}
	slow := b.MachineType("slow", hcs.GeneralPurpose, 1)
	for t, tt := range sys.TaskTypes {
		ty := b.TaskType(tt.Name, tt.Category)
		worstETC, worstEPC := 0.0, 0.0
		for mu, mt := range mts {
			b.Set(ty, mt, sys.ETC.At(t, mu), sys.EPC.At(t, mu))
			worstETC, worstEPC = max(worstETC, sys.ETC.At(t, mu)), max(worstEPC, sys.EPC.At(t, mu))
		}
		b.Set(ty, slow, 1.5*worstETC, 1.5*worstEPC)
	}
	out, err := b.Build()
	if err != nil {
		panic(err)
	}
	return out
}

// TestExactFrontAddedMachine: under the execution-only energy model,
// adding a machine never worsens the exact front, because every old
// schedule stays valid with the same utility and energy. The grown
// instances run one task fewer, since a fourth machine multiplies the
// schedule count by (n+3)/3. A strictly dominated machine can still
// improve the front: it adds parallel capacity, so a task that waited in
// a queue can finish earlier there. The last case shows it on one fast
// machine with three tasks arriving at once.
func TestExactFrontAddedMachine(t *testing.T) {
	n := exactTasks() - 1
	for seed := uint64(1); seed <= 3; seed++ {
		sys, tr := tinyInstance(t, seed, n)
		base := exactFront(t, sys, tr)
		grown := exactFront(t, withSlowMachine(sys), tr)
		for _, p := range base {
			if !dominatedByExact(grown, p) {
				t.Errorf("seed %d: adding a machine lost front point %v", seed, p)
			}
		}
	}

	sys := tinySystem(rng.NewStream(1, 1), 1)
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 3, Window: 1}, rng.NewStream(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	base := exactFront(t, sys, tr)
	grown := exactFront(t, withSlowMachine(sys), tr)
	better := 0
	for _, q := range grown {
		if !dominatedByExact(base, q) {
			better++
		}
	}
	if better == 0 {
		t.Errorf("a dominated second machine left the one-machine front %v unchanged: %v", base, grown)
	}
}
