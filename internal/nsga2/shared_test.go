package nsga2

import (
	"reflect"
	"testing"

	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// TestSharedGenomesSurviveSteps holds a ParetoFront, whose individuals
// share their population members' genomes, while a single engine and a
// migrating 4-island ring each run 50 more generations. Every held
// individual must still materialize the allocation it had when the
// front was taken, and re-evaluate to its objectives: a shared genome
// the arena recycled into an offspring would be overwritten by the
// offspring's merge.
func TestSharedGenomesSurviveSteps(t *testing.T) {
	eval := newEval(t, 60)
	eng, err := New(eval, Config{PopulationSize: 16, Workers: 2}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	is, err := NewIslands(eval, IslandConfig{
		Islands:           4,
		MigrationInterval: 5,
		Migrants:          2,
		Engine:            Config{PopulationSize: 16, Workers: 2},
	}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		front   func() []Individual
		run     func(int)
		engines []*Engine
	}{
		{"engine", eng.ParetoFront, eng.Run, []*Engine{eng}},
		{"islands", is.ParetoFront, is.Run, is.shard.engines},
	}
	for _, tc := range cases {
		tc.run(5)
		held := tc.front()
		if len(held) == 0 {
			t.Fatalf("%s: empty front", tc.name)
		}
		want := make([]*sched.Allocation, len(held))
		for i, ind := range held {
			if ind.Alloc != nil {
				t.Fatalf("%s: front individual %d carries a copied Alloc", tc.name, i)
			}
			want[i] = ind.Allocation()
		}
		tc.run(50)

		live := make(map[*uint32]bool)
		for _, e := range tc.engines {
			for i := range e.pop {
				live[&e.pop[i].seq[0]] = true
			}
		}
		fallen := 0
		for i, ind := range held {
			if !live[&ind.seq[0]] {
				fallen++
			}
			got := ind.Allocation()
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: held individual %d's allocation changed over 50 generations", tc.name, i)
			}
			ev := eval.Evaluate(got)
			if ev.Utility != ind.Objectives[0] || ev.Energy != ind.Objectives[1] {
				t.Fatalf("%s: held individual %d re-evaluates to (%v, %v), holds %v",
					tc.name, i, ev.Utility, ev.Energy, ind.Objectives)
			}
		}
		if fallen == 0 {
			t.Fatalf("%s: no held genome left the population, so none was tested", tc.name)
		}
	}
}

// TestFrontPointsSharesNothing: FrontPoints copies the front's
// objective vectors, in ParetoFront's order, and marks no genome
// shared, so the arena keeps recycling every genome after it.
func TestFrontPointsSharesNothing(t *testing.T) {
	eng := newEngine(t, 40, Config{PopulationSize: 12}, 9)
	eng.Run(3)
	pts := eng.FrontPoints()
	for i := range eng.pop {
		if eng.pop[i].shared {
			t.Fatalf("FrontPoints marked population member %d shared", i)
		}
	}
	front := eng.ParetoFront()
	if len(front) == 0 || len(front) != len(pts) {
		t.Fatalf("FrontPoints has %d points, ParetoFront %d members", len(pts), len(front))
	}
	for i := range pts {
		if !reflect.DeepEqual(pts[i], front[i].Objectives) {
			t.Fatalf("point %d: FrontPoints %v, ParetoFront %v", i, pts[i], front[i].Objectives)
		}
	}
	pts[0][0] = -1
	if eng.FrontPoints()[0][0] == -1 {
		t.Fatal("FrontPoints returned the population's own objective vector")
	}
}
