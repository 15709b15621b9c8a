package core

import (
	"fmt"
	"testing"

	"tradeoff/internal/experiments"
	"tradeoff/internal/hcs"
	"tradeoff/internal/heuristics"
)

// doubledEPC returns a copy of sys with every capable EPC entry doubled.
func doubledEPC(sys *hcs.System) *hcs.System {
	out := sys.Clone()
	for t := 0; t < out.EPC.Rows(); t++ {
		for mu := 0; mu < out.EPC.Cols(); mu++ {
			if out.Capable(t, mu) {
				out.EPC.Set(t, mu, 2*out.EPC.At(t, mu))
			}
		}
	}
	return out
}

// TestOptimizeEPCScalingMetamorphic is a metamorphic oracle that needs
// no reference front: doubling every machine's power draw doubles every
// task's energy and leaves its utility alone. Scaling by 2 is exact in
// floating point, and dominance, crowding distance and every seeding
// heuristic's comparisons are invariant under it, so the optimizer must
// reach the same front with each energy exactly doubled and each
// utility unchanged — on data sets 1-3, from the four CLI seed
// heuristics, on one population and on a 4-island ring.
func TestOptimizeEPCScalingMetamorphic(t *testing.T) {
	for dsNum := 1; dsNum <= 3; dsNum++ {
		ds, err := experiments.ByNumber(dsNum, 1)
		if err != nil {
			t.Fatal(err)
		}
		base, err := New(ds.System, ds.Trace)
		if err != nil {
			t.Fatal(err)
		}
		scaled, err := New(doubledEPC(ds.System), ds.Trace)
		if err != nil {
			t.Fatal(err)
		}
		for _, islands := range []int{0, 4} {
			t.Run(fmt.Sprintf("ds%d/islands%d", dsNum, islands), func(t *testing.T) {
				opts := Options{
					Generations:       20,
					PopulationSize:    20,
					Seeds:             heuristics.All,
					RandomSeed:        7,
					Workers:           1,
					Islands:           islands,
					MigrationInterval: 5,
				}
				want, err := base.Optimize(opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := scaled.Optimize(opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Front) < 2 {
					t.Fatalf("front of %d points is too small to exercise the relation", len(want.Front))
				}
				if len(got.Front) != len(want.Front) {
					t.Fatalf("front size %d with doubled EPC, %d without", len(got.Front), len(want.Front))
				}
				for i, p := range want.Front {
					q := got.Front[i]
					if q.Utility != p.Utility || q.Energy != 2*p.Energy {
						t.Fatalf("point %d: doubled EPC gives (%v, %v), want (%v, %v)",
							i, q.Utility, q.Energy, p.Utility, 2*p.Energy)
					}
				}
			})
		}
	}
}
