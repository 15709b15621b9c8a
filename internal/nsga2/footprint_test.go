package nsga2

import "testing"

// TestBreedingScratchIsPerWorker pins the fused pipeline's footprint:
// after a warm Step the engine holds two machine histograms and dirty
// rows and one DeltaPlan per breeding worker (at most one worker per
// pair), not one per offspring. Children are merged straight into their
// own arena sequences, so no per-worker slot rows exist.
func TestBreedingScratchIsPerWorker(t *testing.T) {
	for _, tc := range []struct{ workers, pop, want int }{
		{workers: 1, pop: 20, want: 1},
		{workers: 4, pop: 20, want: 4},
		{workers: 8, pop: 10, want: 5},
	} {
		eng := newEngine(t, 40, Config{PopulationSize: tc.pop, Workers: tc.workers}, 5)
		eng.SetObserver(&recorder{})
		eng.Run(2)
		if len(eng.mcounts) != 2*tc.want || len(eng.dirty) != 2*tc.want {
			t.Fatalf("workers=%d pop=%d: %d histograms, %d dirty rows, want %d each",
				tc.workers, tc.pop, len(eng.mcounts), len(eng.dirty), 2*tc.want)
		}
		if len(eng.plans) != tc.want {
			t.Fatalf("workers=%d pop=%d: %d plans, want %d", tc.workers, tc.pop, len(eng.plans), tc.want)
		}
	}
}
