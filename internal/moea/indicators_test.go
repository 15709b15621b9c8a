package moea

import (
	"math"
	"testing"

	"tradeoff/internal/rng"
)

// newFineArchive returns an ε-archive whose boxes are fine enough that
// every distinct point below gets its own box, so box dominance is
// Pareto dominance.
func newFineArchive(sp Space, maxSize int) *Archive {
	eps := make([]float64, sp.Dim())
	for k := range eps {
		eps[k] = 1e-9
	}
	return NewEpsilonArchive(sp, eps, maxSize)
}

func TestArchiveBasics(t *testing.T) {
	ar := newFineArchive(UtilityEnergySpace(), 16)
	if !ar.Add(ptA, 0) {
		t.Fatal("first add rejected")
	}
	if ar.Add(ptB, 1) {
		t.Fatal("dominated point accepted")
	}
	if !ar.Add(ptC, 2) {
		t.Fatal("incomparable point rejected")
	}
	if ar.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ar.Len())
	}
}

func TestArchiveEviction(t *testing.T) {
	ar := newFineArchive(UtilityEnergySpace(), 16)
	ar.Add([]float64{5, 5}, 1)
	ar.Add([]float64{4, 4}, 2)
	// Dominates both.
	if !ar.Add([]float64{6, 3}, 3) {
		t.Fatal("dominating point rejected")
	}
	if ar.Len() != 1 {
		t.Fatalf("Len = %d after eviction, want 1", ar.Len())
	}
	if ar.Payloads()[0] != 3 {
		t.Fatal("wrong survivor")
	}
}

func TestArchiveRejectsDuplicates(t *testing.T) {
	ar := newFineArchive(UtilityEnergySpace(), 16)
	ar.Add([]float64{5, 5}, 1)
	if ar.Add([]float64{5, 5}, 2) {
		t.Fatal("duplicate accepted")
	}
}

func TestArchiveInvariantNondominated(t *testing.T) {
	sp := UtilityEnergySpace()
	ar := newFineArchive(sp, 1<<16)
	src := rng.New(3)
	for i := 0; i < 500; i++ {
		ar.Add([]float64{src.Range(0, 10), src.Range(0, 10)}, i)
	}
	pts := ar.Points()
	for i := range pts {
		for j := range pts {
			if i != j && sp.Dominates(pts[i], pts[j]) {
				t.Fatal("archive contains dominated point")
			}
		}
	}
	// Points sorted by utility descending.
	for i := 1; i < len(pts); i++ {
		if pts[i][0] > pts[i-1][0] {
			t.Fatal("archive points not sorted")
		}
	}
}

func TestArchivePointsAreCopies(t *testing.T) {
	ar := newFineArchive(UtilityEnergySpace(), 16)
	ar.Add([]float64{5, 5}, 0)
	pts := ar.Points()
	pts[0][0] = 999
	if ar.Points()[0][0] == 999 {
		t.Fatal("Points exposes internal storage")
	}
}

func TestHypervolume2DKnownArea(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	pts := [][]float64{{1, 3}, {2, 2}, {3, 1}}
	ref := []float64{4, 4}
	// Staircase area: (4-1)*(4-3) + (4-2)*(3-2) + (4-3)*(2-1) = 3+2+1 = 6.
	if got := sp.Hypervolume2D(pts, ref); math.Abs(got-6) > 1e-12 {
		t.Fatalf("HV = %v, want 6", got)
	}
}

func TestHypervolume2DMaximizeSense(t *testing.T) {
	sp := UtilityEnergySpace() // maximize U, minimize E
	pts := [][]float64{{3, 1}, {2, 2}, {1, 3}}
	// In minimization coords: (-3,1), (-2,2), (-1,3); ref (0,4).
	ref := []float64{0, 4}
	// Area: (0-(-3))*(4-1)=9 for first; then bestY=1, others dominated in y.
	// (-2,2): y=2 >= 1 -> skipped; (-1,3) skipped. Total 9.
	if got := sp.Hypervolume2D(pts, ref); math.Abs(got-9) > 1e-12 {
		t.Fatalf("HV = %v, want 9", got)
	}
}

func TestHypervolume2DIgnoresPointsOutsideRef(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	pts := [][]float64{{5, 5}}
	if got := sp.Hypervolume2D(pts, []float64{4, 4}); got != 0 {
		t.Fatalf("HV = %v, want 0", got)
	}
}

func TestHypervolume2DDominatedPointsDoNotAdd(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	base := sp.Hypervolume2D([][]float64{{1, 1}}, []float64{4, 4})
	with := sp.Hypervolume2D([][]float64{{1, 1}, {2, 2}}, []float64{4, 4})
	if math.Abs(base-with) > 1e-12 {
		t.Fatalf("dominated point changed HV: %v vs %v", base, with)
	}
}

func TestHypervolumeMonotoneUnderImprovement(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	src := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		var pts [][]float64
		for i := 0; i < 10; i++ {
			pts = append(pts, []float64{src.Range(0, 3), src.Range(0, 3)})
		}
		ref := []float64{4, 4}
		before := sp.Hypervolume2D(pts, ref)
		// Add a point dominating an existing one.
		pts = append(pts, []float64{pts[0][0] - 0.1, pts[0][1] - 0.1})
		after := sp.Hypervolume2D(pts, ref)
		if after < before-1e-12 {
			t.Fatalf("hypervolume decreased after adding dominating point")
		}
	}
}

func TestSpreadUniformVsClustered(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	uniform := [][]float64{{0, 4}, {1, 3}, {2, 2}, {3, 1}, {4, 0}}
	clustered := [][]float64{{0, 4}, {0.1, 3.9}, {0.2, 3.8}, {0.3, 3.7}, {4, 0}}
	if u, c := sp.Spread(uniform), sp.Spread(clustered); !(u < c) {
		t.Fatalf("uniform spread %v should be below clustered %v", u, c)
	}
}

func TestSpreadSmallFront(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	if got := sp.Spread([][]float64{{1, 1}, {2, 0}}); got != 0 {
		t.Fatalf("Spread of 2-point front = %v, want 0", got)
	}
}

func TestCoverage(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	a := [][]float64{{0, 0}}
	b := [][]float64{{1, 1}, {2, 2}, {0, 0}}
	// a dominates the first two of b, not the equal third.
	if got := sp.Coverage(a, b); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Coverage = %v, want 2/3", got)
	}
	if got := sp.Coverage(a, nil); got != 0 {
		t.Fatalf("Coverage with empty B = %v", got)
	}
}

func TestReferenceFromDominatedByAll(t *testing.T) {
	sp := UtilityEnergySpace()
	src := rng.New(6)
	var set [][]float64
	for i := 0; i < 40; i++ {
		set = append(set, []float64{src.Range(1, 9), src.Range(1, 9)})
	}
	ref := sp.ReferenceFrom(0.05, set)
	for _, p := range set {
		if !sp.Dominates(p, ref) {
			t.Fatalf("point %v does not dominate reference %v", p, ref)
		}
	}
	// Hypervolume with this reference counts every point.
	if hv := sp.Hypervolume2D(set, ref); hv <= 0 {
		t.Fatalf("HV = %v, want > 0", hv)
	}
}

func TestReferenceFromEmpty(t *testing.T) {
	sp := UtilityEnergySpace()
	ref := sp.ReferenceFrom(0.05)
	if len(ref) != 2 {
		t.Fatal("reference has wrong dimension")
	}
}

func BenchmarkFastNondominatedSort200(b *testing.B) {
	sp := UtilityEnergySpace()
	src := rng.New(1)
	pts := make([][]float64, 200)
	for i := range pts {
		pts[i] = []float64{src.Range(0, 100), src.Range(0, 100)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sp.FastNondominatedSort(pts)
	}
}

func BenchmarkCrowdingDistance200(b *testing.B) {
	sp := UtilityEnergySpace()
	src := rng.New(2)
	pts := make([][]float64, 200)
	front := make([]int, 200)
	for i := range pts {
		pts[i] = []float64{src.Range(0, 100), src.Range(0, 100)}
		front[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sp.CrowdingDistance(pts, front)
	}
}

func BenchmarkHypervolume200(b *testing.B) {
	sp := UtilityEnergySpace()
	src := rng.New(3)
	pts := make([][]float64, 200)
	for i := range pts {
		pts[i] = []float64{src.Range(0, 100), src.Range(0, 100)}
	}
	ref := sp.ReferenceFrom(0.05, pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sp.Hypervolume2D(pts, ref)
	}
}

func TestBoundedArchivePrunes(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	ar := NewEpsilonArchive(sp, []float64{0.5, 0.5}, 5)
	// Insert 50 mutually nondominated points along a line.
	for i := 0; i < 50; i++ {
		x := float64(i)
		ar.Add([]float64{x, 49 - x}, i)
	}
	if ar.Len() != 5 {
		t.Fatalf("bounded archive holds %d, want 5", ar.Len())
	}
	// Boundary points survive (infinite crowding distance).
	pts := ar.Points()
	hasMinX, hasMaxX := false, false
	for _, p := range pts {
		if p[0] == 0 {
			hasMinX = true
		}
		if p[0] == 49 {
			hasMaxX = true
		}
	}
	if !hasMinX || !hasMaxX {
		t.Fatalf("boundary points pruned: %v", pts)
	}
}

func TestBoundedArchiveStillRejectsDominated(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	ar := NewEpsilonArchive(sp, []float64{0.5, 0.5}, 3)
	ar.Add([]float64{1, 1}, 0)
	if ar.Add([]float64{2, 2}, 1) {
		t.Fatal("dominated point accepted by bounded archive")
	}
}

// --- Hypervolume2D degenerate inputs (duplicates, reference-equal
// points, single-point fronts) ---------------------------------------

func TestHypervolume2DDuplicatePoints(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	ref := []float64{10, 10}
	single := sp.Hypervolume2D([][]float64{{2, 3}}, ref)
	dup := sp.Hypervolume2D([][]float64{{2, 3}, {2, 3}, {2, 3}}, ref)
	if single != dup {
		t.Fatalf("duplicates changed hypervolume: %v vs %v", single, dup)
	}
	if want := (10.0 - 2) * (10 - 3); single != want {
		t.Fatalf("hypervolume %v, want %v", single, want)
	}
}

func TestHypervolume2DPointEqualToReference(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	ref := []float64{5, 5}
	// A point equal to the reference dominates zero area and must
	// contribute nothing (it does not strictly dominate the reference).
	if hv := sp.Hypervolume2D([][]float64{{5, 5}}, ref); hv != 0 {
		t.Fatalf("reference-equal point contributed %v", hv)
	}
	// Equal in just one coordinate: also excluded (needs to be strictly
	// better in both to bound positive area).
	if hv := sp.Hypervolume2D([][]float64{{5, 1}, {1, 5}}, ref); hv != 0 {
		t.Fatalf("edge points contributed %v", hv)
	}
	// A strictly dominating point mixed with reference-equal ones counts
	// exactly once.
	hv := sp.Hypervolume2D([][]float64{{5, 5}, {4, 4}, {5, 1}}, ref)
	if want := 1.0; hv != want {
		t.Fatalf("hypervolume %v, want %v", hv, want)
	}
}

func TestHypervolume2DSinglePointFront(t *testing.T) {
	for _, sp := range []Space{
		NewSpace(Minimize, Minimize),
		UtilityEnergySpace(),
	} {
		ref := []float64{0, 100}
		pt := []float64{10, 20}
		if sp.Senses[0] == Minimize {
			ref[0] = 100
		}
		hv := sp.Hypervolume2D([][]float64{pt}, ref)
		want := (100.0 - 10) * (100 - 20)
		if sp.Senses[0] == Maximize {
			want = (10.0 - 0) * (100 - 20)
		}
		if hv != want {
			t.Fatalf("senses %v: hypervolume %v, want %v", sp.Senses, hv, want)
		}
	}
}

func TestHypervolume2DEmptyFront(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	if hv := sp.Hypervolume2D(nil, []float64{1, 1}); hv != 0 {
		t.Fatalf("empty front hypervolume %v", hv)
	}
}

func TestHypervolume2DDuplicateColumn(t *testing.T) {
	// Several points sharing one coordinate: only the best survives the
	// staircase; duplicates of the staircase corner must not double-count.
	sp := NewSpace(Minimize, Minimize)
	ref := []float64{10, 10}
	hv := sp.Hypervolume2D([][]float64{{2, 3}, {2, 5}, {2, 9}, {4, 3}}, ref)
	if want := (10.0 - 2) * (10 - 3); hv != want {
		t.Fatalf("hypervolume %v, want %v", hv, want)
	}
}
