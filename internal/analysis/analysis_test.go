package analysis

import (
	"math"
	"testing"
)

// kneeFront builds a synthetic front with a clear knee: utility grows
// fast at low energy, then saturates.
func kneeFront() []FrontPoint {
	var pts []FrontPoint
	for e := 1.0; e <= 20; e++ {
		pts = append(pts, FrontPoint{Utility: 100 * (1 - math.Exp(-e/4)), Energy: e})
	}
	return pts
}

func TestFromToObjectivesRoundTrip(t *testing.T) {
	objs := [][]float64{{10, 5}, {20, 9}, {15, 7}}
	pts := FromObjectives(objs)
	// Sorted by energy.
	if pts[0].Energy != 5 || pts[1].Energy != 7 || pts[2].Energy != 9 {
		t.Fatalf("not sorted: %v", pts)
	}
	back := ToObjectives(pts)
	if back[0][0] != 10 || back[0][1] != 5 {
		t.Fatalf("roundtrip wrong: %v", back)
	}
}

func TestUPE(t *testing.T) {
	p := FrontPoint{Utility: 10, Energy: 4}
	if p.UPE() != 2.5 {
		t.Fatalf("UPE = %v", p.UPE())
	}
	z := FrontPoint{Utility: 10, Energy: 0}
	if z.UPE() != 0 {
		t.Fatalf("zero-energy UPE = %v, want 0 sentinel", z.UPE())
	}
}

func TestAnalyzeUPEFindsKnee(t *testing.T) {
	reg, err := AnalyzeUPE(kneeFront(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// For U = 100(1-exp(-e/4)), UPE peaks at small-but-not-minimal e.
	// Verify the peak is the argmax over the supplied points.
	for i, p := range reg.Points {
		if p.UPE() > reg.PeakUPE+1e-12 {
			t.Fatalf("point %d has UPE %v above reported peak %v", i, p.UPE(), reg.PeakUPE)
		}
	}
	if reg.Peak.UPE() != reg.PeakUPE {
		t.Fatal("Peak and PeakUPE disagree")
	}
	// Region bounds contain the peak and are within tolerance.
	if reg.Lo > reg.PeakIndex || reg.Hi < reg.PeakIndex {
		t.Fatalf("region [%d,%d] excludes peak %d", reg.Lo, reg.Hi, reg.PeakIndex)
	}
	floor := reg.PeakUPE * 0.95
	for i := reg.Lo; i <= reg.Hi; i++ {
		if reg.Points[i].UPE() < floor-1e-12 {
			t.Fatalf("region point %d below tolerance", i)
		}
	}
	// Points just outside the region must be below the floor.
	if reg.Lo > 0 && reg.Points[reg.Lo-1].UPE() >= floor {
		t.Fatal("region lower bound too tight")
	}
	if reg.Hi < len(reg.Points)-1 && reg.Points[reg.Hi+1].UPE() >= floor {
		t.Fatal("region upper bound too tight")
	}
}

func TestAnalyzeUPEErrors(t *testing.T) {
	if _, err := AnalyzeUPE(nil, 0.05); err == nil {
		t.Error("empty front accepted")
	}
	if _, err := AnalyzeUPE(kneeFront(), -0.1); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := AnalyzeUPE(kneeFront(), 1); err == nil {
		t.Error("tolerance 1 accepted")
	}
	if _, err := AnalyzeUPE(kneeFront(), math.NaN()); err == nil {
		t.Error("NaN tolerance accepted")
	}
}

func TestAnalyzeUPESinglePoint(t *testing.T) {
	reg, err := AnalyzeUPE([]FrontPoint{{Utility: 5, Energy: 2}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if reg.PeakIndex != 0 || reg.Lo != 0 || reg.Hi != 0 {
		t.Fatalf("single-point region wrong: %+v", reg)
	}
}

func TestMarginalRatesDecreaseAcrossKnee(t *testing.T) {
	rates := MarginalRates(kneeFront())
	if len(rates) != 19 {
		t.Fatalf("%d rates, want 19", len(rates))
	}
	// Concave utility: marginal utility per energy must decrease.
	for i := 1; i < len(rates); i++ {
		if rates[i] > rates[i-1]+1e-9 {
			t.Fatalf("marginal rate increased at %d: %v -> %v", i, rates[i-1], rates[i])
		}
	}
}

func TestMarginalRatesEdgeCases(t *testing.T) {
	if MarginalRates(nil) != nil {
		t.Error("nil input should give nil")
	}
	if MarginalRates([]FrontPoint{{1, 1}}) != nil {
		t.Error("single point should give nil")
	}
	rates := MarginalRates([]FrontPoint{{1, 1}, {2, 1}})
	if !math.IsInf(rates[0], 1) {
		t.Errorf("zero dE with dU > 0 should be +Inf, got %v", rates[0])
	}
	rates = MarginalRates([]FrontPoint{{1, 1}, {1, 1}})
	if rates[0] != 0 {
		t.Errorf("identical points rate = %v, want 0", rates[0])
	}
}

func TestMeasureConvergence(t *testing.T) {
	cps := []Checkpoint{
		{Generation: 10, Front: []FrontPoint{{10, 10}, {5, 5}}},
		{Generation: 100, Front: []FrontPoint{{12, 9}, {6, 4}}},
		{Generation: 1000, Front: []FrontPoint{{14, 8}, {7, 3}}},
	}
	conv, err := MeasureConvergence(cps)
	if err != nil {
		t.Fatal(err)
	}
	if len(conv.Hypervolumes) != 3 || len(conv.Improvements) != 2 {
		t.Fatalf("lengths wrong: %+v", conv)
	}
	// Each later front dominates the previous, so HV must increase.
	for i, imp := range conv.Improvements {
		if imp <= 0 {
			t.Fatalf("improvement %d = %v, want > 0", i, imp)
		}
	}
	if conv.Generations[2] != 1000 {
		t.Fatal("generations not recorded")
	}
}

func TestMeasureConvergenceEmpty(t *testing.T) {
	if _, err := MeasureConvergence(nil); err == nil {
		t.Fatal("empty checkpoint list accepted")
	}
}

func TestCompareSeeds(t *testing.T) {
	better := []FrontPoint{{Utility: 10, Energy: 1}, {Utility: 20, Energy: 2}}
	worse := []FrontPoint{{Utility: 9, Energy: 1.5}, {Utility: 18, Energy: 3}}
	cmp, err := CompareSeeds([]string{"seeded", "random"}, [][]FrontPoint{better, worse})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Coverage[0][1] != 1 {
		t.Fatalf("better front covers %v of worse, want 1", cmp.Coverage[0][1])
	}
	if cmp.Coverage[1][0] != 0 {
		t.Fatalf("worse front covers %v of better, want 0", cmp.Coverage[1][0])
	}
	if !(cmp.Hypervolume[0] > cmp.Hypervolume[1]) {
		t.Fatalf("hypervolumes %v not ordered", cmp.Hypervolume)
	}
	if cmp.Coverage[0][0] != 0 {
		t.Fatal("self-coverage should be 0 by convention")
	}
}

func TestCompareSeedsErrors(t *testing.T) {
	if _, err := CompareSeeds([]string{"a"}, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := CompareSeeds(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestDominates(t *testing.T) {
	a := []FrontPoint{{Utility: 10, Energy: 1}}
	b := []FrontPoint{{Utility: 5, Energy: 2}, {Utility: 8, Energy: 3}}
	if !Dominates(a, b) {
		t.Fatal("a should dominate b")
	}
	if Dominates(b, a) {
		t.Fatal("b should not dominate a")
	}
	// Partial domination is not collective domination.
	c := []FrontPoint{{Utility: 5, Energy: 2}, {Utility: 50, Energy: 0.5}}
	if Dominates(a, c) {
		t.Fatal("a should not dominate c")
	}
}

func TestMergeFronts(t *testing.T) {
	a := []FrontPoint{{Utility: 10, Energy: 1}, {Utility: 20, Energy: 5}}
	b := []FrontPoint{{Utility: 15, Energy: 2}, {Utility: 5, Energy: 3}} // second dominated by a[0]? u5<u10,e3>e1 yes dominated
	merged := MergeFronts(a, b)
	// {5,3} is dominated by {10,1}; the rest survive.
	if len(merged) != 3 {
		t.Fatalf("merged front = %v", merged)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Energy < merged[i-1].Energy {
			t.Fatal("merged front not energy-sorted")
		}
	}
	if MergeFronts() != nil {
		t.Fatal("empty merge should be nil")
	}
}

func TestMergeFrontsDeduplicates(t *testing.T) {
	a := []FrontPoint{{Utility: 10, Energy: 1}}
	merged := MergeFronts(a, a, a)
	if len(merged) != 1 {
		t.Fatalf("duplicates kept: %v", merged)
	}
}
