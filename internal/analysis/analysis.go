// Package analysis post-processes Pareto fronts the way the paper's §VI
// does: locating the region of maximum utility earned per energy spent
// (Fig. 5), quantifying front convergence across iteration checkpoints,
// and comparing fronts produced by differently seeded populations
// (Figs. 3, 4, 6).
package analysis

import (
	"fmt"
	"math"
	"sort"

	"tradeoff/internal/moea"
)

// FrontPoint is one resource allocation's objective pair.
type FrontPoint struct {
	Utility float64
	Energy  float64 // joules
}

// UPE returns the point's utility earned per unit energy spent.
func (p FrontPoint) UPE() float64 {
	if p.Energy == 0 {
		return 0
	}
	return p.Utility / p.Energy
}

// FromObjectives converts engine objective vectors ({utility, energy})
// into front points sorted by increasing energy.
func FromObjectives(points [][]float64) []FrontPoint {
	out := make([]FrontPoint, len(points))
	for i, p := range points {
		out[i] = FrontPoint{Utility: p[0], Energy: p[1]}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Energy < out[j].Energy })
	return out
}

// ToObjectives converts front points back to objective vectors.
func ToObjectives(points []FrontPoint) [][]float64 {
	out := make([][]float64, len(points))
	for i, p := range points {
		out[i] = []float64{p.Utility, p.Energy}
	}
	return out
}

// UPERegion is the outcome of the Fig. 5 analysis: the solutions that
// earn the most utility per energy spent, located by finding the peak of
// UPE against utility (subplot B) and against energy (subplot C) and
// translating both onto the front (subplot A).
type UPERegion struct {
	// Points is the analyzed front sorted by increasing energy.
	Points []FrontPoint
	// PeakIndex locates the maximum-UPE solution within Points.
	PeakIndex int
	// Peak is that solution.
	Peak FrontPoint
	// PeakUPE is its utility-per-energy value.
	PeakUPE float64
	// Lo and Hi bound the indices whose UPE is within Tolerance of the
	// peak — the circled region of the paper's figures.
	Lo, Hi int
	// Tolerance is the relative UPE band defining the region.
	Tolerance float64
}

// AnalyzeUPE locates the maximum utility-per-energy region of a front.
// tolerance is the relative band (e.g. 0.05 keeps solutions within 5% of
// the peak UPE). The input need not be sorted.
func AnalyzeUPE(points []FrontPoint, tolerance float64) (UPERegion, error) {
	if len(points) == 0 {
		return UPERegion{}, fmt.Errorf("analysis: empty front")
	}
	if !(tolerance >= 0 && tolerance < 1) { // NaN fails too
		return UPERegion{}, fmt.Errorf("analysis: tolerance %v outside [0,1)", tolerance)
	}
	sorted := append([]FrontPoint(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Energy < sorted[j].Energy })
	reg := UPERegion{Points: sorted, Tolerance: tolerance, PeakIndex: -1}
	for i, p := range sorted {
		if u := p.UPE(); reg.PeakIndex == -1 || u > reg.PeakUPE {
			reg.PeakIndex, reg.PeakUPE = i, u
		}
	}
	reg.Peak = sorted[reg.PeakIndex]
	floor := reg.PeakUPE * (1 - tolerance)
	reg.Lo, reg.Hi = reg.PeakIndex, reg.PeakIndex
	for reg.Lo > 0 && sorted[reg.Lo-1].UPE() >= floor {
		reg.Lo--
	}
	for reg.Hi < len(sorted)-1 && sorted[reg.Hi+1].UPE() >= floor {
		reg.Hi++
	}
	return reg, nil
}

// MarginalRates returns dU/dE between consecutive points of an
// energy-sorted front: the paper's observation that left of the peak the
// system earns relatively large utility for small energy increases, and
// right of it large energy buys little utility. Returns one rate per
// adjacent pair; pairs with zero energy difference yield +Inf (or 0 when
// the utility difference is also zero).
func MarginalRates(points []FrontPoint) []float64 {
	if len(points) < 2 {
		return nil
	}
	sorted := append([]FrontPoint(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Energy < sorted[j].Energy })
	out := make([]float64, len(sorted)-1)
	for i := 1; i < len(sorted); i++ {
		dU := sorted[i].Utility - sorted[i-1].Utility
		dE := sorted[i].Energy - sorted[i-1].Energy
		switch {
		case dE != 0:
			out[i-1] = dU / dE
		case dU == 0:
			out[i-1] = 0
		default:
			out[i-1] = math.Inf(1)
		}
	}
	return out
}

// Checkpoint is one recorded front during an evolution run.
type Checkpoint struct {
	Generation int
	Front      []FrontPoint
}

// Convergence summarizes a sequence of checkpoints by hypervolume.
type Convergence struct {
	Generations  []int
	Hypervolumes []float64
	// Improvements[i] = HV[i+1] - HV[i].
	Improvements []float64
	// Reference is the common hypervolume reference point used.
	Reference []float64
}

// MeasureConvergence computes the hypervolume trajectory of checkpointed
// fronts with a shared reference point dominated by every recorded point.
func MeasureConvergence(cps []Checkpoint) (Convergence, error) {
	if len(cps) == 0 {
		return Convergence{}, fmt.Errorf("analysis: no checkpoints")
	}
	sp := moea.UtilityEnergySpace()
	sets := make([][][]float64, len(cps))
	for i, cp := range cps {
		sets[i] = ToObjectives(cp.Front)
	}
	ref := sp.ReferenceFrom(0.05, sets...)
	conv := Convergence{Reference: ref}
	for i, cp := range cps {
		conv.Generations = append(conv.Generations, cp.Generation)
		conv.Hypervolumes = append(conv.Hypervolumes, sp.Hypervolume2D(sets[i], ref))
	}
	for i := 1; i < len(conv.Hypervolumes); i++ {
		conv.Improvements = append(conv.Improvements, conv.Hypervolumes[i]-conv.Hypervolumes[i-1])
	}
	return conv, nil
}

// SeedComparison compares fronts obtained from differently seeded
// populations at one checkpoint.
type SeedComparison struct {
	Names []string
	// Coverage[i][j] = C(front_i, front_j): fraction of j's points
	// dominated by some point of i.
	Coverage [][]float64
	// Hypervolume per front under a common reference.
	Hypervolume []float64
}

// CompareSeeds computes pairwise coverage and common-reference
// hypervolume across named fronts (e.g. the five populations of Fig. 3).
func CompareSeeds(names []string, fronts [][]FrontPoint) (SeedComparison, error) {
	if len(names) != len(fronts) {
		return SeedComparison{}, fmt.Errorf("analysis: %d names for %d fronts", len(names), len(fronts))
	}
	if len(fronts) == 0 {
		return SeedComparison{}, fmt.Errorf("analysis: no fronts")
	}
	sp := moea.UtilityEnergySpace()
	sets := make([][][]float64, len(fronts))
	for i, f := range fronts {
		sets[i] = ToObjectives(f)
	}
	ref := sp.ReferenceFrom(0.05, sets...)
	cmp := SeedComparison{Names: append([]string(nil), names...)}
	for i := range sets {
		row := make([]float64, len(sets))
		for j := range sets {
			if i != j {
				row[j] = sp.Coverage(sets[i], sets[j])
			}
		}
		cmp.Coverage = append(cmp.Coverage, row)
		cmp.Hypervolume = append(cmp.Hypervolume, sp.Hypervolume2D(sets[i], ref))
	}
	return cmp, nil
}

// Dominates reports whether front a collectively dominates front b: every
// point of b is dominated by some point of a (the Fig. 6 relationship
// between seeded and random populations).
func Dominates(a, b []FrontPoint) bool {
	sp := moea.UtilityEnergySpace()
	return sp.Coverage(ToObjectives(a), ToObjectives(b)) == 1
}

// MergeFronts unions several fronts and returns the nondominated subset
// sorted by increasing energy — e.g. combining per-island fronts or the
// fronts of repeated runs into one best-known approximation.
func MergeFronts(fronts ...[]FrontPoint) []FrontPoint {
	var union []FrontPoint
	for _, f := range fronts {
		union = append(union, f...)
	}
	if len(union) == 0 {
		return nil
	}
	sp := moea.UtilityEnergySpace()
	objs := ToObjectives(union)
	keep := sp.ParetoFront(objs)
	out := make([]FrontPoint, 0, len(keep))
	seen := map[FrontPoint]bool{}
	for _, idx := range keep {
		p := union[idx]
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Energy < out[j].Energy })
	return out
}
