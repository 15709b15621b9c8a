// Package dvfs implements the paper's first future-work item:
// incorporating dynamic voltage and frequency scaling into the trade-off
// analysis. Each machine exposes a set of P-states; running a task at a
// lower frequency stretches its execution time (ETC / f) and shrinks its
// power draw (static fraction + dynamic fraction × f^α, with α ≈ 3 for
// CMOS dynamic power).
//
// The package evaluates allocations extended with a per-task P-state
// choice, and provides a scalarized coordinate-descent optimizer that,
// sweeping the utility-vs-energy weight, turns any fixed NSGA-II
// allocation into a family of DVFS-refined solutions — extending the
// Pareto front beyond what machine assignment alone can reach.
// Evaluation runs on the sched kernel, with P-state p of task type t as
// the virtual type t·S+p (sched.Evaluator.Variants). When the base
// evaluator charges idle power (sched.Evaluator.SetIdlePower), so does
// this one, over each machine's idle time at the stretched execution
// times; at uniform P0 the two evaluations are bit-identical.
package dvfs

import (
	"fmt"
	"math"

	"tradeoff/internal/sched"
)

// PState is one frequency step, relative to the machine's base frequency.
type PState struct {
	Name string
	// Freq is the relative frequency; 1 is the base, 0.5 half speed.
	Freq float64
}

// Profile describes the DVFS behaviour applied uniformly to all machines.
type Profile struct {
	States []PState
	// Alpha is the dynamic-power frequency exponent (≈3 for CMOS).
	Alpha float64
	// StaticFrac is the fraction of power unaffected by frequency.
	StaticFrac float64
}

// DefaultProfile returns a four-state profile resembling contemporary
// CPU governors: base frequency plus three throttled states.
func DefaultProfile() Profile {
	return Profile{
		States: []PState{
			{Name: "P0", Freq: 1.0},
			{Name: "P1", Freq: 0.85},
			{Name: "P2", Freq: 0.7},
			{Name: "P3", Freq: 0.55},
		},
		Alpha:      3,
		StaticFrac: 0.3,
	}
}

// Validate checks profile invariants; NaN fails every check.
func (p Profile) Validate() error {
	if len(p.States) == 0 {
		return fmt.Errorf("dvfs: profile has no P-states")
	}
	for i, st := range p.States {
		if !(st.Freq > 0) || math.IsInf(st.Freq, 1) {
			return fmt.Errorf("dvfs: state %d frequency %v, want finite and > 0", i, st.Freq)
		}
	}
	if !(p.Alpha >= 1) || math.IsInf(p.Alpha, 1) {
		return fmt.Errorf("dvfs: alpha %v, want finite and >= 1", p.Alpha)
	}
	if !(p.StaticFrac >= 0 && p.StaticFrac < 1) {
		return fmt.Errorf("dvfs: static fraction %v outside [0,1)", p.StaticFrac)
	}
	return nil
}

// timeScale returns the ETC multiplier of state i.
func (p Profile) timeScale(i int) float64 { return 1 / p.States[i].Freq }

// powerScale returns the EPC multiplier of state i.
func (p Profile) powerScale(i int) float64 {
	f := p.States[i].Freq
	return p.StaticFrac + (1-p.StaticFrac)*math.Pow(f, p.Alpha)
}

// EnergyScale returns the per-task energy multiplier of state i:
// timeScale × powerScale. States with EnergyScale < 1 save energy at the
// cost of stretched execution.
func (p Profile) EnergyScale(i int) float64 { return p.timeScale(i) * p.powerScale(i) }

// Evaluator evaluates DVFS-extended allocations against a base
// scheduling evaluator. It owns one evaluation session, so like a
// sched.Session it is not safe for concurrent use.
type Evaluator struct {
	base    *sched.Evaluator
	profile Profile
	// virt is base with P-states as variants; sess and c evaluate on it.
	virt *sched.VariantEvaluator
	sess *sched.DeltaSession
	c    *sched.Contribs
}

// NewEvaluator wraps a sched.Evaluator with a DVFS profile.
func NewEvaluator(base *sched.Evaluator, profile Profile) (*Evaluator, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	tScale := make([]float64, len(profile.States))
	eScale := make([]float64, len(profile.States))
	for i := range profile.States {
		tScale[i], eScale[i] = profile.timeScale(i), profile.EnergyScale(i)
	}
	virt := base.Variants(tScale, eScale)
	return &Evaluator{base: base, profile: profile, virt: virt, sess: virt.NewDeltaSession(), c: virt.NewContribs()}, nil
}

// Profile returns the evaluator's DVFS profile.
func (e *Evaluator) Profile() Profile { return e.profile }

// Base returns the wrapped scheduling evaluator.
func (e *Evaluator) Base() *sched.Evaluator { return e.base }

// NumStates returns the number of P-states.
func (e *Evaluator) NumStates() int { return len(e.profile.States) }

// Validate checks a DVFS-extended allocation: the base allocation must be
// valid and every task must carry a P-state index in range.
func (e *Evaluator) Validate(a *sched.Allocation, pstates []int) error {
	if err := e.base.Validate(a); err != nil {
		return err
	}
	if len(pstates) != a.Len() {
		return fmt.Errorf("dvfs: %d p-states for %d tasks", len(pstates), a.Len())
	}
	for i, ps := range pstates {
		if ps < 0 || ps >= e.NumStates() {
			return fmt.Errorf("dvfs: task %d p-state %d out of range [0,%d)", i, ps, e.NumStates())
		}
	}
	return nil
}

// Evaluate simulates the allocation with per-task P-states, charging
// idle power as the base evaluator does. Neither the allocation nor the
// states are validated; call Validate first on untrusted input.
func (e *Evaluator) Evaluate(a *sched.Allocation, pstates []int) sched.Evaluation {
	for i, ps := range pstates {
		e.virt.SetVariant(i, ps)
	}
	return e.evaluate(a)
}

// evaluate simulates the allocation at the current P-states and adds the
// base's idle energy, read per call so a later SetIdlePower takes effect.
func (e *Evaluator) evaluate(a *sched.Allocation) sched.Evaluation {
	ev := e.sess.EvaluateFull(a, e.c)
	ev.Energy += e.base.IdleEnergy(e.c.Ready, e.c.Busy)
	return ev
}

// SweepUniform evaluates the allocation with every task forced into the
// same P-state, one evaluation per state, exposing the raw DVFS
// trade-off of a fixed assignment.
func (e *Evaluator) SweepUniform(a *sched.Allocation) []sched.Evaluation {
	out := make([]sched.Evaluation, e.NumStates())
	for s := range out {
		for i := 0; i < a.Len(); i++ {
			e.virt.SetVariant(i, s)
		}
		out[s] = e.evaluate(a)
	}
	return out
}

// OptimizeWeighted refines the per-task P-states of a fixed allocation by
// coordinate descent on the scalarized objective U − λ·E (λ in utility
// units per joule; larger λ favours energy savings). rounds bounds the
// number of full passes; descent stops early at a fixed point. It returns
// the chosen states and their evaluation.
func (e *Evaluator) OptimizeWeighted(a *sched.Allocation, lambda float64, rounds int) ([]int, sched.Evaluation) {
	n := a.Len()
	pstates := make([]int, n) // start at full speed
	best := e.Evaluate(a, pstates)
	score := best.Utility - lambda*best.Energy
	for r := 0; r < rounds; r++ {
		improved := false
		for i := 0; i < n; i++ {
			cur := pstates[i]
			for s := 0; s < e.NumStates(); s++ {
				if s == cur {
					continue
				}
				e.virt.SetVariant(i, s)
				ev := e.evaluate(a)
				if sc := ev.Utility - lambda*ev.Energy; sc > score {
					score, best, cur = sc, ev, s
					improved = true
				}
			}
			pstates[i] = cur
			e.virt.SetVariant(i, cur)
		}
		if !improved {
			break
		}
	}
	return pstates, best
}

// ExtendFront runs OptimizeWeighted across a ladder of λ values, turning
// one allocation into a set of DVFS trade-off points (deduplicated by
// objective pair), sorted by increasing energy.
func (e *Evaluator) ExtendFront(a *sched.Allocation, lambdas []float64, rounds int) []sched.Evaluation {
	seen := map[[2]float64]bool{}
	var out []sched.Evaluation
	for _, l := range lambdas {
		_, ev := e.OptimizeWeighted(a, l, rounds)
		key := [2]float64{ev.Utility, ev.Energy}
		if !seen[key] {
			seen[key] = true
			out = append(out, ev)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Energy < out[j-1].Energy; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
