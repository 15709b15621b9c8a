// Package tradeoff is an analysis framework for investigating the
// trade-offs between system performance (total utility earned) and energy
// consumption in a heterogeneous computing environment, reproducing
// Friese et al., "An Analysis Framework for Investigating the Trade-offs
// Between System Performance and Energy Consumption in a Heterogeneous
// Computing Environment" (IPDPSW 2013).
//
// The model: a suite of heterogeneous machines characterized by ETC
// (estimated time to compute) and EPC (estimated power consumption)
// matrices executes a trace of tasks, each carrying an arrival time and a
// monotonically decreasing time-utility function. A resource allocation
// maps every task to a machine and fixes a global scheduling order.
// The framework evolves populations of allocations with NSGA-II —
// optionally seeded with greedy heuristics — into Pareto fronts of
// (utility, energy), and locates the region where utility earned per
// energy spent is maximized.
//
// Quick start:
//
//	sys := tradeoff.RealSystem()
//	trace, _ := tradeoff.GenerateTrace(sys, tradeoff.TraceConfig{NumTasks: 250, Window: 900}, 1)
//	fw, _ := tradeoff.NewFramework(sys, trace)
//	res, _ := fw.Optimize(tradeoff.Options{Generations: 1000, Seeds: []tradeoff.Heuristic{tradeoff.MinEnergy}})
//	for _, p := range res.Front {
//	    fmt.Printf("%.2f MJ -> %.1f utility\n", p.Energy/1e6, p.Utility)
//	}
//
// Subsystems re-exported here live in internal packages: hcs (system
// model), workload (traces and TUF policies), sched (allocation
// simulator), nsga2 (the genetic algorithm), heuristics (seeds), datagen
// (the Gram-Charlier synthetic data pipeline), analysis (front
// post-processing), and dvfs (the DVFS future-work extension).
package tradeoff

import (
	"io"

	"tradeoff/internal/analysis"
	"tradeoff/internal/core"
	"tradeoff/internal/data"
	"tradeoff/internal/datagen"
	"tradeoff/internal/dvfs"
	"tradeoff/internal/hcs"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/utility"
	"tradeoff/internal/workload"
)

// System model.
type (
	// System is a heterogeneous computing environment: machine types,
	// task types, ETC/EPC matrices, and machine instances.
	System = hcs.System
	// Machine is a machine instance.
	Machine = hcs.Machine
	// MachineType describes a machine type.
	MachineType = hcs.MachineType
	// TaskType describes a task type.
	TaskType = hcs.TaskType
	// Matrix is a task-type × machine-type value matrix (ETC/EPC).
	Matrix = hcs.Matrix
	// Category distinguishes general-purpose from special-purpose types.
	Category = hcs.Category
)

// Categories.
const (
	GeneralPurpose = hcs.GeneralPurpose
	SpecialPurpose = hcs.SpecialPurpose
)

// Workload.
type (
	// Trace is a recorded workload: tasks with arrival times and TUFs.
	Trace = workload.Trace
	// Task is one task instance.
	Task = workload.Task
	// TraceConfig configures GenerateTrace.
	TraceConfig = workload.GenConfig
	// UtilityFunction is a monotonically decreasing time-utility function.
	UtilityFunction = utility.Function
)

// Arrival processes for TraceConfig.
const (
	UniformArrivals = workload.UniformArrivals
	PoissonArrivals = workload.PoissonArrivals
)

// Allocation and evaluation.
type (
	// Allocation maps tasks to machines with a global scheduling order.
	Allocation = sched.Allocation
	// Evaluation is the simulated outcome of an allocation.
	Evaluation = sched.Evaluation
	// Evaluator simulates allocations for one system + trace.
	Evaluator = sched.Evaluator
)

// Framework API.
type (
	// Framework is the analysis framework over one system + trace.
	Framework = core.Framework
	// Options parameterizes Framework.Optimize.
	Options = core.Options
	// Result is an optimization outcome: front, allocations, UPE region.
	Result = core.Result
	// FrontPoint is one (utility, energy) point.
	FrontPoint = analysis.FrontPoint
	// UPERegion is the maximum utility-per-energy region of a front.
	UPERegion = analysis.UPERegion
	// Heuristic names a greedy seeding strategy.
	Heuristic = heuristics.Heuristic
)

// Seeding heuristics (§V-B).
const (
	MinEnergy           = heuristics.MinEnergy
	MaxUtility          = heuristics.MaxUtility
	MaxUtilityPerEnergy = heuristics.MaxUtilityPerEnergy
	MinMin              = heuristics.MinMin
)

// DVFS extension.
type (
	// DVFSProfile describes per-machine P-states.
	DVFSProfile = dvfs.Profile
	// DVFSEvaluator evaluates allocations with per-task P-states.
	DVFSEvaluator = dvfs.Evaluator
)

// NewFramework validates a system and trace and returns a Framework.
func NewFramework(sys *System, trace *Trace) (*Framework, error) {
	return core.New(sys, trace)
}

// RealSystem returns the embedded 9-machine × 5-task benchmark
// environment (the paper's data set 1 substrate).
func RealSystem() *System { return data.RealSystem() }

// EnlargeConfig configures EnlargeSystem.
type EnlargeConfig = datagen.Config

// DefaultEnlargeConfig returns the paper's data-set-2/3 configuration:
// 25 synthetic task types, 4 special-purpose machine types at 10×, and
// the Table III machine counts.
func DefaultEnlargeConfig() EnlargeConfig { return datagen.Default() }

// EnlargeSystem applies the paper's §III-D2 Gram-Charlier pipeline to a
// base system, preserving its heterogeneity characteristics. The result
// is deterministic in seed.
func EnlargeSystem(base *System, cfg EnlargeConfig, seed uint64) (*System, error) {
	return datagen.Enlarge(base, cfg, rng.New(seed))
}

// GenerateTrace produces a workload trace for a system, deterministically
// in seed.
func GenerateTrace(sys *System, cfg TraceConfig, seed uint64) (*Trace, error) {
	return workload.Generate(sys, cfg, rng.New(seed))
}

// NewEvaluator exposes the schedule simulator directly for callers that
// want to evaluate hand-built allocations without a Framework.
func NewEvaluator(sys *System, trace *Trace) (*Evaluator, error) {
	return sched.NewEvaluator(sys, trace)
}

// BuildSeed constructs one greedy seeding allocation on an evaluator.
func BuildSeed(h Heuristic, e *Evaluator) (*Allocation, error) { return h.Build(e) }

// DefaultDVFSProfile returns a four-state DVFS profile (base frequency
// plus three throttled states, cubic dynamic power).
func DefaultDVFSProfile() DVFSProfile { return dvfs.DefaultProfile() }

// NewDVFSEvaluator wraps an evaluator with a DVFS profile, enabling
// per-task P-state evaluation and front extension (the paper's
// future-work item).
func NewDVFSEvaluator(e *Evaluator, p DVFSProfile) (*DVFSEvaluator, error) {
	return dvfs.NewEvaluator(e, p)
}

// AnalyzeUPE locates the maximum utility-per-energy region of a front
// (Fig. 5); tolerance is the relative UPE band (e.g. 0.05).
func AnalyzeUPE(front []FrontPoint, tolerance float64) (UPERegion, error) {
	return analysis.AnalyzeUPE(front, tolerance)
}

// Baseline names a classic single-solution mapping heuristic (Braun et
// al.) usable as a comparison point.
type Baseline = heuristics.Baseline

// Classic baselines.
const (
	OLB       = heuristics.OLB
	MCT       = heuristics.MCT
	MET       = heuristics.MET
	MaxMin    = heuristics.MaxMin
	Sufferage = heuristics.Sufferage
)

// BuildBaseline constructs one classic baseline allocation.
func BuildBaseline(b Baseline, e *Evaluator) *Allocation { return b.Build(e) }

// DropNegligible applies the task-dropping extension: tasks earning at
// most minUtility are dropped (saving their energy) until a fixed point.
func DropNegligible(e *Evaluator, a *Allocation, minUtility float64) (*Allocation, Evaluation) {
	return sched.DropNegligible(e, a, minUtility)
}

// TraceStats summarizes a trace against a system.
type TraceStats = workload.TraceStats

// MeasureTrace computes trace statistics (arrival rate, offered load,
// utility upper bound).
func MeasureTrace(tr *Trace, sys *System) (TraceStats, error) {
	return workload.Stats(tr, sys)
}

// BestUnderBudget returns the index of the highest-utility front point
// within an energy budget, or -1 when unattainable.
func BestUnderBudget(front []FrontPoint, budget float64) int {
	return analysis.BestUnderBudget(front, budget)
}

// CheapestAtUtility returns the index of the lowest-energy front point
// earning at least the target utility, or -1 when unattainable.
func CheapestAtUtility(front []FrontPoint, target float64) int {
	return analysis.CheapestAtUtility(front, target)
}

// SystemBuilder assembles a custom System incrementally.
type SystemBuilder = hcs.Builder

// NewSystemBuilder returns an empty system builder.
func NewSystemBuilder() *SystemBuilder { return hcs.NewBuilder() }

// Observability. Attach an Observer via Options.Observer to receive
// per-generation telemetry (front points, convergence indicators,
// delta-evaluation counters) and island migration events. Observation
// never consumes randomness and never changes results bit-for-bit.
type (
	// Observer receives telemetry events from an optimization run.
	Observer = obs.Observer
	// GenerationStats is the per-generation telemetry payload. Slices in
	// the event are borrowed and valid only during the callback.
	GenerationStats = obs.GenerationStats
	// MigrationEvent describes one island migration edge.
	MigrationEvent = obs.MigrationEvent
	// RunEvent summarizes one completed experiment run.
	RunEvent = obs.RunEvent
	// TraceWriter streams telemetry events as JSONL.
	TraceWriter = obs.TraceWriter
	// Clock supplies nanosecond timestamps to a TraceWriter; inject a
	// fixed clock for byte-identical traces.
	Clock = obs.Clock
)

// NewTraceWriter returns an observer that appends one JSON object per
// telemetry event to w, timestamped by clock (nil stamps 0).
func NewTraceWriter(w io.Writer, clock Clock) *TraceWriter { return obs.NewTraceWriter(w, clock) }

// CombineObservers fans telemetry out to every non-nil observer (nil
// when none remain).
func CombineObservers(os ...Observer) Observer { return obs.Combine(os...) }
