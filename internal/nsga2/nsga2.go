// Package nsga2 adapts the Nondominated Sorting Genetic Algorithm II
// (Deb et al., 2002) to the paper's bi-objective resource allocation
// problem (§IV-D).
//
// A gene is a task: it carries the machine the task executes on and the
// task's global scheduling order. A chromosome is a complete resource
// allocation — one gene per task, the i-th gene in every chromosome
// referring to the i-th task by arrival order. Crossover swaps a
// contiguous gene segment (machines and orders) between two chromosomes;
// mutation reassigns one gene's machine to a random eligible machine and
// swaps the global scheduling orders of two genes. Survivor selection is
// elitist: parents and offspring are merged into a 2N meta-population,
// nondominated-sorted, and refilled front by front with crowding-distance
// truncation of the last admitted front.
//
// Because segment swap can duplicate global scheduling orders, offspring
// orders are repaired back into permutations by re-ranking (stable sort
// by swapped value, ties by gene index), which preserves the relative
// order the crossover expressed; see DESIGN.md §4.
//
// The engine stores each chromosome as its execution sequence: one
// packed uint32 per task (sched.PackSlot), in scheduling order, holding
// the task and its machine. The re-ranked child of a segment swap is
// then one sequential merge of its parents' sequences, and the sequence
// is what the evaluation kernel reads. Allocations (machine and order
// per gene) exist only at the API boundary.
//
// The generation loop is engineered to be allocation-free in steady
// state: chromosomes and objective vectors of non-surviving individuals
// are recycled through a per-engine arena, ranking runs over reusable
// scratch (O(n log n) for the paper's bi-objective space via
// moea.Ranker), and breeding — variation plus the evaluation of both
// children — fans out across workers with one deterministic child rng
// stream per offspring pair, so results are bit-identical regardless of
// worker count. See DESIGN.md §8.
package nsga2

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"tradeoff/internal/moea"
	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// Ranking selects the survivor-ranking rule.
type Ranking int

const (
	// DebFronts uses Deb's fast nondominated sort (the NSGA-II default).
	DebFronts Ranking = iota
	// DominanceCount ranks each solution 1 + the number of solutions
	// dominating it, as the paper's §IV-D describes the rank.
	DominanceCount
)

func (r Ranking) String() string {
	switch r {
	case DebFronts:
		return "deb-fronts"
	case DominanceCount:
		return "dominance-count"
	default:
		return fmt.Sprintf("Ranking(%d)", int(r))
	}
}

// Individual is one chromosome with its cached evaluation. Inside the
// engine the genotype is the execution sequence seq and Alloc is nil.
// An evaluated genome is immutable, so the engine's ParetoFront shares
// it instead of copying it: a front individual points at its population
// member's genome, carries its own copy of Objectives, and has a nil
// Alloc until the caller asks for Allocation. Clone, Population and
// Elites return individuals that carry Alloc and no genome. A migrant
// on an island ring carries a copy of its genome in its sender's buffer
// (see Mailbox).
type Individual struct {
	Alloc *sched.Allocation
	// Objectives is {total utility earned, total energy consumed in J}.
	Objectives []float64
	// Rank is 1-based; rank 1 is the current Pareto-optimal set.
	Rank int
	// Crowding is the crowding distance within the individual's front.
	Crowding float64

	// seq is the engine's genotype, the execution sequence: seq[r] is
	// sched.PackSlot(machine, task) of the task scheduled r-th. Written
	// once, when the individual is bred, packed or restored; read-only
	// from its evaluation on.
	seq []uint32
	// contrib caches the per-machine contribution rows of the last
	// machine-major evaluation, letting offspring derived from this
	// individual inherit clean machines' contributions. Engine-internal;
	// Clone and ParetoFront drop it.
	contrib *sched.Contribs
	// shared marks a population member whose genome ParetoFront handed
	// out: when it falls, the arena leaves seq to the garbage collector
	// instead of recycling it under the holder.
	shared bool
}

// Allocation returns the individual's allocation: Alloc when it is set,
// else a fresh allocation materialized from the shared genome, else nil.
// Each call on a genome-carrying individual materializes a new copy.
func (ind Individual) Allocation() *sched.Allocation {
	if ind.Alloc != nil || ind.seq == nil {
		return ind.Alloc
	}
	a := new(sched.Allocation)
	sched.UnpackSlots(ind.seq, a)
	return a
}

// AllocationInto writes the individual's allocation into a, reusing its
// slices' capacity as sched.UnpackSlots does: Allocation without the
// fresh copy. An individual without a genotype leaves a empty.
//
//detlint:hotpath
func (ind Individual) AllocationInto(a *sched.Allocation) {
	if ind.seq != nil && ind.Alloc == nil {
		sched.UnpackSlots(ind.seq, a)
		return
	}
	a.Machine = a.Machine[:0]
	a.Order = a.Order[:0]
	if ind.Alloc != nil {
		a.Machine = append(a.Machine, ind.Alloc.Machine...)
		a.Order = append(a.Order, ind.Alloc.Order...)
	}
}

// HasGenotype reports whether the individual carries a genotype, either
// an Alloc or an engine genome, so that Allocation returns non-nil.
func (ind Individual) HasGenotype() bool { return ind.Alloc != nil || ind.seq != nil }

// Clone deep-copies the individual into one that carries Alloc and no
// genome.
func (ind Individual) Clone() Individual {
	alloc := ind.Allocation() // fresh from a genome, else Alloc itself
	if ind.Alloc != nil {
		alloc = ind.Alloc.Clone()
	}
	return Individual{
		Alloc:      alloc,
		Objectives: append([]float64(nil), ind.Objectives...),
		Rank:       ind.Rank,
		Crowding:   ind.Crowding,
	}
}

// Config parameterizes the engine.
//
//detlint:optwire
type Config struct {
	// PopulationSize is N; it must be even and >= 2. Default 100.
	PopulationSize int
	// MutationRate is the per-offspring mutation probability (selected by
	// experimentation in the paper). Default 0.1.
	MutationRate float64
	// Ranking selects the survivor-ranking rule. Default DebFronts.
	Ranking Ranking
	// Seeds are allocations injected into the initial population; the
	// remainder is random. Seeds beyond PopulationSize are ignored.
	Seeds []*sched.Allocation
	// Workers bounds parallelism of fitness evaluation and of the
	// variation phase; 0 means GOMAXPROCS, 1 forces serial execution.
	// Results are identical for every worker count.
	Workers int
	// Repair selects how offspring order arrays are restored into
	// permutations after crossover. Default RerankRepair.
	Repair Repair
	// Selection selects how crossover parents are drawn. Default
	// UniformSelection (as the paper describes); TournamentSelection is
	// the canonical NSGA-II binary tournament on (rank, crowding).
	Selection Selection
	// Problem optionally replaces the paper's utility/energy objective
	// pair. Nil means UtilityEnergyProblem. Custom problems let the same
	// engine solve e.g. the makespan/energy formulation of the authors'
	// prior work (Friese et al., INFOCOMP 2012).
	//detlint:allow optwire code-level extension point: custom problems are built by callers, not CLI flags
	Problem *Problem
}

// Problem defines the objective space the engine optimizes over.
type Problem struct {
	// Name identifies the problem in diagnostics.
	Name string
	// Space declares the per-objective optimization senses.
	Space moea.Space
	// Objectives maps a schedule evaluation to an objective vector
	// matching Space.
	Objectives func(sched.Evaluation) []float64
	// FillObjectives, when non-nil, writes the objective vector into dst
	// (len Space.Dim()), sparing the engine one allocation per
	// evaluation. Optional; without it the engine copies Objectives'
	// vector into its own buffer, and the two must agree.
	FillObjectives func(dst []float64, ev sched.Evaluation)
}

// fill writes the objectives of ev into ind.Objectives, an arena slot of
// capacity dim, so every objective vector the engine holds is one the
// arena counts.
func (p *Problem) fill(ind *Individual, ev sched.Evaluation, dim int) {
	o := ind.Objectives[:dim]
	if p.FillObjectives != nil {
		p.FillObjectives(o, ev)
	} else {
		copy(o, p.Objectives(ev))
	}
	ind.Objectives = o
}

// UtilityEnergyProblem is the paper's bi-objective problem: maximize
// total utility earned, minimize total energy consumed.
func UtilityEnergyProblem() *Problem {
	return &Problem{
		Name:  "utility-energy",
		Space: moea.UtilityEnergySpace(),
		Objectives: func(ev sched.Evaluation) []float64 {
			return []float64{ev.Utility, ev.Energy}
		},
		FillObjectives: func(dst []float64, ev sched.Evaluation) {
			dst[0], dst[1] = ev.Utility, ev.Energy
		},
	}
}

// MakespanEnergyProblem is the prior-work formulation the paper contrasts
// itself against in §II (ref [3]): minimize makespan, minimize energy.
func MakespanEnergyProblem() *Problem {
	return &Problem{
		Name:  "makespan-energy",
		Space: moea.NewSpace(moea.Minimize, moea.Minimize),
		Objectives: func(ev sched.Evaluation) []float64 {
			return []float64{ev.Makespan, ev.Energy}
		},
		FillObjectives: func(dst []float64, ev sched.Evaluation) {
			dst[0], dst[1] = ev.Makespan, ev.Energy
		},
	}
}

// Selection selects the parent-selection rule.
type Selection int

const (
	// UniformSelection draws both crossover parents uniformly at random
	// from the population (the paper's §IV-D operator).
	UniformSelection Selection = iota
	// TournamentSelection draws each parent as the winner of a binary
	// tournament under the crowded-comparison operator: lower rank wins;
	// equal ranks are broken by larger crowding distance (Deb 2002).
	TournamentSelection
)

func (s Selection) String() string {
	switch s {
	case UniformSelection:
		return "uniform"
	case TournamentSelection:
		return "tournament"
	default:
		return fmt.Sprintf("Selection(%d)", int(s))
	}
}

// Repair selects the post-crossover permutation repair strategy.
type Repair int

const (
	// RerankRepair stably re-ranks the swapped order values into a
	// permutation, preserving the relative ordering crossover expressed
	// (the default; see DESIGN.md §4).
	RerankRepair Repair = iota
	// ShuffleRepair discards the order information and draws a fresh
	// random permutation. Ablation baseline: it shows how much of the
	// search signal lives in the inherited scheduling order.
	ShuffleRepair
)

func (r Repair) String() string {
	switch r {
	case RerankRepair:
		return "rerank"
	case ShuffleRepair:
		return "shuffle"
	default:
		return fmt.Sprintf("Repair(%d)", int(r))
	}
}

func (c *Config) fillDefaults() {
	if c.PopulationSize == 0 {
		c.PopulationSize = 100
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.1
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

func (c *Config) validate() error {
	if c.PopulationSize < 2 || c.PopulationSize%2 != 0 {
		return fmt.Errorf("nsga2: population size %d, want even and >= 2", c.PopulationSize)
	}
	if c.MutationRate < 0 || c.MutationRate > 1 {
		return fmt.Errorf("nsga2: mutation rate %v outside [0,1]", c.MutationRate)
	}
	if c.Workers < 0 {
		return fmt.Errorf("nsga2: workers %d, want >= 0", c.Workers)
	}
	switch c.Ranking {
	case DebFronts, DominanceCount:
	default:
		return fmt.Errorf("nsga2: unknown ranking %d", int(c.Ranking))
	}
	switch c.Repair {
	case RerankRepair, ShuffleRepair:
	default:
		return fmt.Errorf("nsga2: unknown repair strategy %d", int(c.Repair))
	}
	switch c.Selection {
	case UniformSelection, TournamentSelection:
	default:
		return fmt.Errorf("nsga2: unknown selection %d", int(c.Selection))
	}
	return nil
}

// arena recycles the buffers of non-surviving individuals so the
// generation loop allocates nothing in steady state: exactly N
// chromosomes and objective vectors leave the population each
// generation, and exactly N are needed for the next offspring batch.
//
// Objective vectors and contribution rows are carved in batches of the
// demand hint from contiguous structure-of-arrays blocks, one backing
// slice per field, with slot strides padded to whole cache lines so two
// slots handed to offspring owned by different workers never share a
// line. Genomes are allocated one at a time instead (DESIGN.md §11,
// §13): ParetoFront shares genomes with its callers, and a shared
// genome that falls is left to the garbage collector, which can reclaim
// it only if it is its own allocation rather than a view into a block.
type arena struct {
	eval *sched.Evaluator
	dim  int
	// batch is the steady-state demand hint (2×population): the chunk
	// size of the small per-slot fields (objectives, contribs).
	batch int

	seqs     [][]uint32
	objs     [][]float64
	contribs []*sched.Contribs

	// Owned-slot totals per field; in-use = owned − free-list length. A
	// shared genome the arena lets go of leaves seqSlots (dropSeq).
	seqSlots, objSlots, contribSlots int
	// Batch counts of the carved fields, for growth tests.
	objChunks, contribChunks int
}

// seqSlotBytes is a genotype's cost per task: one packed uint32
// execution slot (sched.PackSlot).
const seqSlotBytes = 4

func (ar *arena) init(eval *sched.Evaluator, dim, batch int) {
	ar.eval = eval
	ar.dim = dim
	if batch < 1 {
		batch = 1
	}
	ar.batch = batch
}

// getSeq returns an execution sequence of NumTasks slots: a recycled
// one, whose contents are stale, or else a new allocation. Its capacity
// is rounded up to 16 slots, a 64-byte line; Go's size classes of 1 KB
// and up are multiples of 64 bytes, so genomes start on a cache line
// and no two share one.
func (ar *arena) getSeq() []uint32 {
	if len(ar.seqs) == 0 {
		nt := ar.eval.NumTasks()
		ar.seqSlots++
		return make([]uint32, (nt+15)/16*16)[:nt:nt]
	}
	k := len(ar.seqs) - 1
	q := ar.seqs[k]
	ar.seqs = ar.seqs[:k]
	return q
}

func (ar *arena) putSeq(q []uint32) {
	if q != nil {
		ar.seqs = append(ar.seqs, q)
	}
}

// dropSeq lets go of an in-use genome without recycling it: its holders
// keep it, and the garbage collector reclaims it after them.
func (ar *arena) dropSeq() { ar.seqSlots-- }

func (ar *arena) getObjs() []float64 {
	if len(ar.objs) == 0 {
		stride := (ar.dim + 7) / 8 * 8 // whole 64-byte lines per slot
		back := make([]float64, ar.batch*stride)
		for s := 0; s < ar.batch; s++ {
			ar.objs = append(ar.objs, back[s*stride:s*stride:s*stride+ar.dim])
		}
		ar.objSlots += ar.batch
		ar.objChunks++
	}
	k := len(ar.objs) - 1
	o := ar.objs[k]
	ar.objs = ar.objs[:k]
	return o
}

func (ar *arena) putObjs(o []float64) {
	if o != nil {
		ar.objs = append(ar.objs, o)
	}
}

func (ar *arena) getContrib() *sched.Contribs {
	if len(ar.contribs) == 0 {
		ar.contribs = append(ar.contribs, ar.eval.NewContribsBatch(ar.batch)...)
		ar.contribSlots += ar.batch
		ar.contribChunks++
	}
	k := len(ar.contribs) - 1
	c := ar.contribs[k]
	ar.contribs = ar.contribs[:k]
	c.Invalidate() // stale rows; the next evaluation overwrites them
	return c
}

func (ar *arena) putContrib(c *sched.Contribs) {
	if c != nil {
		ar.contribs = append(ar.contribs, c)
	}
}

// occupancy returns the in-use fraction of all carved slots across the
// three fields (0 when nothing has been carved yet).
func (ar *arena) occupancy() (inUse, total int) {
	total = ar.seqSlots + ar.objSlots + ar.contribSlots
	free := len(ar.seqs) + len(ar.objs) + len(ar.contribs)
	return total - free, total
}

// Engine runs NSGA-II over a fixed evaluator. It is not safe for
// concurrent use; fitness-evaluation and variation parallelism is
// internal and deterministic.
type Engine struct {
	cfg     Config
	eval    *sched.Evaluator
	problem *Problem
	space   moea.Space
	src     *rng.Source

	pop        []Individual
	generation int

	sessions []*sched.DeltaSession // one per worker
	panics   []any                 // per-worker recovered panic, see fanout

	// Steady-state scratch (lazily sized on first Step).
	ranker     *moea.Ranker
	arena      arena
	parents    []*Individual // 2 per offspring pair, drawn serially
	offspring  []Individual
	meta       []Individual
	popBuf     []Individual // survivor build buffer, swapped with pop
	points     [][]float64
	picked     []bool
	groupOrder []int
	crowdOrd   crowdOrderSorter
	popOrd     popOrderSorter
	injected   []Individual // Inject's packed copies of its migrants
	workerSrc  []rng.Source // reseeded per offspring pair

	// Per-worker breeding scratch, reused pair after pair. mcounts[2w+c]
	// is worker w's current child c's machine histogram, indexed by
	// machine+1 so that entry 0 is a sink for dropped tasks: the merge
	// writes it while building the child, mutation patches it, and the
	// child's evaluation reads mcounts[2w+c][1:]. Rows are padded to
	// whole cache lines inside one backing slice so concurrent workers
	// never share a line. plans[w] carries Prepare's residue into the
	// simulation. shuffle[2w+c] is the Allocation ShuffleRepair
	// materializes child c into before drawing its fresh order (nil
	// under RerankRepair).
	mcounts [][]int32
	plans   []*sched.DeltaPlan
	shuffle []sched.Allocation
	// varyNs[w] and evalNs[w] are worker w's clock-measured variation
	// and evaluation time in the current Step, the proportions by which
	// the fused breeding bracket is split between the two phases.
	varyNs, evalNs []int64

	// Observer state (see observe.go). observer is nil when telemetry is
	// disabled — the only cost then is one nil check per Step.
	observer  obs.Observer
	kernel    *obs.IndicatorKernel
	statsBase sched.DeltaStats
	frontObs  [][]float64 // recycled borrow-only front buffer
	frontOrd  frontSorter

	// Phase profiler (see observe.go). phase is nil when profiling is
	// disabled — every Step bracket is then a nil-receiver no-op.
	// phaseBase is the cumulative-totals snapshot notifyGeneration diffs
	// against to attribute phase time per generation.
	phase     *obs.PhaseTimer
	phaseBase obs.PhaseTotals
}

// New creates an engine with an initial population: the seeds (validated)
// followed by random chromosomes, all evaluated and ranked.
func New(eval *sched.Evaluator, cfg Config, src *rng.Source) (*Engine, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("nsga2: nil random source")
	}
	problem := cfg.Problem
	if problem == nil {
		problem = UtilityEnergyProblem()
	}
	if problem.Objectives == nil || problem.Space.Dim() < 2 {
		return nil, fmt.Errorf("nsga2: problem %q needs an objective function and >= 2 senses", problem.Name)
	}
	e := &Engine{
		cfg:     cfg,
		eval:    eval,
		problem: problem,
		space:   problem.Space,
		src:     src,
		ranker:  moea.NewRanker(),
	}
	e.sessions = make([]*sched.DeltaSession, cfg.Workers)
	for i := range e.sessions {
		e.sessions[i] = eval.NewDeltaSession()
	}
	e.panics = make([]any, cfg.Workers)
	e.arena.init(eval, e.space.Dim(), 2*cfg.PopulationSize)

	e.pop = make([]Individual, 0, cfg.PopulationSize)
	for _, s := range cfg.Seeds {
		if len(e.pop) == cfg.PopulationSize {
			break
		}
		if err := eval.Validate(s); err != nil {
			return nil, fmt.Errorf("nsga2: invalid seed: %w", err)
		}
		e.pop = append(e.pop, Individual{seq: e.pack(s)})
	}
	// The seeds now live in arena sequences; nothing reads them again,
	// so the engine does not keep the caller's allocations alive.
	e.cfg.Seeds = nil
	var a sched.Allocation
	for len(e.pop) < cfg.PopulationSize {
		eval.RandomAllocationInto(&a, src)
		e.pop = append(e.pop, Individual{seq: e.pack(&a)})
	}
	e.evaluateAll(e.pop)
	e.rank(e.pop)
	return e, nil
}

// pack scatters a validated allocation into an arena sequence.
func (e *Engine) pack(a *sched.Allocation) []uint32 {
	q := e.arena.getSeq()
	sched.ScatterSlots(a, q, nil)
	return q
}

// ensureScratch sizes the per-engine buffers the generation loop reuses.
func (e *Engine) ensureScratch() {
	n := e.cfg.PopulationSize
	if cap(e.parents) >= n {
		return
	}
	nm := e.eval.NumMachines()
	e.parents = make([]*Individual, n)
	e.offspring = make([]Individual, 0, n)
	e.meta = make([]Individual, 0, 2*n)
	e.popBuf = make([]Individual, 0, n)
	e.points = make([][]float64, 0, 2*n)
	e.picked = make([]bool, 2*n)
	e.groupOrder = make([]int, 0, 2*n)
	// The breeding fan-out runs at most one worker per pair, and each
	// worker holds two children at once: a pair is bred, then both
	// children are evaluated before the worker moves on.
	workers := max(1, min(e.cfg.Workers, n/2))
	rows := 2 * workers
	cntStride := (nm + 16) / 16 * 16 // nm+1 int32, 16 per 64-byte line
	cntBack := make([]int32, rows*cntStride)
	e.mcounts = make([][]int32, rows)
	for i := range e.mcounts {
		e.mcounts[i] = cntBack[i*cntStride : i*cntStride+nm+1 : i*cntStride+nm+1]
	}
	if e.cfg.Repair == ShuffleRepair {
		e.shuffle = make([]sched.Allocation, rows)
	}
	e.plans = make([]*sched.DeltaPlan, workers)
	for w := range e.plans {
		e.plans[w] = e.eval.NewDeltaPlan()
	}
	e.varyNs = make([]int64, workers)
	e.evalNs = make([]int64, workers)
	e.workerSrc = make([]rng.Source, workers)
}

// Generation returns the number of completed generations.
func (e *Engine) Generation() int { return e.generation }

// Population returns a deep copy of the current population.
func (e *Engine) Population() []Individual {
	out := make([]Individual, len(e.pop))
	for i, ind := range e.pop {
		out[i] = ind.Clone()
	}
	return out
}

// ParetoFront returns the rank-1 individuals, sorted by descending
// utility. Each one shares its population member's genome, which no
// later Step, Inject or Restore overwrites, carries its own copy of the
// objective vector and has a nil Alloc: call Allocation to materialize
// it.
func (e *Engine) ParetoFront() []Individual {
	count, width := 0, 0
	for i := range e.pop {
		if e.pop[i].Rank == 1 {
			count++
			width += len(e.pop[i].Objectives)
		}
	}
	objs := make([]float64, width) // every member's objective copy, in one block
	out := make([]Individual, 0, count)
	for i := range e.pop {
		ind := &e.pop[i]
		if ind.Rank != 1 {
			continue
		}
		ind.shared = true
		k := copy(objs, ind.Objectives)
		out = append(out, Individual{Objectives: objs[:k:k], Rank: ind.Rank, Crowding: ind.Crowding, seq: ind.seq})
		objs = objs[k:]
	}
	sort.Slice(out, func(i, j int) bool { return e.frontBefore(out[i].Objectives, out[j].Objectives) })
	return out
}

// FrontPoints returns copies of the rank-1 objective vectors (utility,
// energy), sorted by descending utility. It shares no genome.
func (e *Engine) FrontPoints() [][]float64 {
	var out [][]float64
	for i := range e.pop {
		if e.pop[i].Rank == 1 {
			out = append(out, slices.Clone(e.pop[i].Objectives))
		}
	}
	sort.Slice(out, func(i, j int) bool { return e.frontBefore(out[i], out[j]) })
	return out
}

// frontBefore reports whether front point a sorts before b: better in
// the first objective.
func (e *Engine) frontBefore(a, b []float64) bool {
	if e.space.Senses[0] == moea.Maximize {
		return a[0] > b[0]
	}
	return a[0] < b[0]
}

// Elites returns deep copies of the n best individuals under the
// crowded-comparison order (rank ascending, crowding descending).
func (e *Engine) Elites(n int) []Individual {
	n = min(n, len(e.pop))
	idx := e.popOrder(false)
	out := make([]Individual, n)
	for i := 0; i < n; i++ {
		out[i] = e.pop[idx[i]].Clone()
	}
	return out
}

// newMigrants returns n individuals whose genomes and objective vectors
// belong to the caller and fit this engine: the buffers packElites
// fills.
func (e *Engine) newMigrants(n int) []Individual {
	out := make([]Individual, n)
	for i := range out {
		out[i] = Individual{seq: make([]uint32, e.eval.NumTasks()), Objectives: make([]float64, e.space.Dim())}
	}
	return out
}

// packElites copies the len(dst) best individuals, in Elites' order,
// into dst's genomes and objective vectors (see newMigrants): Elites
// without materializing an allocation. len(dst) must not exceed the
// population.
//
//detlint:hotpath
func (e *Engine) packElites(dst []Individual) {
	idx := e.popOrder(false)
	for i := range dst {
		src := &e.pop[idx[i]]
		copy(dst[i].seq, src.seq)
		copy(dst[i].Objectives, src.Objectives)
	}
}

// Inject replaces the engine's worst individuals (rank descending,
// crowding ascending) with copies of the given individuals, re-ranking
// the population. Each migrant's genotype is its Alloc when set, else
// its genome (packed elites, shared front points); it is copied into an
// arena genome, so Inject keeps no reference to the migrants. Every
// migrant is validated before the population changes, and re-evaluated
// under the engine's problem.
func (e *Engine) Inject(inds []Individual) error {
	if len(inds) == 0 {
		return nil
	}
	if len(inds) > len(e.pop) {
		inds = inds[:len(e.pop)]
	}
	for i := range inds {
		if err := e.validateMigrant(&inds[i]); err != nil {
			return fmt.Errorf("nsga2: injected individual %d invalid: %w", i, err)
		}
	}
	e.injected = e.injected[:0]
	for i := range inds {
		q := e.arena.getSeq()
		if a := inds[i].Alloc; a != nil {
			sched.ScatterSlots(a, q, nil)
		} else {
			copy(q, inds[i].seq)
		}
		e.injected = append(e.injected, Individual{seq: q})
	}
	e.evaluateAll(e.injected)
	victims := e.popOrder(true)
	for i, c := range e.injected {
		e.release(&e.pop[victims[i]])
		e.pop[victims[i]] = c
	}
	clear(e.injected)
	e.rank(e.pop)
	return nil
}

// validateMigrant checks a migrant's genotype, Alloc first as in
// Individual.Allocation.
func (e *Engine) validateMigrant(ind *Individual) error {
	switch {
	case ind.Alloc != nil:
		return e.eval.Validate(ind.Alloc)
	case ind.seq != nil:
		return e.eval.ValidateSlots(ind.seq)
	default:
		return errors.New("no genotype")
	}
}

// popOrder returns the population's indices stably sorted under the
// crowded-comparison order, rank ascending then crowding descending,
// or in the reverse order of both keys when worst is set. The one
// ranking behind Elites, packElites and Inject's victims; the slice is
// engine scratch, valid until the next call.
func (e *Engine) popOrder(worst bool) []int {
	o := &e.popOrd
	o.pop, o.worst = e.pop, worst
	o.idx = o.idx[:0]
	for i := range e.pop {
		o.idx = append(o.idx, i)
	}
	sort.Stable(o)
	return o.idx
}

// Step advances the engine by one generation (Algorithm 1 steps 3–11).
// Steady-state single-worker Steps allocate nothing (a parallel Step
// pays only for its fan-out's goroutines): offspring chromosomes come
// from the arena, variation and evaluation run over per-worker scratch,
// and ranking reuses the engine's moea.Ranker.
//
//detlint:hotpath
//detlint:pure
func (e *Engine) Step() {
	n := e.cfg.PopulationSize
	pairs := n / 2
	e.ensureScratch()

	// Steps 3–4: draw parents serially (selection consumes the engine
	// source in a worker-independent order), then derive one child rng
	// stream per offspring pair from two generation-level draws. The
	// breeding fan-out below is bit-identical for every worker count.
	// Phase brackets throughout are nil-receiver no-ops unless a
	// PhaseTimer is attached, and never touch engine rng or state.
	t0 := e.phase.Start()
	for k := 0; k < 2*pairs; k++ {
		e.parents[k] = e.selectParent()
	}
	genSeed := e.src.Uint64()
	genStream := e.src.Uint64()
	e.phase.Record(obs.PhaseSelect, t0)

	t0 = e.phase.Start()
	e.offspring = e.offspring[:0]
	for i := 0; i < n; i++ {
		e.offspring = append(e.offspring, Individual{
			seq:        e.arena.getSeq(),
			Objectives: e.arena.getObjs(),
			contrib:    e.arena.getContrib(),
		})
	}
	// Steps 4–5: crossover + repair + mutation and the evaluation of
	// both children, pair by pair, parallel across pairs.
	e.breedAll(genSeed, genStream, pairs)
	e.recordBreeding(t0)

	// Step 6: merge into the 2N meta-population (elitism).
	t0 = e.phase.Start()
	e.meta = e.meta[:0]
	e.meta = append(e.meta, e.pop...)
	e.meta = append(e.meta, e.offspring...)

	// Steps 7–10: rank, fill by rank groups, truncate by crowding.
	e.selectSurvivors(n)
	e.phase.Record(obs.PhaseSort, t0)
	e.generation++

	// Telemetry last: the observer sees the post-step state and, by
	// construction, cannot influence it (no rng access, borrow-only
	// buffers). Disabled observation is this one nil check.
	if e.observer != nil {
		e.notifyGeneration()
	}
}

// Run advances the engine by the given number of generations.
func (e *Engine) Run(generations int) {
	for i := 0; i < generations; i++ {
		e.Step()
	}
}

// RunCheckpoints advances the engine through increasing generation
// checkpoints, invoking fn with the cumulative generation count after
// each.
//
// Checkpoint contract: checkpoints are absolute generation counts, must
// be nonnegative and nondecreasing, and fn is invoked exactly once per
// checkpoint entry — a checkpoint at or below the engine's current
// generation reports the current front without stepping. In particular,
// checkpoint 0 on a fresh engine reports the evaluated and ranked
// INITIAL population's front (generation 0): the baseline every
// convergence plot starts from. Duplicate checkpoints re-report the
// same generation.
func (e *Engine) RunCheckpoints(checkpoints []int, fn func(generation int, front []Individual)) error {
	prev := 0
	for _, cp := range checkpoints {
		if cp < 0 {
			return fmt.Errorf("nsga2: checkpoint %d is negative", cp)
		}
		if cp < prev {
			return fmt.Errorf("nsga2: checkpoints must be nondecreasing, got %d after %d", cp, prev)
		}
		prev = cp
		for e.generation < cp {
			e.Step()
		}
		fn(e.generation, e.ParetoFront())
	}
	return nil
}

// selectParent draws one crossover parent according to the configured
// selection rule. The returned pointer is stable until survivor
// selection replaces the population.
func (e *Engine) selectParent() *Individual {
	n := len(e.pop)
	if e.cfg.Selection == TournamentSelection {
		a, b := e.src.Intn(n), e.src.Intn(n)
		ia, ib := &e.pop[a], &e.pop[b]
		switch {
		case ia.Rank < ib.Rank:
			return ia
		case ib.Rank < ia.Rank:
			return ib
		case ia.Crowding >= ib.Crowding:
			return ia
		default:
			return ib
		}
	}
	return &e.pop[e.src.Intn(n)]
}

// breedAll breeds and evaluates all offspring pairs, fanning out across
// the configured workers. Pair k always draws from the stream (genSeed,
// genStream+k) and each child's evaluation depends only on its own
// genes and its parent's contribution rows, so the offspring are
// independent of how pairs are partitioned across workers. The serial
// path calls breedRange directly, keeping single-worker Steps free of
// the fan-out's closure allocation.
func (e *Engine) breedAll(genSeed, genStream uint64, pairs int) {
	for w := range e.varyNs {
		e.varyNs[w], e.evalNs[w] = 0, 0
	}
	if e.cfg.Workers <= 1 || pairs <= 1 {
		e.breedRange(0, 0, pairs, genSeed, genStream)
		return
	}
	e.fanout(pairs, func(w, lo, hi int) {
		// breedRange writes only pairs [lo, hi)'s offspring/arena slots
		// and worker w's scratch; disjoint per goroutine, and proven
		// worker-invariant by TestWorkerCountInvariance.
		e.breedRange(w, lo, hi, genSeed, genStream)
	})
}

// breedRange breeds and evaluates pairs [lo, hi) on worker w, timing
// the variation and evaluation halves of each pair on the phase clock
// (free when no PhaseTimer is attached).
//
//detlint:hotpath
func (e *Engine) breedRange(w, lo, hi int, genSeed, genStream uint64) {
	src := &e.workerSrc[w]
	var vary, eval int64
	t := e.phase.Start()
	for k := lo; k < hi; k++ {
		src.Reseed(genSeed, genStream+uint64(k))
		e.varyPair(k, w, src)
		tv := e.phase.Start()
		e.evaluateChild(2*k, w, 0)
		e.evaluateChild(2*k+1, w, 1)
		te := e.phase.Start()
		vary += tv - t
		eval += te - tv
		t = te
	}
	e.varyNs[w], e.evalNs[w] = vary, eval
}

// evaluateChild evaluates offspring i, worker w's current child c,
// straight from its execution sequence and the histogram its breeding
// just wrote: Prepare inherits every row whose machine bucket is
// unchanged from either parent (its own first, then its sibling's), the
// kernel simulates the rest, and Finish reduces the rows to objective
// values.
//
//detlint:hotpath
func (e *Engine) evaluateChild(i, w, c int) {
	ind := &e.offspring[i]
	sess, plan := e.sessions[w], e.plans[w]
	sess.Prepare(ind.seq, e.mcounts[2*w+c][1:], e.parents[i].contrib, e.parents[i^1].contrib, ind.contrib, plan)
	sess.SimulateAllNeeds(plan, ind.contrib)
	e.problem.fill(ind, sess.Finish(ind.contrib, plan), e.space.Dim())
}

// recordBreeding closes the breeding bracket opened at start, splitting
// its wall time between PhaseVariation and PhaseEval in the proportion
// the workers measured. Under one worker the split is exact up to the
// arena draws, which are apportioned with the rest.
func (e *Engine) recordBreeding(start int64) {
	if e.phase == nil {
		return
	}
	total := e.phase.Start() - start
	var vary, eval int64
	for w := range e.varyNs {
		vary += e.varyNs[w]
		eval += e.evalNs[w]
	}
	share := total / 2
	if sum := vary + eval; sum > 0 {
		share = int64(float64(total) * float64(vary) / float64(sum))
	}
	e.phase.Add(obs.PhaseVariation, share)
	e.phase.Add(obs.PhaseEval, total-share)
}

// varyPair produces offspring 2k and 2k+1 from parents 2k and 2k+1 in
// recycled buffers on worker w: crossover with order repair, then
// per-child mutation coin flips, all drawn from the pair's own stream.
// Alongside each child's execution sequence it writes the child's
// machine histogram into the worker's scratch.
//
//detlint:hotpath
func (e *Engine) varyPair(k, w int, src *rng.Source) {
	p1, p2 := e.parents[2*k].seq, e.parents[2*k+1].seq
	c1, c2 := e.offspring[2*k].seq, e.offspring[2*k+1].seq
	h1, h2 := e.mcounts[2*w], e.mcounts[2*w+1]
	n := len(c1)
	i := src.Intn(n)
	j := src.Intn(n)
	if i > j {
		i, j = j, i
	}
	if e.cfg.Repair == ShuffleRepair {
		e.shuffleInto(w, p1, p2, c1, c2, h1, h2, i, j, src)
	} else {
		mergePair(p1, p2, c1, c2, h1, h2, i, j)
	}
	if src.Bool(e.cfg.MutationRate) {
		e.mutateWith(c1, h1, src)
	}
	if src.Bool(e.cfg.MutationRate) {
		e.mutateWith(c2, h2, src)
	}
}

// mergePair builds both children of a segment swap over genes [i, j],
// with rerank repair, straight from the parents' execution sequences
// p1 and p2: it writes the children's sequences c1 and c2 and their
// machine histograms h1 and h2 (indexed by machine+1, entry 0 a sink
// for dropped tasks).
//
// Child 1 takes the genes outside [i, j] from parent 1 and the genes
// inside from parent 2; child 2 the reverse. Each gene brings its
// parent's scheduling position as its order value, and rerank orders a
// child's genes by that value, ties to the lower gene index. Position r
// holds exactly one gene in each parent, p1[r]'s task and p2[r]'s, so
// walking r upward and emitting the genes each child takes at r (the
// lower task first when it takes both) is that repair in one
// sequential pass.
//
//detlint:hotpath
func mergePair(p1, p2, c1, c2 []uint32, h1, h2 []int32, i, j int) {
	const bits, mask = sched.SlotTaskBits, sched.SlotTaskMask
	clear(h1)
	clear(h2)
	lo, span := uint32(i), uint32(j-i)
	p2 = p2[:len(p1)]
	k1, k2 := 0, 0
	for r, a := range p1 {
		b := p2[r]
		inA := a&mask-lo <= span
		inB := b&mask-lo <= span
		switch {
		case inA == inB: // each child takes one gene at r
			if inA {
				a, b = b, a
			}
			c1[k1], c2[k2] = a, b
			k1++
			k2++
			h1[a>>bits]++
			h2[b>>bits]++
		case inB: // child 1 takes both: a from outside, b from the segment
			if b&mask < a&mask {
				a, b = b, a
			}
			c1[k1], c1[k1+1] = a, b
			k1 += 2
			h1[a>>bits]++
			h1[b>>bits]++
		default: // child 2 takes both: b from outside, a from the segment
			if b&mask < a&mask {
				a, b = b, a
			}
			c2[k2], c2[k2+1] = a, b
			k2 += 2
			h2[a>>bits]++
			h2[b>>bits]++
		}
	}
}

// shuffleInto is ShuffleRepair's crossover on worker w: it materializes
// both parents as allocations, swaps their machines over [i, j], draws
// each child a fresh random order, and scatters the children into c1
// and c2 with their histograms (indexed as mergePair's).
func (e *Engine) shuffleInto(w int, p1, p2, c1, c2 []uint32, h1, h2 []int32, i, j int, src *rng.Source) {
	a1, a2 := &e.shuffle[2*w], &e.shuffle[2*w+1]
	sched.UnpackSlots(p1, a1)
	sched.UnpackSlots(p2, a2)
	for g := i; g <= j; g++ {
		a1.Machine[g], a2.Machine[g] = a2.Machine[g], a1.Machine[g]
	}
	src.PermInto32(a1.Order)
	src.PermInto32(a2.Order)
	sched.ScatterSlots(a1, c1, h1[1:])
	sched.ScatterSlots(a2, c2, h2[1:])
}

// mutateWith implements the paper's operator on an execution sequence
// and its histogram h (indexed as mergePair's): reassign one random
// gene to a random eligible machine, and swap the global scheduling
// orders of two random genes.
//
//detlint:hotpath
func (e *Engine) mutateWith(seq []uint32, h []int32, src *rng.Source) {
	n := len(seq)
	g := src.Intn(n)
	el := e.eval.Eligible(e.eval.Trace().Tasks[g].Type)
	m := int32(el[src.Intn(len(el))])
	x, y := src.Intn(n), src.Intn(n)
	mutateSeq(seq, h, g, m, x, y)
}

// mutateSeq moves gene g to machine m, then swaps the scheduling
// positions of genes x and y, patching seq and h in place. One scan
// finds the three genes' positions; the machine patch comes first, so
// when g is x or y the swap carries its new machine.
//
//detlint:hotpath
func mutateSeq(seq []uint32, h []int32, g int, m int32, x, y int) {
	pg, px, py := -1, -1, -1
	for r, v := range seq {
		t := sched.SlotTask(v)
		if t == g {
			pg = r
		}
		if t == x {
			px = r
		}
		if t == y {
			py = r
		}
		if pg >= 0 && px >= 0 && py >= 0 {
			break
		}
	}
	old := seq[pg]
	seq[pg] = sched.PackSlot(m, g)
	h[old>>sched.SlotTaskBits]--
	h[m+1]++
	seq[px], seq[py] = seq[py], seq[px]
}

// fanout partitions [0, count) across the configured workers and invokes
// fn once per non-empty chunk with a dedicated worker id. A panic in a
// worker goroutine is recovered there and re-raised on the caller once
// every worker has finished (the lowest-numbered worker's value wins),
// so callers can recover it as they would on the serial path.
func (e *Engine) fanout(count int, fn func(worker, lo, hi int)) {
	workers := e.cfg.Workers
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		fn(0, 0, count)
		return
	}
	var wg sync.WaitGroup
	chunk := (count + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= count {
			break
		}
		hi := lo + chunk
		if hi > count {
			hi = count
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() { e.panics[w] = recover() }()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var first any
	for w, p := range e.panics {
		if first == nil {
			first = p
		}
		e.panics[w] = nil
	}
	if first != nil {
		panic(first)
	}
}

// evaluateAll fully simulates freshly packed individuals (seeds,
// injected, restored) in place, fanning out across the per-worker
// sessions. Their objective vectors and contribution buffers are drawn
// from the arena serially first (the arena is not goroutine-safe).
// Results are deterministic because each individual's evaluation is
// independent of scheduling. The serial path calls evaluateRange
// directly, keeping single-worker injections free of the fan-out's
// closure allocation.
func (e *Engine) evaluateAll(inds []Individual) {
	for i := range inds {
		inds[i].Objectives = e.arena.getObjs()
		inds[i].contrib = e.arena.getContrib()
	}
	if e.cfg.Workers <= 1 || len(inds) <= 1 {
		e.evaluateRange(inds, 0, 0, len(inds))
		return
	}
	e.fanout(len(inds), func(w, lo, hi int) { e.evaluateRange(inds, w, lo, hi) })
}

// evaluateRange fully simulates inds[lo:hi] on worker w's session.
func (e *Engine) evaluateRange(inds []Individual, w, lo, hi int) {
	sess, dim := e.sessions[w], e.space.Dim()
	for i := lo; i < hi; i++ {
		e.problem.fill(&inds[i], sess.EvaluateSlots(inds[i].seq, inds[i].contrib), dim)
	}
}

// rank computes Rank and Crowding for a population in place.
//
//detlint:hotpath
func (e *Engine) rank(pop []Individual) {
	e.points = e.points[:0]
	for i := range pop {
		e.points = append(e.points, pop[i].Objectives)
	}
	groups := e.rankGroups(e.points)
	for rank, group := range groups {
		dist := e.ranker.Crowding(e.space, e.points, group)
		for k, i := range group {
			pop[i].Rank = rank + 1
			pop[i].Crowding = dist[k]
		}
	}
}

// rankGroups partitions point indices into ascending-rank groups using
// the configured ranking rule. The returned groups alias the engine's
// ranker and are valid until its next use.
func (e *Engine) rankGroups(points [][]float64) [][]int {
	if e.cfg.Ranking == DominanceCount {
		return e.ranker.DominanceCountGroups(e.space, points)
	}
	return e.ranker.Fronts(e.space, points)
}

// selectSurvivors picks the best n individuals from e.meta: whole rank
// groups while they fit, then the most crowded-out members of the next
// group by descending crowding distance (Algorithm 1 steps 7–10). The
// buffers of everyone left behind return to the arena.
//
//detlint:hotpath
func (e *Engine) selectSurvivors(n int) {
	meta := e.meta
	e.points = e.points[:0]
	for i := range meta {
		e.points = append(e.points, meta[i].Objectives)
	}
	groups := e.rankGroups(e.points)
	if cap(e.picked) < len(meta) {
		e.picked = make([]bool, len(meta))
	}
	picked := e.picked[:len(meta)]
	for i := range picked {
		picked[i] = false
	}
	e.popBuf = e.popBuf[:0]
	for rank, group := range groups {
		dist := e.ranker.Crowding(e.space, e.points, group)
		for k, i := range group {
			meta[i].Rank = rank + 1
			meta[i].Crowding = dist[k]
		}
		if len(e.popBuf)+len(group) <= n {
			for _, i := range group {
				e.popBuf = append(e.popBuf, meta[i])
				picked[i] = true
			}
			if len(e.popBuf) == n {
				break
			}
			continue
		}
		// Partial group: take the most isolated by crowding distance.
		rem := n - len(e.popBuf)
		e.groupOrder = e.groupOrder[:0]
		for k := range group {
			e.groupOrder = append(e.groupOrder, k)
		}
		e.crowdOrd.dist, e.crowdOrd.order = dist, e.groupOrder
		sort.Stable(&e.crowdOrd)
		for _, k := range e.groupOrder[:rem] {
			e.popBuf = append(e.popBuf, meta[group[k]])
			picked[group[k]] = true
		}
		break
	}
	// Recycle the chromosomes, objective vectors, and contribution
	// caches of the fallen.
	for i := range meta {
		if !picked[i] {
			e.release(&meta[i])
			meta[i] = Individual{}
		}
	}
	e.pop, e.popBuf = e.popBuf, e.pop
	// Re-rank the survivor population so Rank/Crowding reflect the new
	// population rather than the meta-population.
	e.rank(e.pop)
}

// release returns a fallen population member's buffers to the arena.
// A genome ParetoFront shared stays with its holders: the arena drops it
// rather than hand it to the next offspring.
func (e *Engine) release(ind *Individual) {
	if ind.shared {
		e.arena.dropSeq()
	} else {
		e.arena.putSeq(ind.seq)
	}
	e.arena.putObjs(ind.Objectives)
	e.arena.putContrib(ind.contrib)
}

// crowdOrderSorter stably orders group positions by descending crowding
// distance.
type crowdOrderSorter struct {
	dist  []float64
	order []int
}

func (s *crowdOrderSorter) Len() int           { return len(s.order) }
func (s *crowdOrderSorter) Less(a, b int) bool { return s.dist[s.order[a]] > s.dist[s.order[b]] }
func (s *crowdOrderSorter) Swap(a, b int)      { s.order[a], s.order[b] = s.order[b], s.order[a] }

// popOrderSorter orders population indices for popOrder.
type popOrderSorter struct {
	pop   []Individual
	idx   []int
	worst bool
}

func (s *popOrderSorter) Len() int      { return len(s.idx) }
func (s *popOrderSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *popOrderSorter) Less(a, b int) bool {
	x, y := &s.pop[s.idx[a]], &s.pop[s.idx[b]]
	if s.worst {
		x, y = y, x
	}
	if x.Rank != y.Rank {
		return x.Rank < y.Rank
	}
	return x.Crowding > y.Crowding
}
