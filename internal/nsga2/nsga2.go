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
// The generation loop is engineered to be allocation-free in steady
// state: chromosomes and objective vectors of non-surviving individuals
// are recycled through a per-engine arena, ranking runs over reusable
// scratch (O(n log n) for the paper's bi-objective space via
// moea.Ranker), and the variation phase fans out across workers with one
// deterministic child rng stream per offspring pair, so results are
// bit-identical regardless of worker count. See DESIGN.md §8.
package nsga2

import (
	"fmt"
	"runtime"
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

// Individual is one chromosome with its cached evaluation.
type Individual struct {
	Alloc *sched.Allocation
	// Objectives is {total utility earned, total energy consumed in J}.
	Objectives []float64
	// Rank is 1-based; rank 1 is the current Pareto-optimal set.
	Rank int
	// Crowding is the crowding distance within the individual's front.
	Crowding float64

	// contrib caches the per-machine contribution rows of the last
	// machine-major evaluation, letting offspring derived from this
	// individual inherit clean machines' contributions. Engine-internal;
	// Clone deliberately drops it.
	contrib *sched.Contribs
}

// Clone deep-copies the individual.
func (ind Individual) Clone() Individual {
	return Individual{
		Alloc:      ind.Alloc.Clone(),
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
	// Evaluation selects the offspring-evaluation strategy. The default
	// DeltaEvaluation re-simulates only machines whose task sequence the
	// variation operators touched; FullEvaluation re-simulates every
	// machine. Both run the machine-major kernel and produce
	// bit-identical populations for the same seed and any worker count.
	Evaluation Evaluation
	// DeltaMaxDirtyFrac is retained for configuration compatibility and
	// no longer consulted: since the type-compressed kernel rework,
	// parent inheritance is decided per machine by bucket-fingerprint
	// match rather than by variation-reported dirty flags, so there is no
	// diff phase left to bail out of. Values in [0,1] validate as before.
	//detlint:allow optwire compatibility knob retained for old callers; deliberately no CLI plumbing
	DeltaMaxDirtyFrac float64
	// CacheCapacity bounds the fitness-memoization cache in entries
	// (rounded up to a power of two). 0 means the default, 4 ×
	// PopulationSize; negative disables memoization entirely.
	// Populations are bit-identical for every capacity, including
	// disabled — the cache only changes how fast evaluations happen.
	CacheCapacity int
	// CacheVerify re-evaluates every cache hit and panics if the
	// memoized outcome is not bit-identical — a debug guard against
	// 64-bit fingerprint collisions. Expensive: each hit then costs a
	// full simulation plus comparison.
	CacheVerify bool
	// MachineCacheCapacity bounds the machine-bucket memoization cache
	// in entries (rounded up to a power of two). This second level sits
	// beneath the whole-chromosome cache: it keys on one machine's
	// bucket fingerprint and caches that machine's contribution row, so
	// an offspring that reproduces a previously seen machine schedule
	// skips that machine's simulation even when the chromosome as a
	// whole is new. 0 means the default, 128 × PopulationSize; negative
	// disables the level. Populations are bit-identical for every
	// capacity, including disabled.
	MachineCacheCapacity int
	// MachineCacheVerify re-simulates every machine-cache hit and panics
	// if the memoized row is not bit-identical — the bucket-fingerprint
	// analogue of CacheVerify, and as expensive.
	MachineCacheVerify bool
	// Kernel selects the per-machine simulation loop: the
	// type-compressed run-length kernel (the default) or the per-task
	// scalar reference. Both are bit-identical; the choice only affects
	// speed.
	Kernel sched.Kernel
}

// Evaluation selects how offspring objective values are computed.
type Evaluation int

const (
	// DeltaEvaluation (the default) evaluates offspring incrementally:
	// variation reports the machines it may have dirtied, machines whose
	// task sequence is unchanged from the parent inherit the parent's
	// cached per-machine contributions, and only truly changed machines
	// are re-simulated. Seeded, injected, restored, and shuffle-repaired
	// chromosomes automatically fall back to a full simulation.
	DeltaEvaluation Evaluation = iota
	// FullEvaluation re-simulates every machine of every offspring.
	FullEvaluation
)

func (ev Evaluation) String() string {
	switch ev {
	case DeltaEvaluation:
		return "delta"
	case FullEvaluation:
		return "full"
	default:
		return fmt.Sprintf("Evaluation(%d)", int(ev))
	}
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
	// (len Space.Dim()), letting the engine recycle objective buffers
	// instead of allocating each evaluation. Optional; Objectives remains
	// the fallback and the two must agree.
	FillObjectives func(dst []float64, ev sched.Evaluation)
}

// fill writes the objectives of ev into ind, reusing ind.Objectives when
// possible.
func (p *Problem) fill(ind *Individual, ev sched.Evaluation, dim int) {
	if p.FillObjectives == nil {
		ind.Objectives = p.Objectives(ev)
		return
	}
	if cap(ind.Objectives) < dim {
		ind.Objectives = make([]float64, dim)
	}
	ind.Objectives = ind.Objectives[:dim]
	p.FillObjectives(ind.Objectives, ev)
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
	if c.DeltaMaxDirtyFrac == 0 {
		c.DeltaMaxDirtyFrac = 0.95
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 4 * c.PopulationSize
	}
	if c.MachineCacheCapacity == 0 {
		c.MachineCacheCapacity = 128 * c.PopulationSize
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
	switch c.Evaluation {
	case DeltaEvaluation, FullEvaluation:
	default:
		return fmt.Errorf("nsga2: unknown evaluation strategy %d", int(c.Evaluation))
	}
	if c.DeltaMaxDirtyFrac < 0 || c.DeltaMaxDirtyFrac > 1 {
		return fmt.Errorf("nsga2: delta dirty fraction %v outside [0,1]", c.DeltaMaxDirtyFrac)
	}
	switch c.Kernel {
	case sched.KernelTyped, sched.KernelScalar:
	default:
		return fmt.Errorf("nsga2: unknown evaluation kernel %d", int(c.Kernel))
	}
	return nil
}

// arena recycles the buffers of non-surviving individuals so the
// generation loop allocates nothing in steady state: exactly N
// chromosomes and objective vectors leave the population each
// generation, and exactly N are needed for the next offspring batch.
//
// Buffers are carved from contiguous structure-of-arrays blocks — one
// backing slice per field (machine genes, order genes, objectives,
// contribution rows) — so a population walk streams through memory
// instead of chasing per-individual allocations. Slot strides are
// padded to whole cache lines: two slots handed to offspring owned by
// different workers never share a line, so the parallel variation and
// evaluation fan-outs write into disjoint cache-line-padded regions.
// Each field grows independently in blocks of `batch` slots (the
// fitness cache draws contribution buffers without touching the
// chromosome lists).
// arenaChunkBytes bounds the genotype growth quantum: one chunk's
// machine+order blocks together stay near this size, so a 10⁶-task
// engine grows its arena a few slots at a time instead of re-carving
// 2×population slots (which at that scale would be gigabytes per
// growth step and would double peak memory across a snapshot restore).
const arenaChunkBytes = 8 << 20

// arena recycles the population's SoA storage as a list of fixed-size
// chunks per field (DESIGN.md §13). Slot s of chunk c addresses the
// half-open gene range [s·stride, s·stride+numTasks) of chunk c's
// contiguous machine/order blocks; chunks are append-only, so growth
// never copies or moves existing field data — only the free stacks'
// slot headers are extended, one chunk at a time.
type arena struct {
	eval *sched.Evaluator
	dim  int
	// batch is the steady-state demand hint (2×population): the upper
	// bound on slots per chunk, and the exact chunk size for the small
	// per-slot fields (objectives, contribs) where one chunk is cheap.
	batch int

	allocs   []*sched.Allocation
	objs     [][]float64
	contribs []*sched.Contribs

	// Carved-slot totals per field; in-use = carved − free-list length.
	allocSlots, objSlots, contribSlots int
	// Chunk counts per field, for growth-quantum tests and diagnostics.
	allocChunks, objChunks, contribChunks int
}

func (ar *arena) init(eval *sched.Evaluator, dim, batch int) {
	ar.eval = eval
	ar.dim = dim
	if batch < 1 {
		batch = 1
	}
	ar.batch = batch
}

// allocChunkSlots returns the genotype-chunk size for a given gene
// stride: as many slots as fit arenaChunkBytes (machine+order int32
// blocks), clamped to [4, batch].
func (ar *arena) allocChunkSlots(stride int) int {
	n := arenaChunkBytes / (stride * 8) // 2 fields × 4 bytes per gene
	if n < 4 {
		n = 4
	}
	if n > ar.batch {
		n = ar.batch
	}
	return n
}

// growAllocs carves one genotype chunk: two contiguous per-field blocks
// (machine, order) with 16-gene-aligned strides so slots never share a
// cache line, pushed onto the free stack as (chunk, offset) slot views.
func (ar *arena) growAllocs() {
	nt := ar.eval.NumTasks()
	stride := (nt + 15) / 16 * 16 // 16 int32 genes per 64-byte line
	n := ar.allocChunkSlots(stride)
	machine := make([]int32, n*stride)
	order := make([]int32, n*stride)
	for s := 0; s < n; s++ {
		ar.allocs = append(ar.allocs, &sched.Allocation{
			Machine: machine[s*stride : s*stride : s*stride+nt],
			Order:   order[s*stride : s*stride : s*stride+nt],
		})
	}
	ar.allocSlots += n
	ar.allocChunks++
}

func (ar *arena) getAlloc() *sched.Allocation {
	if len(ar.allocs) == 0 {
		ar.growAllocs()
	}
	k := len(ar.allocs) - 1
	a := ar.allocs[k]
	ar.allocs = ar.allocs[:k]
	return a
}

func (ar *arena) putAlloc(a *sched.Allocation) {
	if a != nil {
		ar.allocs = append(ar.allocs, a)
	}
}

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
	total = ar.allocSlots + ar.objSlots + ar.contribSlots
	free := len(ar.allocs) + len(ar.objs) + len(ar.contribs)
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
	ranker      *moea.Ranker
	arena       arena
	parents     []*Individual // 2 per offspring pair, drawn serially
	offspring   []Individual
	meta        []Individual
	popBuf      []Individual // survivor build buffer, swapped with pop
	points      [][]float64
	picked      []bool
	groupOrder  []int
	crowdOrd    crowdOrderSorter
	workerSrc   []rng.Source // reseeded per offspring pair
	varScratch  [][]int32    // per-worker repair scratch (first child's histogram)
	varScratch2 [][]int32    // second child's histogram, alive at the same time

	// Per-offspring evaluation scratch. slots[i] is offspring i's
	// execution-order slot array (sched.PackSlot per scheduling
	// position) and mcounts[i] its per-machine task histogram, both
	// written by the variation fan-out as by-products of order repair
	// (mutation patches them in O(1)); plans[i] carries Prepare's
	// residue (fingerprint misses to simulate) between the evaluation
	// phases; needSlot[i][k] is the machine-bucket cache's verdict for
	// plan Need entry k (slot index, or -1 for a miss). All rows are
	// padded to whole cache lines inside one backing slice so concurrent
	// workers never share a line.
	slots    [][]uint64
	mcounts  [][]int32
	plans    []*sched.DeltaPlan
	needSlot [][]int32
	// missKs[w] is worker w's scratch for the Need indices the
	// machine-bucket cache missed, handed to SimulateNeedList so the
	// batched kernel sees the misses as one group.
	missKs [][]int32

	// Dirty-machine telemetry: one row of machine flags per offspring,
	// written by the variation fan-out only while an observer is
	// attached (evaluation no longer consumes the flags — fingerprint
	// matching decides inheritance by content).
	dirty  [][]bool
	dirtyN []int

	// Fitness memoization (cache.go): nil when disabled. fprint and
	// cacheEv are per-offspring slots written inside the fan-outs;
	// cacheSlot is the serial probe phase's verdict per offspring (slot
	// index, or -1 for a miss). verifyContribs is per-worker scratch for
	// the verify-on-hit debug mode.
	cache          *fitCache
	fprint         []uint64
	cacheSlot      []int32
	cacheEv        []sched.Evaluation
	cacheBase      cacheStats
	verifyContribs []*sched.Contribs

	// Machine-bucket memoization (mcache.go): the second cache level,
	// keyed on per-machine bucket fingerprints. nil when disabled.
	mcache     *machineCache
	mcacheBase cacheStats

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
		e.sessions[i].SetKernel(cfg.Kernel)
	}
	e.panics = make([]any, cfg.Workers)
	e.arena.init(eval, e.space.Dim(), 2*cfg.PopulationSize)
	if cfg.CacheCapacity > 0 {
		e.cache = newFitCache(cfg.CacheCapacity, &e.arena)
	}
	if cfg.MachineCacheCapacity > 0 {
		e.mcache = newMachineCache(cfg.MachineCacheCapacity)
	}

	e.pop = make([]Individual, 0, cfg.PopulationSize)
	for _, s := range cfg.Seeds {
		if len(e.pop) == cfg.PopulationSize {
			break
		}
		if err := eval.Validate(s); err != nil {
			return nil, fmt.Errorf("nsga2: invalid seed: %w", err)
		}
		a := e.arena.getAlloc()
		a.CopyFrom(s)
		e.pop = append(e.pop, Individual{Alloc: a})
	}
	for len(e.pop) < cfg.PopulationSize {
		a := e.arena.getAlloc()
		eval.RandomAllocationInto(a, src)
		e.pop = append(e.pop, Individual{Alloc: a})
	}
	e.evaluateAll(e.pop)
	e.rank(e.pop)
	return e, nil
}

// ensureScratch sizes the per-engine buffers the generation loop reuses.
func (e *Engine) ensureScratch() {
	n := e.cfg.PopulationSize
	if cap(e.parents) >= n {
		return
	}
	nt := e.eval.NumTasks()
	nm := e.eval.NumMachines()
	e.parents = make([]*Individual, n)
	e.offspring = make([]Individual, 0, n)
	e.meta = make([]Individual, 0, 2*n)
	e.popBuf = make([]Individual, 0, n)
	e.points = make([][]float64, 0, 2*n)
	e.picked = make([]bool, 2*n)
	e.groupOrder = make([]int, 0, 2*n)
	e.dirty = make([][]bool, n)
	stride := (nm + 63) / 64 * 64 // whole cache lines per row
	dirtyBack := make([]bool, n*stride)
	for i := range e.dirty {
		e.dirty[i] = dirtyBack[i*stride : i*stride+nm : i*stride+nm]
	}
	e.dirtyN = make([]int, n)
	slotStride := (nt + 7) / 8 * 8 // 8 uint64 per 64-byte line
	slotBack := make([]uint64, n*slotStride)
	e.slots = make([][]uint64, n)
	for i := range e.slots {
		e.slots[i] = slotBack[i*slotStride : i*slotStride+nt : i*slotStride+nt]
	}
	e.plans = make([]*sched.DeltaPlan, n)
	for i := range e.plans {
		e.plans[i] = e.eval.NewDeltaPlan()
	}
	cntStride := (nm + 15) / 16 * 16 // 16 int32 per 64-byte line
	cntBack := make([]int32, n*cntStride)
	e.mcounts = make([][]int32, n)
	for i := range e.mcounts {
		e.mcounts[i] = cntBack[i*cntStride : i*cntStride+nm : i*cntStride+nm]
	}
	if e.mcache != nil {
		nsStride := (nm + 15) / 16 * 16 // 16 int32 per 64-byte line
		nsBack := make([]int32, n*nsStride)
		e.needSlot = make([][]int32, n)
		for i := range e.needSlot {
			e.needSlot[i] = nsBack[i*nsStride : i*nsStride+nm : i*nsStride+nm]
		}
	}
	if e.cache != nil {
		e.fprint = make([]uint64, n)
		e.cacheSlot = make([]int32, n)
		e.cacheEv = make([]sched.Evaluation, n)
	}
	workers := e.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	e.workerSrc = make([]rng.Source, workers)
	e.varScratch = make([][]int32, workers)
	e.varScratch2 = make([][]int32, workers)
	e.missKs = make([][]int32, workers)
	for w := range e.missKs {
		e.missKs[w] = make([]int32, 0, nm)
	}
	for w := range e.varScratch {
		e.varScratch[w] = make([]int32, nt)
		e.varScratch2[w] = make([]int32, nt)
	}
	if e.cfg.CacheVerify && e.verifyContribs == nil {
		e.verifyContribs = e.eval.NewContribsBatch(workers)
	}
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

// ParetoFront returns deep copies of the rank-1 individuals, sorted by
// descending utility.
func (e *Engine) ParetoFront() []Individual {
	count := 0
	for i := range e.pop {
		if e.pop[i].Rank == 1 {
			count++
		}
	}
	out := make([]Individual, 0, count)
	for _, ind := range e.pop {
		if ind.Rank == 1 {
			out = append(out, ind.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Objectives[0], out[j].Objectives[0]
		if e.space.Senses[0] == moea.Maximize {
			return a > b
		}
		return a < b
	})
	return out
}

// FrontPoints returns the rank-1 objective vectors (utility, energy),
// sorted by descending utility.
func (e *Engine) FrontPoints() [][]float64 {
	front := e.ParetoFront()
	out := make([][]float64, len(front))
	for i, ind := range front {
		out[i] = ind.Objectives
	}
	return out
}

// Elites returns deep copies of the n best individuals under the
// crowded-comparison order (rank ascending, crowding descending).
func (e *Engine) Elites(n int) []Individual {
	if n > len(e.pop) {
		n = len(e.pop)
	}
	idx := make([]int, len(e.pop))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := &e.pop[idx[a]], &e.pop[idx[b]]
		if ia.Rank != ib.Rank {
			return ia.Rank < ib.Rank
		}
		return ia.Crowding > ib.Crowding
	})
	out := make([]Individual, n)
	for i := 0; i < n; i++ {
		out[i] = e.pop[idx[i]].Clone()
	}
	return out
}

// Inject replaces the engine's worst individuals (rank descending,
// crowding ascending) with copies of the given individuals, re-ranking
// the population. Injected individuals must be valid for the engine's
// evaluator; unevaluated ones are evaluated under the engine's problem.
func (e *Engine) Inject(inds []Individual) error {
	if len(inds) == 0 {
		return nil
	}
	if len(inds) > len(e.pop) {
		inds = inds[:len(e.pop)]
	}
	for i, ind := range inds {
		if err := e.eval.Validate(ind.Alloc); err != nil {
			return fmt.Errorf("nsga2: injected individual %d invalid: %w", i, err)
		}
	}
	clones := make([]Individual, len(inds))
	for i, ind := range inds {
		// Copy into arena slots and leave Objectives nil: evaluateAll
		// re-evaluates (or cache-hits) under this engine's problem.
		a := e.arena.getAlloc()
		a.CopyFrom(ind.Alloc)
		clones[i] = Individual{Alloc: a}
	}
	e.evaluateAll(clones)
	idx := make([]int, len(e.pop))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := &e.pop[idx[a]], &e.pop[idx[b]]
		if ia.Rank != ib.Rank {
			return ia.Rank > ib.Rank
		}
		return ia.Crowding < ib.Crowding
	})
	for i, c := range clones {
		e.arena.putAlloc(e.pop[idx[i]].Alloc)
		e.arena.putObjs(e.pop[idx[i]].Objectives)
		e.arena.putContrib(e.pop[idx[i]].contrib)
		e.pop[idx[i]] = c
	}
	e.rank(e.pop)
	return nil
}

// Step advances the engine by one generation (Algorithm 1 steps 3–11).
// Steady-state Steps allocate nothing: offspring chromosomes come from
// the arena, variation and evaluation run over per-worker scratch, and
// ranking reuses the engine's moea.Ranker.
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
	// variation fan-out below is bit-identical for every worker count.
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
			Alloc:      e.arena.getAlloc(),
			Objectives: e.arena.getObjs(),
			contrib:    e.arena.getContrib(),
		})
	}
	// Steps 4–5: crossover + repair + mutation, parallel across pairs.
	e.varyAll(genSeed, genStream, pairs)
	e.phase.Record(obs.PhaseVariation, t0)
	// Memoization bracket: probe the fitness cache serially (its state
	// must evolve identically for every worker count), let the parallel
	// evaluation fan-out copy hits and simulate misses, then insert the
	// missed outcomes serially in offspring order.
	if e.cache != nil {
		t0 = e.phase.Start()
		e.probeCache(n)
		e.phase.Record(obs.PhaseCacheProbe, t0)
	}
	t0 = e.phase.Start()
	e.evaluateInPlace(e.offspring)
	e.phase.Record(obs.PhaseEval, t0)
	if e.cache != nil {
		t0 = e.phase.Start()
		e.insertCache(n)
		e.phase.Record(obs.PhaseCacheInsert, t0)
	}

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

// varyAll runs crossover, repair, and mutation for all offspring pairs,
// fanning out across the configured workers. Pair k always draws from
// the stream (genSeed, genStream+k), so the offspring are independent of
// how pairs are partitioned across workers.
func (e *Engine) varyAll(genSeed, genStream uint64, pairs int) {
	workers := e.cfg.Workers
	if workers > pairs {
		workers = pairs
	}
	if workers <= 1 {
		src := &e.workerSrc[0]
		for k := 0; k < pairs; k++ {
			src.Reseed(genSeed, genStream+uint64(k))
			e.varyPair(k, src, e.varScratch[0], e.varScratch2[0])
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (pairs + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= pairs {
			break
		}
		hi := lo + chunk
		if hi > pairs {
			hi = pairs
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			src := &e.workerSrc[w]
			for k := lo; k < hi; k++ {
				src.Reseed(genSeed, genStream+uint64(k))
				// varyPair writes only pair k's offspring/arena slots and
				// worker w's scratch; disjoint per goroutine, and proven
				// worker-invariant by TestWorkerCountInvariance.
				//detlint:allow sharedstate per-pair slots are disjoint across workers
				e.varyPair(k, src, e.varScratch[w], e.varScratch2[w])
			}
		}(w, lo, hi)
	}
	wg.Wait()
}

// varyPair produces offspring 2k and 2k+1 from parents 2k and 2k+1 in
// recycled buffers: crossover, order repair, then per-child mutation
// coin flips, all drawn from the pair's own stream. Alongside the
// chromosomes it maintains each child's execution-order slot array (a
// by-product of order repair, patched in O(1) by mutation) and, while
// an observer is attached, the dirty-machine telemetry: which machines
// each child's variation may have touched relative to its parent.
//
//detlint:hotpath
func (e *Engine) varyPair(k int, src *rng.Source, scratch, scratch2 []int32) {
	c1 := e.offspring[2*k].Alloc
	c2 := e.offspring[2*k+1].Alloc
	s1, s2 := e.slots[2*k], e.slots[2*k+1]
	n1, n2 := e.mcounts[2*k], e.mcounts[2*k+1]
	c1.CopyFrom(e.parents[2*k].Alloc)
	c2.CopyFrom(e.parents[2*k+1].Alloc)
	var d1, d2 []bool
	if e.observer != nil {
		d1, d2 = e.dirty[2*k], e.dirty[2*k+1]
		for m := range d1 {
			d1[m] = false
			d2[m] = false
		}
	}
	i, j := e.crossInto(c1, c2, s1, s2, n1, n2, src, scratch, scratch2)
	if d1 != nil && e.cfg.Repair != ShuffleRepair {
		// The candidate-dirty machines of BOTH children are the machines
		// appearing in either child's post-swap segment: a machine either
		// gains the segment tasks it now hosts or loses the ones the swap
		// moved to the sibling. A machine with no segment genes keeps its
		// task set, and rerank repair preserves the relative order of
		// genes outside the segment, so its sequence is unchanged.
		for g := i; g <= j; g++ {
			if m := c1.Machine[g]; m >= 0 {
				d1[m], d2[m] = true, true
			}
			if m := c2.Machine[g]; m >= 0 {
				d1[m], d2[m] = true, true
			}
		}
	}
	if src.Bool(e.cfg.MutationRate) {
		e.mutateWith(c1, s1, n1, src, d1)
	}
	if src.Bool(e.cfg.MutationRate) {
		e.mutateWith(c2, s2, n2, src, d2)
	}
	if d1 != nil {
		n1, n2 := 0, 0
		for m := range d1 {
			if d1[m] {
				n1++
			}
			if d2[m] {
				n2++
			}
		}
		e.dirtyN[2*k], e.dirtyN[2*k+1] = n1, n2
	}
	if e.cache != nil {
		e.fprint[2*k] = fingerprint(c1)
		e.fprint[2*k+1] = fingerprint(c2)
	}
}

// crossInto applies segment swap and order repair to two chromosomes in
// place, returning the inclusive swapped gene range. s1 and s2 receive
// the children's execution-order slot arrays and n1 and n2 their
// per-machine task histograms: the rerank path writes both during the
// repair's placement pass for free, the shuffle path scatters them
// after drawing fresh permutations.
//
// The rerank path never recounts order values from scratch: each child
// starts as a copy of one parent — a valid permutation, so every value's
// count is one — and the segment swap adjusts exactly the counts of the
// values it moves. The repair then consumes the maintained histogram
// directly (repairOrderSlotsCounted), skipping the counting pass over
// the whole chromosome.
//
//detlint:hotpath
func (e *Engine) crossInto(c1, c2 *sched.Allocation, s1, s2 []uint64, n1, n2 []int32, src *rng.Source, scratch, scratch2 []int32) (int, int) {
	n := c1.Len()
	i := src.Intn(n)
	j := src.Intn(n)
	if i > j {
		i, j = j, i
	}
	if e.cfg.Repair == ShuffleRepair {
		for k := i; k <= j; k++ {
			c1.Machine[k], c2.Machine[k] = c2.Machine[k], c1.Machine[k]
			c1.Order[k], c2.Order[k] = c2.Order[k], c1.Order[k]
		}
		src.PermInto32(c1.Order)
		src.PermInto32(c2.Order)
		scatterSlots(c1, s1, n1)
		scatterSlots(c2, s2, n2)
		return i, j
	}
	cnt1, cnt2 := scratch[:n], scratch2[:n]
	for k := range cnt1 {
		cnt1[k] = 1
	}
	for k := range cnt2 {
		cnt2[k] = 1
	}
	for k := i; k <= j; k++ {
		o1, o2 := c1.Order[k], c2.Order[k]
		c1.Machine[k], c2.Machine[k] = c2.Machine[k], c1.Machine[k]
		c1.Order[k], c2.Order[k] = o2, o1
		cnt1[o1]--
		cnt1[o2]++
		cnt2[o2]--
		cnt2[o1]++
	}
	repairOrderSlotsCounted(c1.Order, c1.Machine, cnt1, s1, n1)
	repairOrderSlotsCounted(c2.Order, c2.Machine, cnt2, s2, n2)
	return i, j
}

// scatterSlots rebuilds an execution-order slot array and per-machine
// task histogram from scratch — the fallback for repair paths that
// don't produce them as by-products.
//
//detlint:hotpath
func scatterSlots(a *sched.Allocation, slots []uint64, counts []int32) {
	machine, order := a.Machine, a.Order
	for m := range counts {
		counts[m] = 0
	}
	for i := range machine {
		m := machine[i]
		slots[order[i]] = sched.PackSlot(m, i)
		if m >= 0 {
			counts[m]++
		}
	}
}

// repairOrder rewrites ord into a permutation of [0, len): genes are
// ranked by their (possibly duplicated) swapped order values, ties broken
// by gene index, preserving the relative ordering the values express.
// Values must lie in [0, len), which segment swap between two
// permutations guarantees.
func repairOrder(ord []int32) {
	repairOrderScratch(ord, make([]int32, len(ord)))
}

// repairOrderScratch is repairOrder over caller-provided scratch (len >=
// len(ord)): a counting sort over the order values. Positions within one
// value are assigned in ascending gene index, so the ranking is stable
// by construction, and the whole repair is O(n) with no comparison sort
// — on 4000-task chromosomes this is the difference between the repair
// and the simulation dominating a generation.
//
//detlint:hotpath
func repairOrderScratch(ord, scratch []int32) {
	n := len(ord)
	counts := scratch[:n]
	for i := range counts {
		counts[i] = 0
	}
	for _, v := range ord {
		counts[v]++
	}
	var sum int32
	for v, c := range counts {
		counts[v] = sum
		sum += c
	}
	for i, v := range ord {
		ord[i] = counts[v]
		counts[v]++
	}
}

// repairOrderSlots is repairOrderScratch fused with the slot scatter:
// the placement pass already visits every (gene, final rank) pair, so
// writing slots[rank] = PackSlot(machine, gene) there — and bumping the
// machine's task histogram — makes the execution-order layout and the
// per-machine counts the evaluation phases consume free by-products of
// the repair instead of separate passes over the chromosome.
//
//detlint:hotpath
func repairOrderSlots(ord, machine, scratch []int32, slots []uint64, mcounts []int32) {
	n := len(ord)
	counts := scratch[:n]
	for i := range counts {
		counts[i] = 0
	}
	for _, v := range ord {
		counts[v]++
	}
	repairOrderSlotsCounted(ord, machine, counts, slots, mcounts)
}

// repairOrderSlotsCounted is repairOrderSlots with the order-value
// histogram supplied by the caller (crossInto maintains it through the
// segment swap instead of recounting the chromosome). counts is
// consumed: the prefix-sum pass turns it into placement cursors.
//
//detlint:hotpath
func repairOrderSlotsCounted(ord, machine, counts []int32, slots []uint64, mcounts []int32) {
	var sum int32
	for v, c := range counts {
		counts[v] = sum
		sum += c
	}
	for m := range mcounts {
		mcounts[m] = 0
	}
	for i, v := range ord {
		r := counts[v]
		ord[i] = r
		counts[v] = r + 1
		m := machine[i]
		slots[r] = sched.PackSlot(m, i)
		if m >= 0 {
			mcounts[m]++
		}
	}
}

// mutateWith implements the paper's operator: reassign one random gene
// to a random eligible machine, and swap the global scheduling orders of
// two random genes — patching the chromosome's slot array and machine
// histogram in O(1) per edit. When dirty is non-nil it flags the
// machines the edit may have touched: the gene's old and new machine,
// plus the hosts of the two order-swapped genes (an order swap only
// reorders those two tasks within their own machines).
//
//detlint:hotpath
func (e *Engine) mutateWith(a *sched.Allocation, slots []uint64, counts []int32, src *rng.Source, dirty []bool) {
	n := a.Len()
	g := src.Intn(n)
	el := e.eval.Eligible(e.eval.Trace().Tasks[g].Type)
	old := a.Machine[g]
	a.Machine[g] = int32(el[src.Intn(len(el))])
	slots[a.Order[g]] = sched.PackSlot(a.Machine[g], g)
	if old >= 0 {
		counts[old]--
	}
	counts[a.Machine[g]]++
	x, y := src.Intn(n), src.Intn(n)
	ox, oy := a.Order[x], a.Order[y]
	a.Order[x], a.Order[y] = oy, ox
	slots[ox], slots[oy] = slots[oy], slots[ox]
	if dirty == nil {
		return
	}
	if old >= 0 {
		dirty[old] = true
	}
	dirty[a.Machine[g]] = true
	if m := a.Machine[x]; m >= 0 {
		dirty[m] = true
	}
	if m := a.Machine[y]; m >= 0 {
		dirty[m] = true
	}
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

// probeCache looks every offspring's fingerprint up in the fitness
// cache, recording per-offspring hit slots for the evaluation fan-out
// and refreshing hit stamps. Serial, in offspring order: the cache's
// state transitions must not depend on worker count.
//
//detlint:hotpath
func (e *Engine) probeCache(n int) {
	gen := int64(e.generation)
	for i := 0; i < n; i++ {
		slot := e.cache.lookup(e.fprint[i])
		if slot >= 0 {
			e.cache.stats.hits++
			e.cache.touch(slot, gen)
		} else {
			e.cache.stats.misses++
		}
		e.cacheSlot[i] = int32(slot)
	}
}

// insertCache memoizes the outcomes of this generation's cache misses,
// serially in offspring order (determinism, as probeCache).
//
//detlint:hotpath
func (e *Engine) insertCache(n int) {
	gen := int64(e.generation)
	for i := 0; i < n; i++ {
		if e.cacheSlot[i] >= 0 {
			continue
		}
		e.cache.insert(e.fprint[i], gen, e.cacheEv[i], e.offspring[i].contrib)
	}
}

// verifyHit is the verify-on-hit debug guard: re-simulate the
// allocation and demand the memoized outcome be bit-identical.
func (e *Engine) verifyHit(sess *sched.DeltaSession, scratch *sched.Contribs, a *sched.Allocation, s *fitSlot) {
	if ev := sess.EvaluateFull(a, scratch); ev != s.ev || !scratch.Equal(s.contrib) {
		panic("nsga2: fitness cache verify-on-hit mismatch (64-bit fingerprint collision)")
	}
}

// evaluateAll fully simulates individuals lacking Objectives (seeds,
// injected, restored), fanning out across the configured workers.
// Contribution caches are assigned — and the fitness cache consulted —
// serially first (neither the arena nor the cache is goroutine-safe),
// then the misses are simulated inside the fan-out and memoized
// serially after it. Results are deterministic because each
// individual's evaluation is independent of scheduling.
func (e *Engine) evaluateAll(inds []Individual) {
	todo := make([]int, 0, len(inds))
	var fps []uint64
	if e.cache != nil {
		fps = make([]uint64, 0, len(inds))
	}
	gen := int64(e.generation)
	for i := range inds {
		if inds[i].Objectives != nil {
			continue
		}
		if inds[i].contrib == nil {
			inds[i].contrib = e.arena.getContrib()
		}
		if e.cache != nil {
			fp := fingerprint(inds[i].Alloc)
			if slot := e.cache.lookup(fp); slot >= 0 {
				s := &e.cache.slots[slot]
				e.cache.stats.hits++
				e.cache.touch(slot, gen)
				if e.cfg.CacheVerify {
					e.verifyHit(e.sessions[0], e.eval.NewContribs(), inds[i].Alloc, s)
				}
				inds[i].contrib.CopyFrom(s.contrib)
				e.problem.fill(&inds[i], s.ev, e.space.Dim())
				continue
			}
			e.cache.stats.misses++
			fps = append(fps, fp)
		}
		todo = append(todo, i)
	}
	if len(todo) == 0 {
		return
	}
	evs := make([]sched.Evaluation, len(todo))
	e.fanout(len(todo), func(w, lo, hi int) {
		sess := e.sessions[w]
		for k, i := range todo[lo:hi] {
			ev := sess.EvaluateFull(inds[i].Alloc, inds[i].contrib)
			evs[lo+k] = ev
			e.problem.fill(&inds[i], ev, e.space.Dim())
		}
	})
	if e.cache != nil {
		for k, i := range todo {
			e.cache.insert(fps[k], gen, evs[k], inds[i].contrib)
		}
	}
}

// evaluateInPlace (re-)evaluates every offspring, writing objectives and
// contribution caches into recycled buffers. It runs the machine-major
// pipeline in four phases, keeping the serial-probe / parallel-work /
// serial-insert bracket discipline of the chromosome cache so both
// memoization levels evolve identically for every worker count:
//
//  1. parallel — Prepare every chromosome-cache miss: fingerprint its
//     machine buckets from the slot array variation built and inherit
//     the row of every machine whose bucket matches the parent's.
//  2. serial — probe the machine-bucket cache for the remaining
//     machines, in offspring then Need order.
//  3. parallel — copy chromosome-cache hits; for misses, copy
//     machine-cache hit rows, gather and simulate what no cache level
//     supplied, and reduce to objective values.
//  4. serial — insert the freshly simulated machine rows.
//
// Cache hits at either level are bit-identical to re-simulating, so
// hits and misses interleave freely; under FullEvaluation the parent is
// withheld and every machine misses level one. Parent caches and hit
// cache slots are read-only during the fan-outs, so sharing them across
// offspring is safe. (Not annotated //detlint:hotpath: the fan-out
// closures necessarily capture, like the other fanout callers.)
func (e *Engine) evaluateInPlace(inds []Individual) {
	dim := e.space.Dim()
	full := e.cfg.Evaluation == FullEvaluation
	cached := e.cache != nil
	verify := e.cfg.CacheVerify
	mverify := e.cfg.MachineCacheVerify
	e.fanout(len(inds), func(w, lo, hi int) {
		sess := e.sessions[w]
		for i := lo; i < hi; i++ {
			if cached && e.cacheSlot[i] >= 0 {
				continue
			}
			var parent *sched.Contribs
			if !full {
				parent = e.parents[i].contrib
			}
			sess.Prepare(e.slots[i], e.mcounts[i], parent, inds[i].contrib, e.plans[i])
		}
	})
	if e.mcache != nil {
		gen := int64(e.generation)
		for i := range inds {
			if cached && e.cacheSlot[i] >= 0 {
				continue
			}
			plan := e.plans[i]
			fp := inds[i].contrib.FP
			ns := e.needSlot[i][:len(plan.Need)]
			for k, m := range plan.Need {
				slot := e.mcache.lookup(fp[m])
				if slot >= 0 {
					e.mcache.stats.hits++
					e.mcache.touch(slot, gen)
				} else {
					e.mcache.stats.misses++
				}
				ns[k] = int32(slot)
			}
		}
	}
	e.fanout(len(inds), func(w, lo, hi int) {
		sess := e.sessions[w]
		for i := lo; i < hi; i++ {
			ind := &inds[i]
			if cached {
				if slot := e.cacheSlot[i]; slot >= 0 {
					s := &e.cache.slots[slot]
					if verify {
						e.verifyHit(sess, e.verifyContribs[w], ind.Alloc, s)
					}
					ind.contrib.CopyFrom(s.contrib)
					e.problem.fill(ind, s.ev, dim)
					continue
				}
			}
			plan := e.plans[i]
			if e.mcache == nil {
				sess.SimulateAllNeeds(plan, ind.contrib)
			} else {
				ns := e.needSlot[i][:len(plan.Need)]
				miss := e.missKs[w][:0]
				for k := range plan.Need {
					if s := ns[k]; s >= 0 {
						row := e.mcache.slots[s].row
						if mverify {
							e.verifyMachineHit(sess, plan, k, ind.contrib, row)
						}
						ind.contrib.SetRow(int(plan.Need[k]), row)
					} else {
						miss = append(miss, int32(k))
					}
				}
				e.missKs[w] = miss
				sess.SimulateNeedList(miss, plan, ind.contrib)
			}
			ev := sess.Finish(ind.contrib, plan)
			if cached {
				e.cacheEv[i] = ev
			}
			e.problem.fill(ind, ev, dim)
		}
	})
	if e.mcache != nil {
		gen := int64(e.generation)
		for i := range inds {
			if cached && e.cacheSlot[i] >= 0 {
				continue
			}
			plan := e.plans[i]
			contrib := inds[i].contrib
			ns := e.needSlot[i][:len(plan.Need)]
			for k, m := range plan.Need {
				if ns[k] >= 0 {
					continue
				}
				e.mcache.insert(contrib.FP[m], gen, contrib.Row(int(m)))
			}
		}
	}
}

// verifyMachineHit is the machine cache's verify-on-hit debug guard:
// re-simulate the gathered bucket and demand the memoized row be
// bit-identical.
func (e *Engine) verifyMachineHit(sess *sched.DeltaSession, plan *sched.DeltaPlan, k int, dst *sched.Contribs, row sched.MachineRow) {
	m := int(plan.Need[k])
	sess.SimulateNeed(k, plan, dst)
	if dst.Row(m) != row {
		panic("nsga2: machine cache verify-on-hit mismatch (64-bit bucket-fingerprint collision)")
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
			e.arena.putAlloc(meta[i].Alloc)
			e.arena.putObjs(meta[i].Objectives)
			e.arena.putContrib(meta[i].contrib)
			meta[i] = Individual{}
		}
	}
	e.pop, e.popBuf = e.popBuf, e.pop
	// Re-rank the survivor population so Rank/Crowding reflect the new
	// population rather than the meta-population.
	e.rank(e.pop)
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
