package nsga2

import (
	"encoding/json"
	"fmt"
	"math"

	"tradeoff/internal/rng"
)

// Snapshot is a serializable capture of an engine mid-run: the
// generation count, the full population genotype, and the random-source
// state. Restoring a snapshot into an engine with the same evaluator and
// configuration continues the run bit-for-bit identically — the support
// long paper-scale runs (10^5-10^6 iterations) need to survive restarts.
type Snapshot struct {
	Generation int              `json:"generation"`
	RNG        rng.State        `json:"rng"`
	Population []GenomeSnapshot `json:"population"`
}

// GenomeSnapshot is one chromosome's genotype (objectives and ranks are
// recomputed on restore).
type GenomeSnapshot struct {
	Machine []int `json:"machine"`
	Order   []int `json:"order"`
}

// Snapshot captures the engine's current state.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{Generation: e.generation, RNG: e.src.State()}
	for _, ind := range e.pop {
		s.Population = append(s.Population, GenomeSnapshot{
			Machine: widen(ind.Alloc.Machine),
			Order:   widen(ind.Alloc.Order),
		})
	}
	return s
}

// Restore resets the engine to the snapshot's state. The snapshot's
// population size must match the engine's configuration; every genome is
// validated against the evaluator, then evaluated and ranked.
//
//detlint:pure
func (e *Engine) Restore(s *Snapshot) error {
	if s.Generation < 0 {
		return fmt.Errorf("nsga2: snapshot generation %d, want >= 0", s.Generation)
	}
	if len(s.Population) != e.cfg.PopulationSize {
		return fmt.Errorf("nsga2: snapshot population %d, engine expects %d",
			len(s.Population), e.cfg.PopulationSize)
	}
	// Build the restored population in arena slots; on a validation
	// error the drawn slots go back and the engine is untouched.
	pop := make([]Individual, len(s.Population))
	for i, g := range s.Population {
		alloc := e.arena.getAlloc()
		var err error
		alloc.Machine, err = narrowInto(alloc.Machine[:0], g.Machine)
		if err == nil {
			alloc.Order, err = narrowInto(alloc.Order[:0], g.Order)
		}
		if err == nil {
			err = e.eval.Validate(alloc)
		}
		if err != nil {
			for k := 0; k <= i; k++ {
				e.arena.putAlloc(pop[k].Alloc)
			}
			e.arena.putAlloc(alloc)
			return fmt.Errorf("nsga2: snapshot genome %d invalid: %w", i, err)
		}
		pop[i] = Individual{Alloc: alloc}
	}
	e.evaluateAll(pop)
	e.rank(pop)
	// Recycle the replaced population's buffers before swapping in the
	// restored one.
	for i := range e.pop {
		e.arena.putAlloc(e.pop[i].Alloc)
		e.arena.putObjs(e.pop[i].Objectives)
		e.arena.putContrib(e.pop[i].contrib)
	}
	e.pop = pop
	e.generation = s.Generation
	e.src = rng.FromState(s.RNG)
	// Re-evaluating the restored population is bookkeeping, not search
	// progress: resync the telemetry baseline so an attached observer's
	// first post-restore generation reports only its own evaluations.
	e.statsBase = e.sessionStats()
	return nil
}

// IslandsSnapshot captures an island-model run mid-schedule: the shared
// logical generation counter plus one engine snapshot per island. It is
// taken and restored at Run/Step boundaries, where every ring-edge
// mailbox is provably drained (each migration tick's send is consumed
// by the receiver at its own same-numbered tick before either island
// can pass the tick), so no in-flight migrants need to be serialized —
// resuming a run from a snapshot is bit-identical to
// never having paused, at any logical-clock point.
type IslandsSnapshot struct {
	Generation int         `json:"generation"`
	Islands    []*Snapshot `json:"islands"`
}

// Snapshot captures the island run's current state.
func (is *Islands) Snapshot() *IslandsSnapshot {
	return &IslandsSnapshot{Generation: is.shard.generation, Islands: is.shard.Snapshots()}
}

// Restore resets the island run to the snapshot's state. The island
// count must match the configuration and the generation must not be
// negative; each engine validates its own sub-snapshot. On error the
// islands before the failing one are already restored — callers should
// treat a failed restore as fatal for the run, as with Engine.Restore.
func (is *Islands) Restore(s *IslandsSnapshot) error {
	if err := is.shard.Restore(s.Generation, s.Islands); err != nil {
		return err
	}
	if is.observer != nil {
		// Restore re-evaluates every population; resync the aggregated
		// shard baseline so the next tick reports only its own work.
		is.aggBase = is.sumShards()
	}
	return nil
}

// EncodeIslandsSnapshot renders an island snapshot as JSON.
func EncodeIslandsSnapshot(s *IslandsSnapshot) ([]byte, error) {
	return json.Marshal(s)
}

// DecodeIslandsSnapshot parses an island snapshot from JSON.
func DecodeIslandsSnapshot(raw []byte) (*IslandsSnapshot, error) {
	var s IslandsSnapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("nsga2: decoding islands snapshot: %w", err)
	}
	if len(s.Islands) == 0 {
		return nil, fmt.Errorf("nsga2: islands snapshot has no islands")
	}
	return &s, nil
}

// MarshalJSON implements json.Marshaler (plain struct encoding; declared
// for symmetry and future format versioning).
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot
	return json.Marshal((*alias)(s))
}

// DecodeSnapshot parses a snapshot from JSON.
func DecodeSnapshot(raw []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("nsga2: decoding snapshot: %w", err)
	}
	if len(s.Population) == 0 {
		return nil, fmt.Errorf("nsga2: snapshot has no population")
	}
	return &s, nil
}

// EncodeSnapshot renders a snapshot as JSON.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	return json.Marshal(s)
}

// widen copies int32 genes into the []int form the JSON snapshot schema
// has used since v1, keeping saved snapshots readable across the
// genotype's narrowing to int32.
func widen(src []int32) []int {
	out := make([]int, len(src))
	for i, v := range src {
		out[i] = int(v)
	}
	return out
}

// narrowInto appends src to dst narrowed to int32. Gene values are
// machine indices and order ranks, both far below 2^31; a value outside
// int32 is an error, since narrowing would wrap it into a gene Validate
// could accept.
func narrowInto(dst []int32, src []int) ([]int32, error) {
	for _, v := range src {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return dst, fmt.Errorf("nsga2: gene value %d outside int32", v)
		}
		dst = append(dst, int32(v))
	}
	return dst, nil
}
