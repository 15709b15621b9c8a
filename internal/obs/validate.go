package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// TraceSummary reports what a validated trace contained.
type TraceSummary struct {
	Generations int
	Migrations  int
	Runs        int
}

// TraceError is the structured per-record validation failure returned by
// ValidateTrace and AnalyzeTrace: the 1-based line number of the
// offending record, its record type ("" when the type itself is missing
// or unparseable), and the underlying violation.
type TraceError struct {
	Line       int
	RecordType string
	Err        error
}

// Error renders "line N: TYPE record: ..." (or "line N: ..." when no
// record type is known).
func (e *TraceError) Error() string {
	if e.RecordType == "" {
		return fmt.Sprintf("line %d: %v", e.Line, e.Err)
	}
	return fmt.Sprintf("line %d: %s record: %v", e.Line, e.RecordType, e.Err)
}

// Unwrap returns the underlying violation.
func (e *TraceError) Unwrap() error { return e.Err }

// traceRecord mirrors the union of the TraceWriter record schemas for
// validation. Pointer fields distinguish absent from zero.
type traceRecord struct {
	Type              string      `json:"type"`
	V                 *int        `json:"v"`
	TS                *int64      `json:"ts"`
	Label             *string     `json:"label"`
	Gen               *int        `json:"gen"`
	Pop               *int        `json:"pop"`
	FullEvals         *int        `json:"full_evals"`
	DeltaEvals        *int        `json:"delta_evals"`
	MachinesSimulated *int        `json:"machines_simulated"`
	MachinesInherited *int        `json:"machines_inherited"`
	CacheHits         *int        `json:"cache_hits"`
	CacheMisses       *int        `json:"cache_misses"`
	CacheHitRate      *float64    `json:"cache_hit_rate"`
	MCacheHits        *int        `json:"machine_cache_hits"`
	MCacheMisses      *int        `json:"machine_cache_misses"`
	MCacheHitRate     *float64    `json:"machine_cache_hit_rate"`
	TypedTasks        *int        `json:"typed_tasks"`
	TypedRuns         *int        `json:"typed_runs"`
	ArenaOccupancy    *float64    `json:"arena_occupancy"`
	PhaseNS           []int64     `json:"phase_ns"`
	DirtyMean         *float64    `json:"dirty_mean"`
	DirtyMax          *int        `json:"dirty_max"`
	Machines          *int        `json:"machines"`
	FrontSize         *int        `json:"front_size"`
	HV                *float64    `json:"hv"`
	Eps               *float64    `json:"eps"`
	Spread            *float64    `json:"spread"`
	Front             [][]float64 `json:"front"`
	From              *int        `json:"from"`
	To                *int        `json:"to"`
	Count             *int        `json:"count"`
	Dataset           *string     `json:"dataset"`
	Variant           *string     `json:"variant"`
	Run               *int        `json:"run"`
	Seed              *uint64     `json:"seed"`
	MaxUtility        *float64    `json:"max_utility"`
}

// ValidateTrace reads a JSONL trace and checks every record against the
// TraceWriter schema: required fields present per record type,
// generation counters strictly increasing per label, evaluation counts
// consistent with the population, the fields each schema version
// carries (v1–v4 dirty-machine summaries within the machine count), and
// front payloads matching their declared size. It returns a summary of
// the record counts, or the first violation as a *TraceError carrying
// its 1-based line number and record type.
func ValidateTrace(r io.Reader) (TraceSummary, error) {
	return scanTrace(r, nil)
}

// scanTrace is the shared trace walk behind ValidateTrace and
// AnalyzeTrace: it validates each record and, when visit is non-nil,
// hands every valid record (with its 1-based line number) to it. The
// record pointer is only valid for the duration of the call.
func scanTrace(r io.Reader, visit func(line int, rec *traceRecord)) (TraceSummary, error) {
	var sum TraceSummary
	lastGen := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	fail := func(recType string, err error) (TraceSummary, error) {
		return sum, &TraceError{Line: line, RecordType: recType, Err: err}
	}
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			return fail("", fmt.Errorf("empty line"))
		}
		var rec traceRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fail("", fmt.Errorf("invalid JSON: %v", err))
		}
		if rec.TS == nil {
			return fail(rec.Type, fmt.Errorf("missing ts"))
		}
		// Schema versioning: records without a "v" field are legacy v1
		// traces and validate against the v1 rules; stamped records
		// must carry a version this validator knows (v2 through the
		// current version — each validates against its own rules).
		if rec.V != nil && (*rec.V < 2 || *rec.V > TraceSchemaVersion) {
			return fail(rec.Type, fmt.Errorf("unsupported schema version %d (validator supports v1 records without a version field, and v2–v%d)",
				*rec.V, TraceSchemaVersion))
		}
		switch rec.Type {
		case "generation":
			if err := validateGeneration(&rec, lastGen); err != nil {
				return fail(rec.Type, err)
			}
			sum.Generations++
		case "migration":
			if rec.Gen == nil || rec.From == nil || rec.To == nil || rec.Count == nil {
				return fail(rec.Type, fmt.Errorf("missing gen/from/to/count"))
			}
			if *rec.From < 0 || *rec.To < 0 || *rec.Count < 0 {
				return fail(rec.Type, fmt.Errorf("negative migration field"))
			}
			sum.Migrations++
		case "run":
			if rec.Dataset == nil || rec.Variant == nil || rec.Run == nil || rec.Seed == nil ||
				rec.HV == nil || rec.MaxUtility == nil || rec.FrontSize == nil {
				return fail(rec.Type, fmt.Errorf("missing required fields"))
			}
			if *rec.FrontSize < 0 {
				return fail(rec.Type, fmt.Errorf("negative front_size"))
			}
			sum.Runs++
		case "":
			return fail("", fmt.Errorf("missing record type"))
		default:
			return fail("", fmt.Errorf("unknown record type %q", rec.Type))
		}
		if visit != nil {
			visit(line, &rec)
		}
	}
	if err := sc.Err(); err != nil {
		return sum, err
	}
	if sum.Generations+sum.Migrations+sum.Runs == 0 {
		return sum, fmt.Errorf("trace contains no records")
	}
	return sum, nil
}

func validateGeneration(rec *traceRecord, lastGen map[string]int) error {
	v := 1 // records without a "v" field are v1
	if rec.V != nil {
		v = *rec.V
	}
	if rec.Label == nil || rec.Gen == nil || rec.Pop == nil ||
		rec.FullEvals == nil || rec.DeltaEvals == nil ||
		rec.MachinesSimulated == nil || rec.MachinesInherited == nil || rec.Machines == nil ||
		rec.FrontSize == nil || rec.HV == nil || rec.Eps == nil || rec.Spread == nil ||
		rec.Front == nil || (v <= 4 && (rec.DirtyMean == nil || rec.DirtyMax == nil)) {
		return fmt.Errorf("missing required fields")
	}
	if *rec.Pop <= 0 {
		return fmt.Errorf("pop %d not positive", *rec.Pop)
	}
	if *rec.FullEvals < 0 || *rec.DeltaEvals < 0 {
		return fmt.Errorf("negative evaluation counts")
	}
	if *rec.MachinesSimulated < 0 || *rec.MachinesInherited < 0 {
		return fmt.Errorf("negative machine counts")
	}
	if v >= 2 && v <= 4 {
		// v2 additions, dropped in v5: fitness memoization.
		if rec.CacheHits == nil || rec.CacheMisses == nil || rec.CacheHitRate == nil {
			return fmt.Errorf("v%d generation record missing cache_hits/cache_misses/cache_hit_rate", v)
		}
		if *rec.CacheHits < 0 || *rec.CacheMisses < 0 {
			return fmt.Errorf("negative cache counters")
		}
		if *rec.CacheHitRate < 0 || *rec.CacheHitRate > 1 {
			return fmt.Errorf("cache_hit_rate %g outside [0,1]", *rec.CacheHitRate)
		}
	}
	if v >= 2 {
		// v2 addition: arena health.
		if rec.ArenaOccupancy == nil {
			return fmt.Errorf("v%d generation record missing arena_occupancy", v)
		}
		if *rec.ArenaOccupancy < 0 || *rec.ArenaOccupancy > 1 {
			return fmt.Errorf("arena_occupancy %g outside [0,1]", *rec.ArenaOccupancy)
		}
	}
	if v == 3 || v == 4 {
		// v3 additions, dropped in v5: machine-bucket memoization and
		// typed-kernel work.
		if rec.MCacheHits == nil || rec.MCacheMisses == nil || rec.MCacheHitRate == nil ||
			rec.TypedTasks == nil || rec.TypedRuns == nil {
			return fmt.Errorf("v%d generation record missing machine_cache_hits/machine_cache_misses/machine_cache_hit_rate/typed_tasks/typed_runs", v)
		}
		if *rec.MCacheHits < 0 || *rec.MCacheMisses < 0 {
			return fmt.Errorf("negative machine-cache counters")
		}
		if *rec.MCacheHitRate < 0 || *rec.MCacheHitRate > 1 {
			return fmt.Errorf("machine_cache_hit_rate %g outside [0,1]", *rec.MCacheHitRate)
		}
		if *rec.TypedTasks < 0 || *rec.TypedRuns < 0 {
			return fmt.Errorf("negative typed-kernel counters")
		}
		if *rec.TypedRuns > *rec.TypedTasks {
			return fmt.Errorf("typed_runs %d exceeds typed_tasks %d", *rec.TypedRuns, *rec.TypedTasks)
		}
	}
	if v >= 4 {
		// v4 additions: the per-phase step-time breakdown.
		if rec.PhaseNS == nil {
			return fmt.Errorf("v%d generation record missing phase_ns", v)
		}
		if len(rec.PhaseNS) != NumPhases {
			return fmt.Errorf("phase_ns has %d entries, want %d", len(rec.PhaseNS), NumPhases)
		}
		for p, ns := range rec.PhaseNS {
			if ns < 0 {
				return fmt.Errorf("negative phase_ns[%d] (%s)", p, Phase(p))
			}
		}
	}
	if v <= 4 {
		// v1–v4 dirty-machine summary, dropped in v5.
		if *rec.Machines > 0 && *rec.DirtyMax > *rec.Machines {
			return fmt.Errorf("dirty_max %d exceeds machine count %d", *rec.DirtyMax, *rec.Machines)
		}
		if *rec.DirtyMean < 0 || float64(*rec.DirtyMax) < *rec.DirtyMean {
			return fmt.Errorf("dirty_mean %g outside [0, dirty_max=%d]", *rec.DirtyMean, *rec.DirtyMax)
		}
	}
	if *rec.FrontSize != len(rec.Front) {
		return fmt.Errorf("front_size %d does not match %d front points", *rec.FrontSize, len(rec.Front))
	}
	if *rec.HV < 0 {
		return fmt.Errorf("negative hypervolume %g", *rec.HV)
	}
	for i, p := range rec.Front {
		if len(p) != 2 {
			return fmt.Errorf("front point %d has %d coordinates, want 2", i, len(p))
		}
	}
	if prev, ok := lastGen[*rec.Label]; ok && *rec.Gen <= prev {
		return fmt.Errorf("generation %d for label %q not after %d", *rec.Gen, *rec.Label, prev)
	}
	lastGen[*rec.Label] = *rec.Gen
	return nil
}
