package workload

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"tradeoff/internal/hcs"
	"tradeoff/internal/utility"
)

// JSON serialization for traces. TUFs serialize structurally (priority,
// segments, tail), one copy per task, and decoding shares the
// bit-identical ones again; decoded traces are validated against the
// target system before use.

// MarshalJSON implements json.Marshaler for Trace.
func (tr *Trace) MarshalJSON() ([]byte, error) {
	type alias Trace // avoid recursion
	return json.Marshal((*alias)(tr))
}

// DecodeTrace parses a trace from JSON and validates it against sys.
// Tasks whose TUFs decode bit-identical share one function, as they do
// in a generated trace.
func DecodeTrace(raw []byte, sys *hcs.System) (*Trace, error) {
	var tr Trace
	if err := json.Unmarshal(raw, &tr); err != nil {
		return nil, fmt.Errorf("workload: decoding trace: %w", err)
	}
	shareTUFs(tr.Tasks)
	if err := tr.Validate(sys); err != nil {
		return nil, fmt.Errorf("workload: decoded trace invalid: %w", err)
	}
	return &tr, nil
}

// EncodeTrace renders a trace as indented JSON.
func EncodeTrace(tr *Trace) ([]byte, error) {
	return json.MarshalIndent(tr, "", "  ")
}

// shareTUFs points every task whose TUF is bit-identical to an earlier
// task's at that earlier function: same bits of priority, tail and
// every segment field, and the same shapes.
func shareTUFs(tasks []Task) {
	seen := make(map[string]*utility.Function)
	var key []byte
	for i := range tasks {
		f := tasks[i].TUF
		if f == nil {
			continue
		}
		key = binary.LittleEndian.AppendUint64(key[:0], math.Float64bits(f.Priority))
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(f.TailFrac))
		for _, sg := range f.Segments {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(sg.Duration))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(sg.StartFrac))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(sg.EndFrac))
			key = binary.LittleEndian.AppendUint64(key, uint64(sg.Shape))
		}
		if g, ok := seen[string(key)]; ok {
			tasks[i].TUF = g
		} else {
			seen[string(key)] = f
		}
	}
}
