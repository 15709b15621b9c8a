package workload

import (
	"bytes"
	"strings"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/rng"
)

func TestTraceJSONRoundTrip(t *testing.T) {
	sys := data.RealSystem()
	tr, err := Generate(sys, GenConfig{NumTasks: 40, Window: 900}, rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(raw, sys)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != tr.NumTasks() || back.Window != tr.Window {
		t.Fatal("roundtrip changed shape")
	}
	for i := range tr.Tasks {
		a, b := tr.Tasks[i], back.Tasks[i]
		if a.Type != b.Type || a.Arrival != b.Arrival {
			t.Fatalf("task %d changed", i)
		}
		// TUF behaviour must survive the roundtrip.
		for _, dt := range []float64{0, 10, 100, 1e6} {
			if a.TUF.Value(dt) != b.TUF.Value(dt) {
				t.Fatalf("task %d TUF changed at %v", i, dt)
			}
		}
	}
}

// TestDecodeTraceSharesTUFs: JSON writes one copy of a TUF per task,
// and decoding shares the bit-identical copies again, so a decoded
// generated trace has the original's sharing.
func TestDecodeTraceSharesTUFs(t *testing.T) {
	sys := data.RealSystem()
	tr, err := Generate(sys, GenConfig{NumTasks: 300, Window: 900}, rng.New(63))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(raw, sys)
	if err != nil {
		t.Fatal(err)
	}
	if n, m := distinctTUFs(tr), distinctTUFs(back); n != m || n >= tr.NumTasks() {
		t.Fatalf("decoded trace has %d distinct TUFs, original %d over %d tasks", m, n, tr.NumTasks())
	}
	for i := range tr.Tasks {
		for j := range tr.Tasks[:i] {
			if (tr.Tasks[i].TUF == tr.Tasks[j].TUF) != (back.Tasks[i].TUF == back.Tasks[j].TUF) {
				t.Fatalf("tasks %d and %d: sharing differs after decoding", j, i)
			}
		}
	}

	// Sharing compares bits: a tail of -0 equals 0 but keeps its own
	// function.
	tuf := func(tail string) string {
		return `{"Priority":3,"Segments":[{"Duration":50,"StartFrac":1,"EndFrac":0.5,"Shape":1}],"TailFrac":` + tail + `}`
	}
	raw = []byte(`{"Window":10,"Tasks":[` +
		`{"ID":0,"Type":1,"Arrival":0,"TUF":` + tuf("0") + `},` +
		`{"ID":1,"Type":1,"Arrival":1,"TUF":` + tuf("-0") + `},` +
		`{"ID":2,"Type":1,"Arrival":2,"TUF":` + tuf("0") + `}]}`)
	back, err = DecodeTrace(raw, sys)
	if err != nil {
		t.Fatal(err)
	}
	if ts := back.Tasks; ts[0].TUF != ts[2].TUF || ts[0].TUF == ts[1].TUF {
		t.Fatal("want tasks 0 and 2 to share a function and task 1 to keep its own")
	}
}

func TestDecodeTraceRejectsCorruption(t *testing.T) {
	sys := data.RealSystem()
	tr, err := Generate(sys, GenConfig{NumTasks: 10, Window: 900}, rng.New(62))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(raw, []byte(`"Type": 0`), []byte(`"Type": 99`), 1)
	if !bytes.Equal(bad, raw) {
		if _, err := DecodeTrace(bad, sys); err == nil {
			t.Fatal("corrupted trace accepted")
		}
	}
	if _, err := DecodeTrace([]byte("{not json"), sys); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestTraceStats(t *testing.T) {
	sys := data.RealSystem()
	tr, err := Generate(sys, GenConfig{NumTasks: 250, Window: 900}, rng.New(63))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stats(tr, sys)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumTasks != 250 || st.Window != 900 {
		t.Fatal("basic stats wrong")
	}
	total := 0
	for _, n := range st.TypeCounts {
		total += n
	}
	if total != 250 {
		t.Fatalf("type counts sum to %d", total)
	}
	if st.ArrivalRate <= 0 || st.OfferedLoad <= 0 || st.MaxUtility <= 0 {
		t.Fatalf("non-positive derived stats: %+v", st)
	}
	if st.SpecialPurposeTasks != 0 {
		t.Fatal("real system has no special-purpose tasks")
	}
	var buf bytes.Buffer
	st.Write(&buf, sys)
	out := buf.String()
	if !strings.Contains(out, "offered load") || !strings.Contains(out, "top task types") {
		t.Fatalf("stats output incomplete:\n%s", out)
	}
}

func TestStatsRejectsInvalidTrace(t *testing.T) {
	sys := data.RealSystem()
	if _, err := Stats(&Trace{Window: 10}, sys); err == nil {
		t.Fatal("invalid trace accepted")
	}
}
