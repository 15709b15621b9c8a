package tradeoff_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"tradeoff/internal/experiments"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
)

// TestObserverBitIdenticalAcrossDataSets is the acceptance test for the
// telemetry layer's central invariant: attaching the full observer
// chain (the JSONL trace writer) must leave every data set's evolution
// bit-for-bit unchanged — same allocations, objectives, ranks, and
// crowding, in the same order.
func TestObserverBitIdenticalAcrossDataSets(t *testing.T) {
	for _, tc := range []struct {
		dsNum, pop, gens int
	}{
		{1, 20, 10},
		{2, 16, 5},
		{3, 12, 3},
	} {
		ds, err := experiments.ByNumber(tc.dsNum, 1)
		if err != nil {
			t.Fatal(err)
		}
		newEngine := func() *nsga2.Engine {
			eng, err := nsga2.New(ds.Evaluator, nsga2.Config{PopulationSize: tc.pop}, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		plain := newEngine()
		observed := newEngine()
		observed.SetObserver(obs.Combine(
			obs.NewTraceWriter(io.Discard, nil),
		))
		plain.Run(tc.gens)
		observed.Run(tc.gens)

		pp, op := plain.Population(), observed.Population()
		if len(pp) != len(op) {
			t.Fatalf("data set %d: population sizes %d vs %d", tc.dsNum, len(pp), len(op))
		}
		for i := range pp {
			a, b := pp[i], op[i]
			if a.Rank != b.Rank || a.Crowding != b.Crowding {
				t.Fatalf("data set %d individual %d: rank/crowding diverged with observer", tc.dsNum, i)
			}
			for m := range a.Objectives {
				if a.Objectives[m] != b.Objectives[m] {
					t.Fatalf("data set %d individual %d objective %d: %v vs %v",
						tc.dsNum, i, m, a.Objectives[m], b.Objectives[m])
				}
			}
			for g := range a.Alloc.Machine {
				if a.Alloc.Machine[g] != b.Alloc.Machine[g] || a.Alloc.Order[g] != b.Alloc.Order[g] {
					t.Fatalf("data set %d individual %d gene %d diverged with observer", tc.dsNum, i, g)
				}
			}
		}
	}
}

// TestTraceReproducibleAndValid runs the same evolution twice with an
// injected clock and checks the JSONL traces are byte-identical and
// pass the schema validator.
func TestTraceReproducibleAndValid(t *testing.T) {
	ds, err := experiments.ByNumber(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	runTrace := func() []byte {
		var buf bytes.Buffer
		var ticks int64
		clock := func() int64 { ticks += 1000; return ticks }
		eng, err := nsga2.New(ds.Evaluator, nsga2.Config{PopulationSize: 16}, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		tw := obs.NewTraceWriter(&buf, clock)
		eng.SetObserver(obs.Labeled{Label: "ds1/test", Next: tw})
		eng.Run(8)
		if err := tw.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runTrace(), runTrace()
	if !bytes.Equal(a, b) {
		t.Fatal("traces differ across identical runs with an injected clock")
	}
	sum, err := obs.ValidateTrace(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("trace fails validation: %v", err)
	}
	if sum.Generations != 8 {
		t.Fatalf("trace holds %d generation records, want 8", sum.Generations)
	}
	if lines := strings.Count(string(a), "\n"); lines != 8 {
		t.Fatalf("trace holds %d lines, want 8", lines)
	}
}
