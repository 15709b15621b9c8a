package obs

import (
	"errors"
	"strings"
	"testing"
)

// analysisGeneration builds a minimal valid GenerationStats for trace
// analytics: label, generation, hypervolume, and a uniform per-phase
// time.
func analysisGeneration(label string, gen int, hv float64, phaseNS int64) GenerationStats {
	g := GenerationStats{
		Label: label, Generation: gen, Population: 4,
		Front:       [][]float64{{10, 2}},
		NumMachines: 4,
		Indicators:  Indicators{Hypervolume: hv, FrontSize: 1},
	}
	for p := range g.PhaseNanos {
		g.PhaseNanos[p] = phaseNS
	}
	return g
}

func TestAnalyzeTracePhaseRollup(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb, nil)
	tw.ObserveGeneration(analysisGeneration("a", 1, 1, 100))
	tw.ObserveGeneration(analysisGeneration("a", 2, 2, 300))
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeTrace(strings.NewReader(sb.String()), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if an.ProfiledGenerations != 2 {
		t.Fatalf("ProfiledGenerations = %d, want 2", an.ProfiledGenerations)
	}
	if len(an.Phases) != NumPhases {
		t.Fatalf("got %d phase stats, want %d", len(an.Phases), NumPhases)
	}
	for p, st := range an.Phases {
		if st.Phase != Phase(p).String() {
			t.Errorf("phase %d named %q, want %q", p, st.Phase, Phase(p))
		}
		if st.TotalNanos != 400 {
			t.Errorf("phase %s total %d, want 400", st.Phase, st.TotalNanos)
		}
		if want := 1.0 / float64(NumPhases); absf(st.Share-want) > 1e-12 {
			t.Errorf("phase %s share %g, want %g", st.Phase, st.Share, want)
		}
	}
}

func TestAnalyzeTraceUnprofiledHasNoPhases(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb, nil)
	tw.ObserveGeneration(analysisGeneration("a", 1, 1, 0))
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeTrace(strings.NewReader(sb.String()), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if an.ProfiledGenerations != 0 || an.Phases != nil {
		t.Fatalf("all-zero phase_ns must not count as profiled: %d profiled, phases %v",
			an.ProfiledGenerations, an.Phases)
	}
}

func TestAnalyzeTraceStallDetection(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb, nil)
	// "grows" improves every record; "flat" improves once, then holds
	// for 6 records and briefly recovers below tolerance.
	for g := 1; g <= 8; g++ {
		tw.ObserveGeneration(analysisGeneration("grows", g, float64(g), 0))
	}
	for g := 1; g <= 8; g++ {
		hv := 5.0
		if g == 8 {
			hv = 5.0001 // within StallTol of best: still no improvement
		}
		tw.ObserveGeneration(analysisGeneration("flat", g, hv, 0))
	}
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeTrace(strings.NewReader(sb.String()), AnalyzeOptions{StallWindow: 5, StallTol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Labels) != 2 {
		t.Fatalf("got %d labels, want 2", len(an.Labels))
	}
	grows, flat := an.Labels[0], an.Labels[1]
	if grows.Label != "grows" || flat.Label != "flat" {
		t.Fatalf("label order %q, %q (want first-seen order)", grows.Label, flat.Label)
	}
	if grows.Stalled || grows.MaxPlateau != 0 || grows.BestGen != 8 || grows.HVBest != 8 {
		t.Fatalf("grows analysis %+v", grows)
	}
	if !flat.Stalled || flat.MaxPlateau != 7 || flat.EndPlateau != 7 || flat.BestGen != 1 {
		t.Fatalf("flat analysis %+v", flat)
	}
	if !an.Stalled {
		t.Fatal("analysis must flag the stalled label")
	}
	// A wider window clears the flag.
	an, err = AnalyzeTrace(strings.NewReader(sb.String()), AnalyzeOptions{StallWindow: 50})
	if err != nil {
		t.Fatal(err)
	}
	if an.Stalled {
		t.Fatal("window 50 must not flag a 7-generation plateau")
	}
}

// TestAnalyzeTraceLegacyVersions: a record of every schema version
// before v5 still analyzes; only the v4 record carries phase times.
func TestAnalyzeTraceLegacyVersions(t *testing.T) {
	for i, rec := range legacyGenerations() {
		an, err := AnalyzeTrace(strings.NewReader(rec), AnalyzeOptions{})
		if err != nil {
			t.Fatalf("v%d: %v", i+1, err)
		}
		if len(an.Labels) != 1 || an.Labels[0].Label != "x" || an.Labels[0].HVLast != 1 {
			t.Fatalf("v%d: labels %+v", i+1, an.Labels)
		}
		want := 0
		if i == 3 {
			want = 1
		}
		if an.ProfiledGenerations != want {
			t.Fatalf("v%d trace profiled %d generations, want %d", i+1, an.ProfiledGenerations, want)
		}
	}
}

func TestAnalyzeTraceIslands(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb, nil)
	tw.ObserveGeneration(analysisGeneration("islands", 5, 1, 0))
	tw.ObserveMigration(MigrationEvent{Generation: 5, From: 0, To: 1, Count: 2})
	tw.ObserveMigration(MigrationEvent{Generation: 5, From: 1, To: 2, Count: 2})
	tw.ObserveMigration(MigrationEvent{Generation: 5, From: 2, To: 0, Count: 2})
	tw.ObserveMigration(MigrationEvent{Generation: 10, From: 0, To: 1, Count: 3})
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeTrace(strings.NewReader(sb.String()), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	is := an.Islands
	if is == nil {
		t.Fatal("no island summary")
	}
	if is.Islands != 3 || is.Ticks != 2 || is.Migrants != 9 {
		t.Fatalf("island summary %+v", is)
	}
	if is.TickSkew != 5 {
		t.Fatalf("tick skew %d, want 5 (island 0 at 10, islands 1-2 at 5)", is.TickSkew)
	}
	if len(is.PerIsland) != 3 {
		t.Fatalf("per-island stats %+v", is.PerIsland)
	}
	if st := is.PerIsland[0]; st.Island != 0 || st.Migrants != 5 || st.LastGen != 10 {
		t.Fatalf("island 0 stats %+v", st)
	}
	if st := is.PerIsland[1]; st.Migrants != 2 || st.LastGen != 5 {
		t.Fatalf("island 1 stats %+v", st)
	}
}

func TestAnalyzeTraceRejectsInvalid(t *testing.T) {
	_, err := AnalyzeTrace(strings.NewReader("garbage\n"), AnalyzeOptions{})
	var te *TraceError
	if !errors.As(err, &te) || te.Line != 1 {
		t.Fatalf("err %v, want *TraceError at line 1", err)
	}
}
