package experiments

import (
	"reflect"
	"sort"
	"testing"

	"tradeoff/internal/obs"
)

// TestEveryStudyObserved runs each of the nine NSGA-II studies on a tiny
// instance with and without telemetry. A phase timer must record
// evaluation brackets for every study, repeats included; every study
// but repeats must label its generation events "dataset/<run name>",
// one label per engine with generations increasing under it; repeats
// must emit only its per-run events; and telemetry must change no
// result.
func TestEveryStudyObserved(t *testing.T) {
	ds, err := ScaleDataSet(40, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	label := func(names ...string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = ds.Name + "/" + n
		}
		return out
	}
	var variants, conv []string
	for _, v := range Variants() {
		variants = append(variants, v.Name)
		conv = append(conv, "conv-"+v.Name)
	}
	const runs = 2
	studies := []struct {
		name   string
		run    func(RunConfig) (any, error)
		labels []string
	}{
		{"figure", func(c RunConfig) (any, error) { return RunParetoFigure(ds, c) }, label(variants...)},
		{"figure5", func(c RunConfig) (any, error) { return RunFigure5(ds, c) }, label("figure5")},
		{"convergence", func(c RunConfig) (any, error) { return RunConvergence(ds, c) }, label(conv...)},
		{"baselines", func(c RunConfig) (any, error) { return RunBaselineComparison(ds, c) }, label("baselines")},
		{"ablation", func(c RunConfig) (any, error) { return RunAblation(ds, c) }, label(
			"abl-baseline (rerank/deb/uniform)", "abl-repair=shuffle",
			"abl-ranking=dominance-count", "abl-selection=tournament")},
		{"mutsweep", func(c RunConfig) (any, error) { return RunMutationSweep(ds, c, []float64{0.05, 0.2}) },
			label("mut-0.05", "mut-0.2")},
		{"wssa", func(c RunConfig) (any, error) { return RunWSSAComparison(ds, c, []float64{0, 1}) }, label("wssa-nsga2")},
		{"online", func(c RunConfig) (any, error) { return RunOnlineStudy(ds, c) }, label("online-offline")},
		{"repeats", func(c RunConfig) (any, error) { return RunRepeats(ds, c, runs) }, nil},
	}
	base := RunConfig{PopulationSize: 8, Checkpoints: []int{1, 3}, Seed: 4, Workers: 2}
	for _, st := range studies {
		t.Run(st.name, func(t *testing.T) {
			plain, err := st.run(base)
			if err != nil {
				t.Fatal(err)
			}
			log, timer := &eventLog{}, obs.NewPhaseTimer(nil)
			cfg := base
			cfg.Observer, cfg.PhaseTimer = log, timer
			observed, err := st.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, observed) {
				t.Fatal("result changed with an observer and a phase timer attached")
			}
			if n := timer.Counts()[obs.PhaseEval]; n == 0 {
				t.Error("phase timer recorded no eval brackets")
			}
			last := map[string]int{}
			for i, l := range log.labels {
				if g, ok := last[l]; ok && log.gens[i] <= g {
					t.Fatalf("label %q: generation %d after %d", l, log.gens[i], g)
				}
				last[l] = log.gens[i]
			}
			got := make([]string, 0, len(last))
			for l := range last {
				got = append(got, l)
			}
			want := append([]string(nil), st.labels...)
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("generation labels %q, want %q", got, want)
			}
			wantRuns := 0
			if st.labels == nil {
				wantRuns = len(Variants()) * runs
			}
			if len(log.runs) != wantRuns {
				t.Errorf("%d run events, want %d", len(log.runs), wantRuns)
			}
		})
	}
}
