package obs

import (
	"io"
	"sort"
)

// AnalyzeOptions tunes the offline trace analytics.
type AnalyzeOptions struct {
	// StallWindow is the plateau length that flags a convergence stall:
	// a label stalls when StallWindow consecutive generation records
	// pass without a hypervolume improvement. Default 50.
	StallWindow int
	// StallTol is the relative hypervolume gain below which a
	// generation does not count as an improvement (measured against
	// max(|best so far|, 1)). Default 1e-4.
	StallTol float64
}

func (o AnalyzeOptions) withDefaults() AnalyzeOptions {
	if o.StallWindow <= 0 {
		o.StallWindow = 50
	}
	if o.StallTol <= 0 {
		o.StallTol = 1e-4
	}
	return o
}

// TraceAnalysis is the offline rollup of one JSONL trace (any schema
// version v1–v5): record counts, the cross-trace phase-time rollup,
// per-label convergence, and the island migration summary. Produced by
// AnalyzeTrace, rendered by cmd/tracestat.
type TraceAnalysis struct {
	Records TraceSummary    `json:"records"`
	Phases  []PhaseStat     `json:"phases,omitempty"`
	Labels  []LabelAnalysis `json:"labels,omitempty"`
	Islands *IslandSummary  `json:"islands,omitempty"`
	// ProfiledGenerations counts the generation records carrying a
	// nonzero phase profile (v4 traces from a -phase-profile run).
	ProfiledGenerations int `json:"profiled_generations"`
	// Stalled reports whether any label hit a hypervolume plateau of at
	// least StallWindow generations.
	Stalled bool `json:"stalled"`
}

// PhaseStat is one phase's share of the trace's recorded phase time.
type PhaseStat struct {
	Phase      string  `json:"phase"`
	TotalNanos int64   `json:"total_ns"`
	Share      float64 `json:"share"`
}

// LabelAnalysis summarizes one label's generation records: counter
// range and hypervolume trajectory with plateau detection.
type LabelAnalysis struct {
	Label       string `json:"label"`
	Generations int    `json:"generations"`
	FirstGen    int    `json:"first_gen"`
	LastGen     int    `json:"last_gen"`

	HVFirst float64 `json:"hv_first"`
	HVBest  float64 `json:"hv_best"`
	HVLast  float64 `json:"hv_last"`
	// BestGen is the generation of the last hypervolume improvement.
	BestGen int `json:"best_gen"`
	// MaxPlateau is the longest run of consecutive generation records
	// without a hypervolume improvement; Stalled flags MaxPlateau >=
	// StallWindow. EndPlateau is the plateau still open when the trace
	// ends (how stale the best front is).
	MaxPlateau int  `json:"max_plateau"`
	EndPlateau int  `json:"end_plateau"`
	Stalled    bool `json:"stalled"`
}

// IslandSummary aggregates a trace's migration records.
type IslandSummary struct {
	// Islands is the ring size implied by the largest island index.
	Islands int `json:"islands"`
	// Ticks is the number of distinct migration generations.
	Ticks int `json:"ticks"`
	// Migrants is the total migrant count across all edges.
	Migrants int `json:"migrants"`
	// PerIsland summarizes each island's outbound edges.
	PerIsland []IslandStat `json:"per_island"`
	// TickSkew is the spread (max - min) of the islands' last migration
	// generations: 0 when every island reached the same logical tick.
	TickSkew int `json:"tick_skew"`
}

// IslandStat is one island's outbound migration summary.
type IslandStat struct {
	Island   int `json:"island"`
	Migrants int `json:"migrants"`
	LastGen  int `json:"last_gen"`
}

// traceAnalyzer accumulates the streaming analysis across one or more
// traces.
type traceAnalyzer struct {
	opts        AnalyzeOptions
	an          *TraceAnalysis
	phaseTotals PhaseTotals
	labels      map[string]*LabelAnalysis
	labelOrder  []string
	islands     map[int]*IslandStat
	migTicks    map[int]bool
}

func newTraceAnalyzer(opts AnalyzeOptions) *traceAnalyzer {
	return &traceAnalyzer{
		opts:     opts.withDefaults(),
		an:       &TraceAnalysis{},
		labels:   make(map[string]*LabelAnalysis),
		islands:  make(map[int]*IslandStat),
		migTicks: make(map[int]bool),
	}
}

func (a *traceAnalyzer) consume(rec *traceRecord) {
	switch rec.Type {
	case "generation":
		label := ""
		if rec.Label != nil {
			label = *rec.Label
		}
		l := a.labels[label]
		if l == nil {
			l = &LabelAnalysis{
				Label:    label,
				FirstGen: *rec.Gen,
				HVFirst:  *rec.HV,
				HVBest:   *rec.HV,
				BestGen:  *rec.Gen,
			}
			a.labels[label] = l
			a.labelOrder = append(a.labelOrder, label)
		}
		l.Generations++
		l.LastGen = *rec.Gen
		l.HVLast = *rec.HV
		if *rec.HV-l.HVBest > a.opts.StallTol*maxf(absf(l.HVBest), 1) {
			l.HVBest = *rec.HV
			l.BestGen = *rec.Gen
			l.EndPlateau = 0
		} else if l.Generations > 1 {
			l.EndPlateau++
			if l.EndPlateau > l.MaxPlateau {
				l.MaxPlateau = l.EndPlateau
			}
		}
		if rec.PhaseNS != nil {
			nonzero := false
			for p, ns := range rec.PhaseNS {
				if p < NumPhases {
					a.phaseTotals[p] += ns
				}
				if ns != 0 {
					nonzero = true
				}
			}
			if nonzero {
				a.an.ProfiledGenerations++
			}
		}
	case "migration":
		from, to, gen := *rec.From, *rec.To, *rec.Gen
		a.migTicks[gen] = true
		for _, i := range []int{from, to} {
			if a.islands[i] == nil {
				a.islands[i] = &IslandStat{Island: i}
			}
		}
		st := a.islands[from]
		st.Migrants += *rec.Count
		if gen > st.LastGen {
			st.LastGen = gen
		}
	}
}

func (a *traceAnalyzer) finish() *TraceAnalysis {
	an := a.an
	var phaseSum int64
	for _, ns := range a.phaseTotals {
		phaseSum += ns
	}
	if phaseSum > 0 {
		for p := Phase(0); int(p) < NumPhases; p++ {
			an.Phases = append(an.Phases, PhaseStat{
				Phase:      p.String(),
				TotalNanos: a.phaseTotals[p],
				Share:      float64(a.phaseTotals[p]) / float64(phaseSum),
			})
		}
	}

	for _, label := range a.labelOrder {
		l := a.labels[label]
		l.Stalled = l.MaxPlateau >= a.opts.StallWindow
		if l.Stalled {
			an.Stalled = true
		}
		an.Labels = append(an.Labels, *l)
	}

	if len(a.islands) > 0 {
		is := &IslandSummary{Ticks: len(a.migTicks)}
		minLast, maxLast := 0, 0
		var idx []int
		for i := range a.islands {
			idx = append(idx, i)
			if i+1 > is.Islands {
				is.Islands = i + 1
			}
		}
		sort.Ints(idx)
		for k, i := range idx {
			st := a.islands[i]
			is.Migrants += st.Migrants
			is.PerIsland = append(is.PerIsland, *st)
			if k == 0 || st.LastGen < minLast {
				minLast = st.LastGen
			}
			if k == 0 || st.LastGen > maxLast {
				maxLast = st.LastGen
			}
		}
		is.TickSkew = maxLast - minLast
		an.Islands = is
	}
	return an
}

// AnalyzeTrace validates and analyzes a JSONL trace in one pass. The
// trace must satisfy the same schema rules as ValidateTrace (the first
// violation is returned as a *TraceError); v1–v3 records simply lack
// phase_ns, so they add nothing to the phase rollup.
func AnalyzeTrace(r io.Reader, opts AnalyzeOptions) (*TraceAnalysis, error) {
	a := newTraceAnalyzer(opts)
	sum, err := scanTrace(r, func(_ int, rec *traceRecord) { a.consume(rec) })
	if err != nil {
		return nil, err
	}
	a.an.Records = sum
	return a.finish(), nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
